"""Package error types, and the CSV and JSON reading that uses them.

Every data-level failure carries a short category string so the CLI can
report `error[<category>]: message` and exit with a stable code.
"""

import csv
import json
from typing import IO, Iterator


class EntityForgeError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"

    def __init__(self, message: str, category: str | None = None):
        super().__init__(message)
        if category is not None:
            self.category = category


class DataError(EntityForgeError):
    """Bad input data (malformed stream, unsorted blocks, bad CSV...)."""

    category = "data"


class IngestError(DataError):
    """A transaction in the input stream violates the format contract."""

    category = "ingest"


class ValidationError(DataError):
    """A transaction violates a value invariant (inflation, negatives...)."""

    category = "validation"


class ConfigError(EntityForgeError):
    """Invalid run configuration (bad parameters, unknown heuristic...)."""

    category = "config"


class GenerationError(EntityForgeError):
    """Synthetic stream generation was asked for something infeasible."""

    category = "generation"


def csv_rows(source: IO, header: list[str], what: str) -> Iterator[tuple[str, list[str]]]:
    """Yield `(where, row)` for each non-blank data row of a CSV file.

    `where` names the file and line for error messages. A header other than
    `header`, a row with another number of fields, or text the csv module
    cannot read raises DataError.
    """
    reader = csv.reader(source)
    try:
        got = next(reader, None)
        if got != header:
            raise DataError(f"bad {what} header: {got}")
        for row in reader:
            if not row:
                continue
            where = f"{what} line {reader.line_num}"
            if len(row) != len(header):
                raise DataError(f"{where}: expected {len(header)} columns, got {len(row)}")
            yield where, row
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{what} line {reader.line_num}: {exc}") from None


def parse_int(text: str, where: str) -> int:
    """`int(text)`, or a DataError that names where the text came from."""
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{where}: expected an integer, got {text!r}") from None


def read_json_object(path, what: str, error: type[EntityForgeError]) -> dict:
    """The JSON object in the file at `path`; anything else raises `error`."""
    with open(path, encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise error(f"{what} {path}: invalid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise error(f"{what} {path}: expected a JSON object")
    return value
