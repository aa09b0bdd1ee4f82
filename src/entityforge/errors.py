"""Package error types, the CSV and JSON reading that uses them, and output files.

Every data-level failure carries a short category string so the CLI can
report `error[<category>]: message` and exit with a stable code.
"""

import csv
import json
import os
import re
import stat
from contextlib import contextmanager, suppress
from decimal import Decimal, InvalidOperation
from itertools import islice
from typing import IO, Callable, Iterator

# Rows a bulk CSV read converts at a time: enough to keep the per-chunk work
# small beside the conversion, few enough that the chunk's row lists stay small.
CSV_CHUNK_ROWS = 4096

# An integer field or flag is an optional `-` and then ASCII digits. `int()` alone
# also takes `+`, spaces, `_` and non-ASCII digits; on text with none of those it
# takes exactly this form, so one search of all the fields joined checks them.
_not_int_char = re.compile(r"[^0-9-]").search
is_int_text = re.compile(r"-?[0-9]+").fullmatch

# A decimal is an optional `-`, ASCII digits with at most one `.`, and an optional
# exponent: `e` or `E`, then ASCII digits, signed as `Decimal` writes it (`1E+5`).
# `Decimal()` alone also takes `+`, spaces, `_`, non-ASCII digits, `Infinity` and `NaN`.
_decimal_text = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?").fullmatch


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
    """`text` as an integer, or a DataError that names where the text came from."""
    if is_int_text(text):
        return int(text)
    raise DataError(f"{where}: expected an integer, got {text!r}")


def parse_decimal(text: str) -> Decimal | None:
    """`text` as a Decimal, or None if it is not in the decimal form."""
    if _decimal_text(text):
        with suppress(InvalidOperation):  # an exponent past what Decimal holds
            return Decimal(text)
    return None


def int_columns(path: str, header: list[str]) -> tuple[list[int], list[int]] | None:
    """The two integer columns of the CSV file at `path`, below `header`.

    Rows are read and converted a chunk at a time, with blank lines skipped as
    `csv_rows` skips them, so no list of all rows is held. Returns None if the
    header differs, a row has other than two fields, a field is not an
    integer, or the text cannot be read: the caller then walks the file with
    `csv_rows` and `parse_int`, which name the line.
    """
    firsts: list[int] = []
    seconds: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != header:
                return None
            for chunk in iter(lambda: list(islice(reader, CSV_CHUNK_ROWS)), []):
                rows = list(filter(None, chunk))
                if set(map(len, rows)) - {2}:  # a row without exactly two fields
                    return None
                if rows:
                    ids, values = zip(*rows)
                    if _not_int_char("".join(ids + values)):
                        return None
                    firsts += map(int, ids)
                    seconds += map(int, values)
        except (csv.Error, UnicodeDecodeError, ValueError):
            return None
    return firsts, seconds


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


def names_regular_file(path) -> bool:
    """True unless `path` exists as something other than a regular file (a device, a pipe)."""
    return not os.path.exists(path) or os.path.isfile(path)


@contextmanager
def output_files() -> Iterator[Callable[..., IO]]:
    """Yield `open_output(path, mode="w")`, which opens a temporary file beside `path`.

    When the block ends without an exception, each temporary file replaces its
    target; otherwise each is deleted. A failed command therefore leaves no
    partial output and every existing file as it was, and a replaced file keeps
    its permission bits. Text is UTF-8 with no newline translation. A target
    that exists but is not a regular file (a directory, a pipe, a device) is
    opened as itself, so a directory fails at once. A file the block already
    opened, by any path, raises ConfigError.
    """
    files: list[tuple[IO, str | None, str]] = []

    def open_output(path: str, mode: str = "w") -> IO:
        text = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
        if not names_regular_file(path):
            fh = open(path, mode, **text)
            files.append((fh, None, path))
            return fh
        target = os.path.realpath(path)  # through a symlink, as open() writes
        if any(target == opened for _, _, opened in files):
            raise ConfigError(f"two outputs name one file: {path!r}")
        temp = f"{target}.{os.getpid()}.tmp"
        try:
            fh = open(temp, mode.replace("w", "x"), **text)
        except OSError as exc:
            exc.filename = path  # name the output, not its temporary file
            raise
        files.append((fh, temp, target))
        return fh

    try:
        yield open_output
        for fh, _, _ in files:
            fh.close()
        for _, temp, target in files:
            if temp is not None:
                with suppress(FileNotFoundError):  # a new target has no mode to keep
                    os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
                os.replace(temp, target)
    finally:
        for fh, temp, _ in files:
            with suppress(OSError):
                fh.close()
            if temp is not None:
                with suppress(FileNotFoundError):  # already moved into place
                    os.remove(temp)
