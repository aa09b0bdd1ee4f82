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
        with suppress(ValueError):  # more digits than sys.get_int_max_str_digits()
            return int(text)
    raise DataError(f"{where}: expected an integer, got {text!r}")


def parse_decimal(text: str) -> Decimal | None:
    """`text` as a Decimal, or None if it is not in the decimal form."""
    if _decimal_text(text):
        with suppress(InvalidOperation):  # an exponent past what Decimal holds
            return Decimal(text)
    return None


def int_pairs(path: str, header: list[str], what: str, dense: bool) -> dict[int, int]:
    """First field -> second field of the two-integer CSV file at `path`, below `header`.

    Each first field appears once. With `dense`, the first fields are exactly
    0..n-1 for n rows and every second field is in 0..n-1 too. The file is read
    and converted a chunk at a time, with blank lines skipped as `csv_rows`
    skips them. Only a file that fails a guard is walked again, once, row by
    row, to name its first fault's line: within a row the first field's form,
    its repeat, the second field's form, then (with `dense`) a negative; after
    the last row, with `dense`, a field not below the row count.
    """
    pairs: dict[int, int] = {}
    n = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != header:
                raise ValueError("header")
            for chunk in iter(lambda: list(islice(reader, CSV_CHUNK_ROWS)), []):
                if rows := list(filter(None, chunk)):
                    firsts, seconds = zip(*rows, strict=True)  # a row without two fields
                    if _not_int_char("".join(firsts + seconds)):
                        raise ValueError("form")
                    pairs.update(zip(map(int, firsts), map(int, seconds)))
                    n += len(rows)
        except (csv.Error, UnicodeDecodeError, ValueError):
            pass  # walked below
        else:
            values = pairs.values()
            if len(pairs) == n and (not dense or not n or (
                    min(min(pairs), min(values)) >= 0 and max(max(pairs), max(values)) < n)):
                return pairs
    pairs, wheres = {}, []
    with open(path, newline="", encoding="utf-8") as fh:
        for where, (first, second) in csv_rows(fh, header, what):
            key = parse_int(first, where)
            if key in pairs:
                raise DataError(f"{where}: {header[0].replace('_', ' ')} {key} repeats")
            pairs[key] = value = parse_int(second, where)
            if dense and min(key, value) < 0:
                raise DataError(f"{where}: id {min(key, value)} is negative")
            wheres.append(where)
    if dense:
        for where, item in zip(wheres, pairs.items()):
            for name, value in zip(header, item):
                if value >= len(pairs):
                    raise DataError(f"{where}: {name.replace('_', ' ')} {value} "
                                    f"is not below the {len(pairs)} ids")
    return pairs


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
