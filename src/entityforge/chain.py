"""Transaction data model and block-stream ingestion.

Scripts (addresses) are interned to dense integer ids at first observation;
all downstream structures index by those ids. Each block carries the number
of scripts seen through it, so a replay never walks the ids to find it, and a
replayable source carries the stream's fixed reuse counts, made once. The
wire format is JSON-Lines, one transaction per line, grouped and sorted by
block index:

    {"txid": "t1", "block": 7,
     "inputs":  [{"script": "pA", "value": 10}],
     "outputs": [{"script": "pB", "value": 9}]}

Values are integer satoshis. Files ending in ``.gz`` are gzip-compressed.
Coinbase-style transactions (no inputs) are dropped at ingestion and counted,
never interned.
"""

from __future__ import annotations

import gzip
import io
import json
import marshal
import zlib
from itertools import repeat
from typing import IO, Generator, Iterable, Iterator, NamedTuple

from .errors import DataError, IngestError, ValidationError
from .reuse import ReuseIndex


class Transaction(NamedTuple):
    """One transaction as flat columns: per side, the script ids of its
    entries and their satoshi values, in wire order and index-aligned."""

    txid: str
    in_scripts: tuple[int, ...]
    in_values: tuple[int, ...]
    out_scripts: tuple[int, ...]
    out_values: tuple[int, ...]


class Block(NamedTuple):
    """A block's transactions, and `scripts`: the number of scripts seen through it,
    so ids 0..scripts-1 are exactly the scripts of this block and the ones before."""

    index: int
    transactions: list[Transaction]
    scripts: int


# The largest input total, as Bitcoin Core's int64 `CAmount` holds it; with outputs
# at most inputs and no negatives, it bounds every value.
MAX_VALUE = 2**63 - 1


def validate_transaction(tx: Transaction) -> Transaction:
    """Check value invariants; returns tx unchanged if everything holds.

    No inputs means a coinbase-style transaction, which callers are expected
    to drop before this point; here it is an error.
    """
    if not tx.in_values:
        raise ValidationError(
            f"transaction {tx.txid}: no inputs (coinbase or malformed)",
            category="coinbase-or-malformed",
        )
    if not tx.out_values:
        raise ValidationError(f"transaction {tx.txid}: no outputs", category="malformed")
    for side, values in (("input", tx.in_values), ("output", tx.out_values)):
        for value in values:
            if value < 0:
                raise ValidationError(
                    f"transaction {tx.txid}: negative {side} value {value}", category="format"
                )
    v_in = sum(tx.in_values)
    v_out = sum(tx.out_values)
    if v_out > v_in:
        raise ValidationError(
            f"transaction {tx.txid}: outputs {v_out} exceed inputs {v_in}",
            category="value-inflation",
        )
    if v_in > MAX_VALUE:
        raise ValidationError(f"transaction {tx.txid}: inputs {v_in} exceed the 64-bit bound "
                              f"{MAX_VALUE}", category="value-range")
    return tx


def open_stream(path: str) -> IO[bytes]:
    """A stream file's bytes, gunzipped if its name ends in `.gz`."""
    return (gzip.open if path.endswith(".gz") else open)(path, "rb")


# json.loads without its wrapper; a line this rejects goes through json.loads
# after all, so that every error message is json.loads' own.
_raw_decode = json.JSONDecoder().raw_decode


def _transactions(*columns: Iterable) -> list[Transaction]:
    """A block's `Transaction`s from its five columns: txids, then each side's ids and values."""
    return list(map(tuple.__new__, repeat(Transaction), zip(*columns)))


# New script ids are made this many at a time (see `iter_blocks`).
_ID_RUN = 4096


def iter_blocks(source: IO | Iterable[str], table: dict[str, int]) -> Generator[Block, None, int]:
    """Yield validated blocks from a JSONL line source, interning scripts in `table`,
    and return the number of coinbase lines dropped.

    Lines must be sorted by block index, coinbase lines too; consecutive lines
    with the same index form one block. Coinbase transactions (empty inputs) are
    dropped before any of their scripts are interned.

    The per-line work is one loop, since decoding is the largest layer of a
    run. On decoded JSON, `type(x) is int` is `isinstance(x, int)`
    without bools. A script text new to `table` takes the next id,
    `len(table)`, so ids are dense in first-observation order, and a
    block's script count is `len(table)` after its last transaction. The
    new ids are popped from runs of `_ID_RUN` consecutive ints made in one
    go, so each id's int, which every transaction naming that script
    shares, lies beside the others on few memory pages rather than among
    the parser's short-lived objects. Each side fills an id list and a
    value list; only a transaction whose value columns' `sum` and `min`
    show it invalid or past `MAX_VALUE` goes through
    `validate_transaction`, which raises its error.

    A kept transaction stays a row of its txid and four lists until its block
    ends. The block's tuples are then built one column at a time: every
    input-id tuple, then every input-value tuple, then the output columns,
    then the `Transaction`s through `_transactions`, the step a packed replay
    builds its blocks with too. Built together, each column's tuples lie on few
    memory pages instead of among the parser's short-lived objects, so a
    replay that writes their reference counts in a forked child copies fewer
    of the parent's pages.
    """
    current_index = 0  # the block being gathered
    last_index = 0  # the block of the line before, coinbase lines too
    rows: list[list] = []  # the block's transactions: txid, then each side's ids and values
    seen = 0  # scripts through the last transaction kept
    coinbase_dropped = 0
    get_id = table.get
    fresh: list[int] = []  # the ids of the next new scripts, the next one last

    def flush() -> Block:
        txids, *sides = zip(*rows)
        columns = [list(map(tuple, side)) for side in sides]
        return Block(current_index, _transactions(txids, *columns), seen)

    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw, end = _raw_decode(line)
            if end != len(line):
                raise ValueError
        except (ValueError, RecursionError, TypeError):  # TypeError: bytes lines
            try:
                raw = json.loads(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
                raise IngestError(f"line {lineno}: invalid JSON: {exc}") from exc
        if type(raw) is not dict:
            raise IngestError(f"line {lineno}: expected a JSON object")
        txid = raw.get("txid")
        if type(txid) is not str or not txid:
            raise IngestError(f"line {lineno}: missing or empty 'txid'")
        block_index = raw.get("block")
        if type(block_index) is not int or block_index < 0:
            raise IngestError(
                f"line {lineno}: transaction {txid}: 'block' must be a non-negative integer"
            )
        if block_index < last_index:
            raise IngestError(
                f"line {lineno}: transaction {txid}: block {block_index} after "
                f"block {last_index} (stream must be sorted by block)"
            )
        last_index = block_index

        # Coinbase check precedes interning so dropped outputs never get ids.
        raw_inputs = raw.get("inputs")
        if type(raw_inputs) is list and not raw_inputs:
            coinbase_dropped += 1
            continue

        row = [txid]
        for key, side in (("inputs", raw_inputs), ("outputs", raw.get("outputs"))):
            if type(side) is not list:
                raise IngestError(f"line {lineno}: transaction {txid}: '{key}' must be a list")
            sids, values = [], []
            for entry in side:
                try:
                    script = entry["script"]
                    value = entry["value"]
                except (KeyError, TypeError):
                    raise IngestError(
                        f"line {lineno}: transaction {txid}: each {key[:-1]} needs 'script' and 'value'"
                    ) from None
                if type(script) is not str or not script:
                    raise IngestError(
                        f"line {lineno}: transaction {txid}: empty or non-string script"
                    )
                if type(value) is not int:
                    raise IngestError(
                        f"line {lineno}: transaction {txid}: value must be an integer, got {value!r}"
                    )
                sid = get_id(script)
                if sid is None:
                    if not fresh:
                        fresh = list(range(len(table), len(table) + _ID_RUN))
                        fresh.reverse()
                    sid = table[script] = fresh.pop()
                sids.append(sid)
                values.append(value)
            row += (sids, values)
        in_values, out_values = row[2], row[4]
        if (not out_values or min(in_values) < 0 or min(out_values) < 0
                or not sum(out_values) <= sum(in_values) <= MAX_VALUE):
            validate_transaction(Transaction(txid, *map(tuple, row[1:])))

        if rows and block_index > current_index:
            yield flush()
            rows = []
        current_index = block_index
        rows.append(row)
        seen = len(table)

    if rows:
        yield flush()
    return coinbase_dropped


class JsonlSource:
    """Re-iterable block source backed by a JSONL (optionally .gz) file.

    Each pass interns into a fresh table, script text to id, kept as `table`
    until the next pass, and sets `coinbase_dropped` when it ends. Ids follow
    first observation, so every pass gives the same ids and block script counts.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self.table: dict[str, int] = {}
        self.coinbase_dropped = 0

    def blocks(self) -> Iterator[Block]:
        self.table = {}
        try:
            with io.TextIOWrapper(open_stream(self.path), encoding="utf-8") as fh:
                self.coinbase_dropped = yield from iter_blocks(fh, self.table)
        except UnicodeDecodeError as exc:
            raise IngestError(f"{self.path}: cannot read the stream: {self._not_utf8(exc)}") from None
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            # gzip data that is cut short or corrupt
            raise IngestError(f"{self.path}: cannot read the stream: {exc}") from None

    def pack(self) -> "PackedStream":
        """Decode the stream once into a `PackedStream`, which counts its fixed reuse as the
        blocks go by; then release the script texts."""
        packed = PackedStream(self)
        self.table = {}
        return packed

    def _not_utf8(self, exc: UnicodeDecodeError) -> str:
        """The first line that is not UTF-8, and the bad byte's offset in it.

        The decoder's own position counts from its chunk, so the bytes are read
        again, lines split as in text mode."""
        for lineno, line in enumerate(self._byte_lines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                return f"line {lineno}: byte 0x{line[bad.start]:02x} at offset {bad.start} is not UTF-8"
        return str(exc)

    def _byte_lines(self) -> Iterator[bytes]:
        pending = b""
        try:
            with open_stream(self.path) as fh:
                while chunk := fh.read1(1 << 16):  # one read: keeps the bytes before any damage
                    *lines, pending = (pending + chunk).splitlines(keepends=True)
                    yield from lines
        except (EOFError, gzip.BadGzipFile, zlib.error):
            pass  # damaged gzip data: the bytes before the damage are still checked
        yield pending


class MemorySource:
    """Re-iterable block source over already-interned in-memory blocks.

    The blocks are checked once, when the source is made, as the decoder would
    have made them: each block's index above the one before, and each id either
    seen or the next, so ids are dense in stream order. Each block is then held
    with its script count, and the stream's fixed reuse counts as `fixed`.
    """

    def __init__(self, blocks: list[Block], table: dict[str, int]):
        counted: list[Block] = []
        hw = 0  # scripts seen so far: ids 0..hw-1
        for block in blocks:
            if counted and block.index <= counted[-1].index:
                raise DataError(f"block {block.index} after block {counted[-1].index}: "
                                "stream must be sorted")
            for tx in block.transactions:
                for side in (tx.in_scripts, tx.out_scripts):
                    for sid in side:
                        if not 0 <= sid < hw:
                            if sid != hw:
                                raise DataError(f"transaction {tx.txid} in block {block.index}: "
                                                f"script id {sid} is neither seen nor the next id {hw}")
                            hw += 1
            counted.append(Block(block.index, block.transactions, hw))
        self._blocks = counted
        self.table = table
        self.coinbase_dropped = 0
        self.fixed = ReuseIndex.build_fixed(counted)

    def blocks(self) -> Iterator[Block]:
        return iter(self._blocks)


class PackedStream:
    """One pass of a source as one `marshal` string per block, replayed as equal blocks,
    with the fixed reuse counts and the `coinbase_dropped` of the pass. Each block is held as
    its five columns of plain tuples, since `marshal` refuses NamedTuples, and a replay
    rebuilds it with the decoder's `_transactions`. No script text is kept, and the strings
    never leave the process: `marshal` is unsafe on outside data. Version 2 keeps no
    reference table: packing is faster and the strings larger."""

    def __init__(self, source) -> None:
        self._blocks: list[tuple[int, int, bytes]] = []
        self.fixed = ReuseIndex.build_fixed(map(self._add, source.blocks()))
        self.coinbase_dropped = source.coinbase_dropped

    def _add(self, block: Block) -> Block:
        """Pack `block`, and pass it on to be counted."""
        columns = tuple(zip(*block.transactions))
        self._blocks.append((block.index, block.scripts, marshal.dumps(columns, 2)))
        return block

    def blocks(self) -> Iterator[Block]:
        for index, scripts, data in self._blocks:
            yield Block(index, _transactions(*marshal.loads(data)), scripts)
