"""Transaction data model and block-stream ingestion.

Scripts (addresses) are interned to dense integer ids at first observation;
all downstream structures index by those ids. The wire format is JSON-Lines,
one transaction per line, grouped and sorted by block index:

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
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import IngestError, ValidationError


class Transaction(NamedTuple):
    """One transaction as flat columns: per side, the script ids of its
    entries and their satoshi values, in wire order and index-aligned."""

    txid: str
    in_scripts: tuple[int, ...]
    in_values: tuple[int, ...]
    out_scripts: tuple[int, ...]
    out_values: tuple[int, ...]


class Block(NamedTuple):
    index: int
    transactions: list[Transaction]


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


class StreamStats:
    """Counters accumulated over one pass of a transaction stream."""

    def __init__(self) -> None:
        self.blocks = 0
        self.transactions = 0
        self.coinbase_dropped = 0
        self.first_block: int | None = None
        self.last_block: int | None = None


# json.loads without its wrapper; a line this rejects goes through json.loads
# after all, so that every error message is json.loads' own.
_raw_decode = json.JSONDecoder().raw_decode


def iter_blocks(
    source: IO | Iterable[str],
    table: dict[str, int],
    stats: StreamStats | None = None,
) -> Iterator[Block]:
    """Yield validated blocks from a JSONL line source, interning scripts in `table`.

    Transactions must be sorted by block index; consecutive lines with the
    same index form one block. Coinbase transactions (empty inputs) are
    dropped before any of their scripts are interned.

    The per-line work is one loop, since decoding is the largest layer of a
    run. On decoded JSON, `type(x) is int` is `isinstance(x, int)`
    without bools. A script text new to `table` takes the next id,
    `len(table)`, so ids are dense in first-observation order. Each side
    fills an id list and a value list; only a transaction whose value
    columns' `sum` and `min` show it invalid or past `MAX_VALUE` goes
    through `validate_transaction`, which raises its error.
    """
    stats = stats if stats is not None else StreamStats()
    current_index: int | None = None
    current_txs: list[Transaction] = []
    get_id, new = table.get, tuple.__new__

    def flush() -> Block:
        stats.blocks += 1
        stats.last_block = current_index
        if stats.first_block is None:
            stats.first_block = current_index
        return Block(current_index, current_txs)

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
        if current_index is not None and block_index < current_index:
            raise IngestError(
                f"line {lineno}: transaction {txid}: block {block_index} after "
                f"block {current_index} (stream must be sorted by block)"
            )

        # Coinbase check precedes interning so dropped outputs never get ids.
        raw_inputs = raw.get("inputs")
        if type(raw_inputs) is list and not raw_inputs:
            stats.coinbase_dropped += 1
            continue

        columns = [txid]
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
                    sid = table[script] = len(table)
                sids.append(sid)
                values.append(value)
            columns += (tuple(sids), tuple(values))
        tx = new(Transaction, columns)
        in_values, out_values = columns[2], columns[4]
        if (not out_values or min(in_values) < 0 or min(out_values) < 0
                or not sum(out_values) <= sum(in_values) <= MAX_VALUE):
            validate_transaction(tx)

        if current_index is None:
            current_index = block_index
        elif block_index > current_index:
            yield flush()
            current_index = block_index
            current_txs = []
        current_txs.append(tx)
        stats.transactions += 1

    if current_index is not None:
        yield flush()


class JsonlSource:
    """Re-iterable block source backed by a JSONL (optionally .gz) file.

    Owns the interning table, script text to id, so that repeated passes see
    identical script ids.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self.table: dict[str, int] = {}
        self.stats = StreamStats()

    def blocks(self) -> Iterator[Block]:
        self.stats = StreamStats()
        try:
            with io.TextIOWrapper(open_stream(self.path), encoding="utf-8") as fh:
                yield from iter_blocks(fh, self.table, self.stats)
        except UnicodeDecodeError as exc:
            raise IngestError(f"{self.path}: cannot read the stream: {self._not_utf8(exc)}") from None
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            # gzip data that is cut short or corrupt
            raise IngestError(f"{self.path}: cannot read the stream: {exc}") from None

    def pack(self, packed: "PackedStream") -> Iterator[Block]:
        """Decode the stream, adding each block to `packed` as it is yielded; then release
        the script texts. A later pass gets the same ids: they follow first observation."""
        for block in self.blocks():
            packed.add(block)
            yield block
        packed.stats = self.stats
        self.table = {}

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
    """Re-iterable block source over already-interned in-memory blocks."""

    def __init__(self, blocks: list[Block], table: dict[str, int]):
        self._blocks = blocks
        self.table = table
        self.stats = StreamStats()

    def blocks(self) -> Iterator[Block]:
        return iter(self._blocks)


class PackedStream:
    """A decoded stream as one `marshal` string per block, replayed as equal blocks. Each
    transaction is held as a plain tuple, since `marshal` refuses NamedTuples. No script
    text is kept, and the strings never leave the process: `marshal` is unsafe on outside data."""

    def __init__(self) -> None:
        self._blocks: list[tuple[int, bytes]] = []

    def add(self, block: Block) -> None:
        self._blocks.append((block.index, marshal.dumps(list(map(tuple, block.transactions)))))

    def blocks(self) -> Iterator[Block]:
        new = tuple.__new__
        for index, data in self._blocks:
            yield Block(index, [new(Transaction, row) for row in marshal.loads(data)])
