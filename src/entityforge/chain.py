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
import json
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import IngestError, ValidationError


class Txo(NamedTuple):
    """One transaction output: a locking script id and a satoshi value."""

    script: int
    value: int


class Transaction(NamedTuple):
    txid: str
    inputs: tuple[Txo, ...]
    outputs: tuple[Txo, ...]


class Block(NamedTuple):
    index: int
    transactions: list[Transaction]


class ScriptTable:
    """Injective script-text <-> dense-id interning table.

    Ids are assigned in first-observation order with no gaps, so array-backed
    structures can index directly by script id.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._texts: list[str] = []

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, text: str) -> bool:
        return text in self._ids

    def intern(self, text: str) -> int:
        if not text:
            raise IngestError("empty script text", category="ingest")
        sid = self._ids.get(text)
        if sid is None:
            sid = len(self._texts)
            self._ids[text] = sid
            self._texts.append(text)
        return sid

    def lookup(self, text: str) -> int | None:
        return self._ids.get(text)

    def text(self, sid: int) -> str:
        return self._texts[sid]


def validate_transaction(tx: Transaction) -> Transaction:
    """Check value invariants; returns tx unchanged if everything holds.

    No inputs means a coinbase-style transaction, which callers are expected
    to drop before this point; here it is an error.
    """
    if not tx.inputs:
        raise ValidationError(
            f"transaction {tx.txid}: no inputs (coinbase or malformed)",
            category="coinbase-or-malformed",
        )
    if not tx.outputs:
        raise ValidationError(
            f"transaction {tx.txid}: no outputs", category="malformed"
        )
    for txo in tx.inputs:
        if txo.value < 0:
            raise ValidationError(
                f"transaction {tx.txid}: negative input value {txo.value}",
                category="format",
            )
    for txo in tx.outputs:
        if txo.value < 0:
            raise ValidationError(
                f"transaction {tx.txid}: negative output value {txo.value}",
                category="format",
            )
    v_in = sum(t.value for t in tx.inputs)
    v_out = sum(t.value for t in tx.outputs)
    if v_out > v_in:
        raise ValidationError(
            f"transaction {tx.txid}: outputs {v_out} exceed inputs {v_in}",
            category="value-inflation",
        )
    return tx


def open_text_stream(path: str, mode: str) -> IO:
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _decode_side(raw: dict, key: str, table: ScriptTable, txid: str, lineno: int) -> tuple[Txo, ...]:
    side = raw.get(key)
    if not isinstance(side, list):
        raise IngestError(f"line {lineno}: transaction {txid}: '{key}' must be a list")
    txos = []
    for entry in side:
        if not isinstance(entry, dict) or "script" not in entry or "value" not in entry:
            raise IngestError(
                f"line {lineno}: transaction {txid}: each {key[:-1]} needs 'script' and 'value'"
            )
        script, value = entry["script"], entry["value"]
        if not isinstance(script, str) or not script:
            raise IngestError(
                f"line {lineno}: transaction {txid}: empty or non-string script"
            )
        if not isinstance(value, int) or isinstance(value, bool):
            raise IngestError(
                f"line {lineno}: transaction {txid}: value must be an integer, got {value!r}"
            )
        txos.append(Txo(table.intern(script), value))
    return tuple(txos)


class StreamStats:
    """Counters accumulated over one pass of a transaction stream."""

    def __init__(self) -> None:
        self.blocks = 0
        self.transactions = 0
        self.coinbase_dropped = 0
        self.first_block: int | None = None
        self.last_block: int | None = None


def iter_blocks(
    source: IO | Iterable[str],
    table: ScriptTable,
    stats: StreamStats | None = None,
) -> Iterator[Block]:
    """Yield validated blocks from a JSONL line source, interning scripts.

    Transactions must be sorted by block index; consecutive lines with the
    same index form one block. Coinbase transactions (empty inputs) are
    dropped before any of their scripts are interned.
    """
    stats = stats if stats is not None else StreamStats()
    current_index: int | None = None
    current_txs: list[Transaction] = []

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
            raw = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise IngestError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise IngestError(f"line {lineno}: expected a JSON object")
        txid = raw.get("txid")
        if not isinstance(txid, str) or not txid:
            raise IngestError(f"line {lineno}: missing or empty 'txid'")
        block_index = raw.get("block")
        if not isinstance(block_index, int) or isinstance(block_index, bool) or block_index < 0:
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
        if isinstance(raw_inputs, list) and len(raw_inputs) == 0:
            stats.coinbase_dropped += 1
            continue

        inputs = _decode_side(raw, "inputs", table, txid, lineno)
        outputs = _decode_side(raw, "outputs", table, txid, lineno)
        tx = validate_transaction(Transaction(txid, inputs, outputs))

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

    Owns the interning table so that repeated passes (for example a reuse
    pre-pass followed by the clustering pass) see identical script ids.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self.table = ScriptTable()
        self.stats = StreamStats()

    def blocks(self) -> Iterator[Block]:
        self.stats = StreamStats()
        with open_text_stream(self.path, "r") as fh:
            yield from iter_blocks(fh, self.table, self.stats)


class MemorySource:
    """Re-iterable block source over already-interned in-memory blocks."""

    def __init__(self, blocks: list[Block], table: ScriptTable):
        self._blocks = blocks
        self.table = table
        self.stats = StreamStats()

    def blocks(self) -> Iterator[Block]:
        for block in self._blocks:
            yield block
