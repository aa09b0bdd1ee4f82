"""Independent brute-force reference implementations for cross-checking.

Nothing here may share code with the package's own data structures: the
closure oracle is a fixpoint relabeling, not a disjoint-set, and the reuse
recount uses plain dicts over a second pass of the stream. The reference
JSONL decoder is the package's earlier, plainer one: a walk with isinstance
probes, a helper per side, `ScriptTable.intern` per TXO and a full
`validate_transaction` per transaction. It builds its own record types, one
`Txo` per entry as the package once did; `as_columns` maps its blocks to
the package's column layout for comparison. The reference rounding
exponent is the package's earlier one, over exact rationals.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from typing import IO, Iterable, Iterator, NamedTuple

from entityforge import chain
from entityforge.chain import Block, ScriptTable, StreamStats
from entityforge.errors import DataError, IngestError, ValidationError


def closure_labels(num_scripts: int, groups) -> dict[int, int]:
    """Partition {0..n-1} as the transitive closure of the merge groups.

    Naive pairwise propagation: every script starts as its own label; sweep
    all groups relabeling members to the group's minimum label until nothing
    changes. Quadratic, fine for oracle-scale streams.
    """
    labels = {sid: sid for sid in range(num_scripts)}
    groups = [list(g) for g in groups if g]
    changed = True
    while changed:
        changed = False
        for group in groups:
            target = min(labels[s] for s in group)
            for s in group:
                if labels[s] != target:
                    labels[s] = target
                    changed = True
            # propagate through every script currently sharing a member label
            member_labels = {labels[s] for s in group}
            if len(member_labels) > 1:
                target = min(member_labels)
                for sid, lab in labels.items():
                    if lab in member_labels and lab != target:
                        labels[sid] = target
                        changed = True
    # canonicalize: label = min script id of the class
    classes: dict[int, list[int]] = {}
    for sid, lab in labels.items():
        classes.setdefault(lab, []).append(sid)
    out = {}
    for members in classes.values():
        target = min(members)
        for sid in members:
            out[sid] = target
    return out


def refines(fine: dict[int, int], coarse: dict[int, int]) -> bool:
    """True iff every class of the `fine` labeling lies within one of `coarse`.

    Both map the same scripts to labels, as `ClusterSet.labels()` does; the
    check compares labels only and never touches a disjoint-set.
    """
    if fine.keys() != coarse.keys():
        raise ValueError("refinement needs the same scripts on both sides")
    image: dict[int, int] = {}  # fine label -> the coarse label of its first script
    return all(image.setdefault(label, coarse[sid]) == coarse[sid] for sid, label in fine.items())


def store_labels(store) -> dict[int, int]:
    return store.labels()


def recount_usage(blocks, upto=None) -> dict[int, int]:
    """Appearance counts per script: one per side of each transaction."""
    counts: dict[int, int] = {}
    for block in blocks:
        if upto is not None and block.index > upto:
            break
        for tx in block.transactions:
            for side in (set(tx.in_scripts), set(tx.out_scripts)):
                for sid in side:
                    counts[sid] = counts.get(sid, 0) + 1
    return counts


def reference_rounding_exponent(satoshi_price: Decimal, x: Decimal) -> int:
    """Largest integer i with 10^i * satoshi_price <= x; may be negative.

    Exact: both operands are converted to rationals, so x/p equal to a power
    of ten classifies as that power, never off by one.
    """
    if satoshi_price <= 0 or x <= 0:
        raise DataError("rounding exponent requires positive price and amount")
    q = Fraction(x) / Fraction(satoshi_price)
    # Digit-length difference starts within one of floor(log10); adjust exactly.
    i = len(str(q.numerator)) - len(str(q.denominator))
    ten = Fraction(10)
    while ten**i > q:
        i -= 1
    while ten ** (i + 1) <= q:
        i += 1
    return i


class Txo(NamedTuple):
    """One transaction output: a locking script id and a satoshi value."""

    script: int
    value: int


class Transaction(NamedTuple):
    txid: str
    inputs: tuple[Txo, ...]
    outputs: tuple[Txo, ...]


def as_columns(blocks: list[Block]) -> list[Block]:
    """The reference decoder's blocks with each transaction as the package's columns."""
    return [
        Block(b.index, [
            chain.Transaction(
                t.txid,
                tuple(x.script for x in t.inputs), tuple(x.value for x in t.inputs),
                tuple(x.script for x in t.outputs), tuple(x.value for x in t.outputs),
            )
            for t in b.transactions
        ])
        for b in blocks
    ]


def _reference_validate_transaction(tx: Transaction) -> Transaction:
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


def _reference_decode_side(raw: dict, key: str, table: ScriptTable, txid: str, lineno: int) -> tuple[Txo, ...]:
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


def reference_iter_blocks(
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

        inputs = _reference_decode_side(raw, "inputs", table, txid, lineno)
        outputs = _reference_decode_side(raw, "outputs", table, txid, lineno)
        tx = _reference_validate_transaction(Transaction(txid, inputs, outputs))

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
