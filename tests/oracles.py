"""Independent brute-force reference implementations for cross-checking.

Nothing here may share code with the package's own data structures: the
closure oracle is a fixpoint relabeling, not a disjoint-set, and the reuse
recount uses plain dicts over a second pass of the stream. The reference
JSONL decoder is the package's earlier, plainer one: a walk with isinstance
probes, a helper per side, a table lookup per TXO and a full
`validate_transaction` per transaction. It builds its own record types, one
`Txo` per entry as the package once did; `as_columns` maps its blocks to
the package's column layout for comparison. The reference rounding
exponent is the package's earlier one, over exact rationals. The reference
CoinJoin filter and the change, shadow and reuse-change rules are the
package's earlier ones, which each stated their own reuse tests; the
common-input, deposit, force-merge, round and one-time-change rules are the
package's earlier ones, which built their sets before their shape tests. The
checkpoint walk and the `--blocks` parser are the package's earlier ones,
which built their state in a class and a flat list. The reference score
enumerates every pair of truth scripts. The block-count scan is the
engine's earlier check of every id, made once per run.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace
from typing import IO, Generator, Iterable, Iterator, NamedTuple

from entityforge import chain
from entityforge.chain import Block
from entityforge.errors import ConfigError, DataError, IngestError, ValidationError


def closure_labels(num_scripts: int, groups) -> list[int]:
    """Partition {0..n-1} as the transitive closure of the merge groups.

    Naive pairwise propagation: every script starts as its own label; sweep
    all groups relabeling members to the group's minimum label until nothing
    changes. Quadratic, fine for oracle-scale streams. Returns each script's
    label, the min id of its class, as a list indexed by script id.
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
    out = [0] * num_scripts
    for members in classes.values():
        target = min(members)
        for sid in members:
            out[sid] = target
    return out


def refines(fine: list[int], coarse: list[int]) -> bool:
    """True iff every class of the `fine` labeling lies within one of `coarse`.

    Both list a label per script id, as `ClusterSet.labels()` does; the check
    compares labels only and never touches a disjoint-set.
    """
    if len(fine) != len(coarse):
        raise ValueError("refinement needs the same scripts on both sides")
    image: dict[int, int] = {}  # fine label -> the coarse label of its first script
    return all(image.setdefault(label, other) == other for label, other in zip(fine, coarse))


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


def _reused(idx, sid: int) -> bool:
    return idx.count(sid) >= 2


def _two_distinct_outputs(tx):
    if len(tx.out_scripts) != 2:
        return None
    a, b = tx.out_scripts
    return None if a == b else (a, b)


def reference_is_coinjoin(tx) -> bool:
    """>= 2 distinct input scripts, >= 2 distinct output scripts, and two
    distinct output scripts of one value: the package's earlier two-set form."""
    if len(set(tx.in_scripts)) < 2 or len(set(tx.out_scripts)) < 2:
        return False
    by_value: dict[int, set[int]] = {}
    for sid, value in zip(tx.out_scripts, tx.out_values):
        scripts = by_value.setdefault(value, set())
        scripts.add(sid)
        if len(scripts) >= 2:
            return True
    return False


def reference_coinjoin_resistant_common_input(tx, ctx):
    scripts = frozenset(tx.in_scripts)
    return (scripts,) if len(scripts) >= 2 and not reference_is_coinjoin(tx) else ()


def reference_change_address(tx, ctx):
    """One unreused input, two distinct outputs, exactly one unreused (the
    change) and the other reused (the payment), tested on its own."""
    if len(tx.in_scripts) != 1:
        return ()
    p_in = tx.in_scripts[0]
    outs = _two_distinct_outputs(tx)
    if outs is None:
        return ()
    idx = ctx.reuse
    if _reused(idx, p_in):
        return ()
    fresh = [s for s in outs if not _reused(idx, s)]
    if len(fresh) != 1:
        return ()
    p_change = fresh[0]
    p_pay = outs[0] if outs[1] == p_change else outs[1]
    if not _reused(idx, p_pay):
        return ()
    return (frozenset((p_in, p_change)),)


def reference_shadow_address(tx, ctx):
    """Two distinct outputs, exactly one with a count below two, and the
    other's count re-tested as at least two."""
    outs = _two_distinct_outputs(tx)
    if outs is None:
        return ()
    idx = ctx.reuse
    fresh = [s for s in outs if idx.count(s) < 2]
    if len(fresh) != 1:
        return ()
    p_pay = outs[0] if outs[1] == fresh[0] else outs[1]
    if idx.count(p_pay) < 2:
        return ()
    return (frozenset((*tx.in_scripts, fresh[0])),)


def reference_reuse_based_change(tx, ctx):
    """Inputs and outputs disjoint, and exactly one output script whose count
    over the whole dataset is exactly one."""
    in_scripts = frozenset(tx.in_scripts)
    out_scripts = set(tx.out_scripts)
    if not in_scripts.isdisjoint(out_scripts):
        return ()
    idx = ctx.reuse
    single_use = [s for s in out_scripts if idx.count(s) == 1]
    if len(single_use) != 1:
        return ()
    return (in_scripts | {single_use[0]},)


def reference_common_input(tx, ctx):
    scripts = frozenset(tx.in_scripts)
    return (scripts,) if len(scripts) >= 2 else ()


def reference_service_deposit(tx, ctx):
    scripts = frozenset(tx.in_scripts)
    if len(scripts) >= ctx.config.min_deposit_inputs and len(set(tx.out_scripts)) == 1:
        return (scripts,)
    return ()


def reference_force_merge_of_inputs(tx, ctx):
    """Distinct, unreused inputs; two distinct outputs of distinct values; an
    unreused change (the lower value); no input unnecessary for the payment."""
    in_scripts = frozenset(tx.in_scripts)
    if len(tx.in_scripts) < 2 or len(in_scripts) != len(tx.in_scripts):
        return ()
    outs = _two_distinct_outputs(tx)
    if outs is None:
        return ()
    v_a, v_b = tx.out_values
    if v_a == v_b:
        return ()
    v_pay, change = (v_a, outs[1]) if v_a > v_b else (v_b, outs[0])
    if _reused(ctx.reuse, change) or any(_reused(ctx.reuse, s) for s in in_scripts):
        return ()
    if sum(tx.in_values) - min(tx.in_values) >= v_pay:
        return ()
    return (in_scripts | {change},)


def reference_round_output_value(tx, ctx):
    """One unreused input, two distinct outputs, exactly one of them an
    unreused multiple of 10^i, and the other (the change) not a multiple of
    10^(i - j); skipped with no exponent or with i <= j."""
    exponent, offset = ctx.exponent, ctx.config.round_offset
    if exponent is None or exponent <= offset or len(tx.in_scripts) != 1:
        return ()
    outs = _two_distinct_outputs(tx)
    if outs is None:
        return ()
    p_in = tx.in_scripts[0]
    if _reused(ctx.reuse, p_in):
        return ()
    (a, b), (v_a, v_b) = outs, tx.out_values
    bound = max(v_a, v_b).bit_length()
    pay_modulus = 10 ** min(exponent, bound)
    pays_a = not _reused(ctx.reuse, a) and v_a % pay_modulus == 0
    if pays_a == (not _reused(ctx.reuse, b) and v_b % pay_modulus == 0):
        return ()
    change, v_change = (b, v_b) if pays_a else (a, v_a)
    if v_change % 10 ** min(exponent - offset, bound) == 0:
        return ()
    return (frozenset((p_in, change)),)


def reference_one_time_change(tx, ctx):
    """Inputs and outputs disjoint, and exactly one distinct output script
    with a count below two."""
    in_scripts = frozenset(tx.in_scripts)
    out_scripts = set(tx.out_scripts)
    if not in_scripts.isdisjoint(out_scripts):
        return ()
    fresh = [s for s in out_scripts if ctx.reuse.count(s) < 2]
    if len(fresh) != 1:
        return ()
    return (in_scripts | {fresh[0]},)


class _Checkpoints:
    """Emits checkpoint indices as the stream advances past them."""

    def __init__(self, config: RunConfig):
        self.explicit = list(config.checkpoints) if config.checkpoints is not None else None
        self.interval = config.checkpoint_interval
        self._next = self.interval if self.explicit is None and self.interval else None
        self._pos = 0

    def due_before(self, block_index: int) -> Iterable[int]:
        """Checkpoints strictly below the given block index."""
        if self.explicit is not None:
            while self._pos < len(self.explicit) and self.explicit[self._pos] < block_index:
                yield self.explicit[self._pos]
                self._pos += 1
        elif self._next is not None:
            while self._next < block_index:
                yield self._next
                self._next += self.interval

    def remaining(self, last_block: int | None) -> Iterable[int]:
        """Checkpoints to flush once the stream is exhausted.

        Explicit checkpoints are all emitted (the clustering up to a block
        beyond the stream end equals the final clustering). Interval mode
        emits multiples up to the last block, then the last block itself.
        """
        if self.explicit is not None:
            while self._pos < len(self.explicit):
                yield self.explicit[self._pos]
                self._pos += 1
        elif self._next is not None and last_block is not None:
            covered = False
            while self._next <= last_block:
                covered = self._next == last_block
                yield self._next
                self._next += self.interval
            if not covered:
                yield last_block


def reference_checkpoint_rows(checkpoints: int | list[int], block_indices: list[int]) -> list[int]:
    """The report's `block_index` column for a stream whose every block adds a script.

    `checkpoints` is an interval or a list of explicit blocks. A checkpoint due
    before the first block finds no script yet, so it has no row.
    """
    explicit = isinstance(checkpoints, list)
    walk = _Checkpoints(SimpleNamespace(
        checkpoints=checkpoints if explicit else None,
        checkpoint_interval=None if explicit else checkpoints,
    ))
    if not block_indices:
        return []
    rows: list[int] = []
    for n, index in enumerate(block_indices):
        due = list(walk.due_before(index))
        if n:
            rows += due
    return rows + list(walk.remaining(block_indices[-1]))


def reference_parse_blocks(text: str) -> list[int]:
    """Comma-separated block indices; items may be start:end[:step] ranges."""
    blocks: list[int] = []
    for item in text.split(","):
        if not item:
            continue
        pieces = item.split(":")
        unsigned = [piece[1:] if piece.startswith("-") else piece for piece in pieces]
        if not all(part.isascii() and part.isdigit() for part in unsigned):
            raise ConfigError(f"bad --blocks item: {item!r}")  # not `-`, then ASCII digits
        values = [int(piece) for piece in pieces]
        if len(values) == 1:
            blocks.extend(values)
            continue
        if len(values) > 3:
            raise ConfigError(f"bad --blocks range: {item!r}")
        start, end, step = values if len(values) == 3 else (*values, 1)
        if step < 1 or end < start:
            raise ConfigError(f"bad --blocks range: {item!r}")
        blocks.extend(range(start, end + 1, step))
    if not blocks:
        raise ConfigError("--blocks needs at least one index")
    return blocks


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
        ], b.scripts)
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
    if v_in > 2**63 - 1:
        raise ValidationError(
            f"transaction {tx.txid}: inputs {v_in} exceed the 64-bit bound {2**63 - 1}",
            category="value-range",
        )
    return tx


def _reference_decode_side(raw: dict, key: str, table: dict[str, int], txid: str, lineno: int) -> tuple[Txo, ...]:
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
        txos.append(Txo(table.setdefault(script, len(table)), value))
    return tuple(txos)


def reference_iter_blocks(
    source: IO | Iterable[str],
    table: dict[str, int],
) -> Generator[Block, None, int]:
    """Yield validated blocks from a JSONL line source, interning scripts, and
    return the number of coinbase lines dropped.

    Lines must be sorted by block index, coinbase lines too; consecutive lines
    with the same index form one block. Coinbase transactions (empty inputs) are
    dropped before any of their scripts are interned. Each block carries the
    size of the table after its last transaction.
    """
    current_index: int | None = None  # the block being gathered
    last_index = 0  # the block of the line before, coinbase lines too
    current_txs: list[Transaction] = []
    seen = 0
    coinbase_dropped = 0

    def flush() -> Block:
        return Block(current_index, current_txs, seen)

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
        if block_index < last_index:
            raise IngestError(
                f"line {lineno}: transaction {txid}: block {block_index} after "
                f"block {last_index} (stream must be sorted by block)"
            )
        last_index = block_index

        # Coinbase check precedes interning so dropped outputs never get ids.
        raw_inputs = raw.get("inputs")
        if isinstance(raw_inputs, list) and len(raw_inputs) == 0:
            coinbase_dropped += 1
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
        seen = len(table)

    if current_index is not None:
        yield flush()
    return coinbase_dropped


def reference_block_counts(blocks: Iterable[Block]) -> list[int]:
    """Each block's script count, or the DataError that refuses the stream.

    The engine's former scan, run per block as it replayed: the block's index
    must be above the last one's, then each id in stream order must be seen
    (below the high-water count) or the next (equal to it, which raises it).
    """
    counts: list[int] = []
    hw = 0
    prev_block: int | None = None
    for block in blocks:
        if prev_block is not None and block.index <= prev_block:
            raise DataError(f"block {block.index} after block {prev_block}: stream must be sorted")
        for tx in block.transactions:
            for side in (tx.in_scripts, tx.out_scripts):
                for sid in side:
                    if not 0 <= sid < hw:
                        if sid != hw:
                            raise DataError(f"transaction {tx.txid} in block {block.index}: "
                                            f"script id {sid} is neither seen nor the next id {hw}")
                        hw += 1
        counts.append(hw)
        prev_block = block.index
    return counts


def reference_score(labels: list[int], truth: dict[int, int]) -> dict:
    """`score`'s metrics by enumerating every pair of truth scripts, O(n²).

    `labels` gives each script's cluster label. A pair is in one cluster when
    its labels are equal, owned by one user when its truth users are.
    """
    sids = list(truth)
    same_cluster = same_user = agreeing = 0
    for i, a in enumerate(sids):
        for b in sids[i + 1:]:
            clustered = labels[a] == labels[b]
            owned = truth[a] == truth[b]
            same_cluster += clustered
            same_user += owned
            agreeing += clustered and owned
    users: dict[int, set[int]] = {}
    for sid in sids:
        users.setdefault(labels[sid], set()).add(truth[sid])
    return {
        "pairwise_precision": agreeing / same_cluster if same_cluster else 1.0,
        "pairwise_recall": agreeing / same_user if same_user else 1.0,
        "cluster_collapse": sum(len(owners) > 1 for owners in users.values()),
        "pairs": {"same_cluster": same_cluster, "same_user": same_user, "agreeing": agreeing},
        "scripts": len(sids),
    }
