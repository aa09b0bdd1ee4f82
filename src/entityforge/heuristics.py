"""Merge heuristics: pure rules from a transaction to merge groups.

Every rule has one signature, ``rule(tx, ctx) -> tuple[frozenset[int], ...]``:
it inspects one transaction plus the explicit context in ``EvalContext`` (the
reuse index, the block's rounding exponent and the tunable parameters) and
returns the script groups to consolidate, ``()`` when it does not fire. A
registered heuristic is a named tuple of rules whose groups are concatenated
in order. Nothing here mutates state; the engine applies the groups to the
cluster store in stream order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, NamedTuple

from .chain import Transaction
from .errors import ConfigError
from .reuse import ReuseIndex

Groups = tuple[frozenset[int], ...]


class MergeProposal(NamedTuple):
    groups: Groups


def _input_scripts(tx: Transaction) -> set[int]:
    return {t.script for t in tx.inputs}


def _output_scripts(tx: Transaction) -> set[int]:
    return {t.script for t in tx.outputs}


# The report sidecar names `is_coinjoin` by this text. Equal outputs are a mix's denominations.
COINJOIN_DESCRIPTION = (
    "equal-output detector: n_in >= 2, n_out >= 2, and >= 2 distinct "
    "output scripts carry exactly equal values"
)


def is_coinjoin(tx: Transaction) -> bool:
    """The CoinJoin filter of `cio-cj` and `combined`: true when COINJOIN_DESCRIPTION holds."""
    if len(_input_scripts(tx)) < 2:
        return False
    if len(_output_scripts(tx)) < 2:
        return False
    by_value: dict[int, set[int]] = {}
    for txo in tx.outputs:
        scripts = by_value.setdefault(txo.value, set())
        scripts.add(txo.script)
        if len(scripts) >= 2:
            return True
    return False


@dataclass(frozen=True)
class HeuristicConfig:
    """Tunable parameters; defaults follow the reference experiment setup."""

    min_deposit_inputs: int = 25  # a: input-script threshold for deposit sweeps
    small_amount: Decimal = Decimal(1)  # x: "small" dollar amount
    round_offset: int = 1  # j: sub-precision offset for the change output

    def __post_init__(self):
        if self.min_deposit_inputs < 2:
            raise ConfigError("min_deposit_inputs must be >= 2")
        if self.small_amount <= 0:
            raise ConfigError("small_amount must be positive")
        if self.round_offset < 0:
            raise ConfigError("round_offset must be >= 0")


@dataclass
class EvalContext:
    """Everything a rule may consult besides the transaction itself."""

    config: HeuristicConfig = field(default_factory=HeuristicConfig)
    reuse: ReuseIndex | None = None
    exponent: int | None = None  # rounding exponent for the tx's block


def common_input(tx: Transaction, ctx: EvalContext) -> Groups:
    """Merge all input scripts of any transaction with >= 2 of them."""
    scripts = _input_scripts(tx)
    return (frozenset(scripts),) if len(scripts) >= 2 else ()


def coinjoin_resistant_common_input(tx: Transaction, ctx: EvalContext) -> Groups:
    """Common-input merge, skipped when `is_coinjoin` flags the tx."""
    scripts = _input_scripts(tx)
    return (frozenset(scripts),) if len(scripts) >= 2 and not is_coinjoin(tx) else ()


def _two_distinct_outputs(tx: Transaction) -> tuple[int, int] | None:
    """Output scripts when the tx has exactly two TXOs with distinct scripts."""
    if len(tx.outputs) != 2:
        return None
    a, b = tx.outputs[0].script, tx.outputs[1].script
    if a == b:
        return None
    return a, b


def change_address(tx: Transaction, ctx: EvalContext) -> Groups:
    """Single-input, two-output payments where exactly one output is fresh.

    Fires when the input script is unreused, exactly one output script is
    unreused (the change), and the other output script is reused (the
    payment); merges the input script with the change script.
    """
    if len(tx.inputs) != 1:
        return ()
    p_in = tx.inputs[0].script
    outs = _two_distinct_outputs(tx)
    if outs is None:
        return ()
    idx = ctx.reuse
    if idx.reused(p_in):
        return ()
    fresh = [s for s in outs if not idx.reused(s)]
    if len(fresh) != 1:
        return ()
    p_change = fresh[0]
    p_pay = outs[0] if outs[1] == p_change else outs[1]
    if not idx.reused(p_pay):
        return ()
    return (frozenset((p_in, p_change)),)


def round_output_value(tx: Transaction, ctx: EvalContext) -> Groups:
    """Single-input, two-output payments with one round-valued fresh output.

    The payment output is the unreused one whose value is a multiple of
    10^i (i = the block's rounding exponent); the change is the other
    output, whose value must not be a multiple of 10^(i - j) (fees make
    change non-round). Merges the input script with the change script.
    Skipped for blocks with no price data or with i <= j, where the
    sub-precision test is meaningless.
    """
    exponent = ctx.exponent
    offset = ctx.config.round_offset
    if exponent is None or exponent <= offset or len(tx.inputs) != 1:
        return ()
    if _two_distinct_outputs(tx) is None:
        return ()
    idx = ctx.reuse
    p_in = tx.inputs[0].script
    if idx.reused(p_in):
        return ()
    pay_modulus = 10**exponent
    candidates = [
        txo for txo in tx.outputs
        if not idx.reused(txo.script) and txo.value % pay_modulus == 0
    ]
    if len(candidates) != 1:
        return ()
    other = tx.outputs[0] if tx.outputs[1] is candidates[0] else tx.outputs[1]
    if other.value % 10 ** (exponent - offset) == 0:
        return ()
    return (frozenset((p_in, other.script)),)


def force_merge_of_inputs(tx: Transaction, ctx: EvalContext) -> Groups:
    """Multi-input payments whose input set is minimal for the payment.

    All input scripts must be distinct and unreused, the two outputs must
    have distinct values (higher = payment, lower = change), the change
    script must be unreused, and dropping the smallest input must not cover
    the payment: v_in - min_input < v_max. Merges all input scripts with the
    change script.
    """
    in_scripts = _input_scripts(tx)
    if len(tx.inputs) < 2 or len(in_scripts) != len(tx.inputs):
        return ()
    if _two_distinct_outputs(tx) is None:
        return ()
    out_a, out_b = tx.outputs
    if out_a.value == out_b.value:
        return ()  # no strict higher-value payment output
    pay, change = (out_a, out_b) if out_a.value > out_b.value else (out_b, out_a)
    idx = ctx.reuse
    if any(idx.reused(s) for s in in_scripts):
        return ()
    if idx.reused(change.script):
        return ()
    v_in = sum(t.value for t in tx.inputs)
    if v_in - min(t.value for t in tx.inputs) >= pay.value:
        return ()  # some input was unnecessary
    return (frozenset(in_scripts | {change.script}),)


def service_deposit(tx: Transaction, ctx: EvalContext) -> Groups:
    """Consolidation sweeps: many distinct input scripts, one output script."""
    scripts = _input_scripts(tx)
    if len(scripts) >= ctx.config.min_deposit_inputs and len(_output_scripts(tx)) == 1:
        return (frozenset(scripts),)
    return ()


def shadow_address(tx: Transaction, ctx: EvalContext) -> Groups:
    """Two-output txs where exactly one output script is brand new.

    "Used before" means an occurrence count of at least two: the script's
    appearance in this very transaction plus any other. Merges all input
    scripts with the fresh output script.
    """
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
    return (frozenset(_input_scripts(tx) | {fresh[0]}),)


def one_time_change(tx: Transaction, ctx: EvalContext) -> Groups:
    """No-self-change txs with exactly one never-seen output script.

    Output count is unconstrained. Merges all input scripts with the single
    fresh output script.
    """
    in_scripts = _input_scripts(tx)
    out_scripts = _output_scripts(tx)
    if in_scripts & out_scripts:
        return ()
    idx = ctx.reuse
    fresh = [s for s in out_scripts if idx.count(s) < 2]
    if len(fresh) != 1:
        return ()
    return (frozenset(in_scripts | {fresh[0]}),)


def reuse_based_change(tx: Transaction, ctx: EvalContext) -> Groups:
    """Like one_time_change, but the candidate must stay single-use forever.

    Requires a fixed-horizon index over the whole dataset: the candidate
    output script's total occurrence count must be exactly one (never used
    before this transaction, never used after).
    """
    in_scripts = _input_scripts(tx)
    out_scripts = _output_scripts(tx)
    if in_scripts & out_scripts:
        return ()
    idx = ctx.reuse
    single_use = [s for s in out_scripts if idx.count(s) == 1]
    if len(single_use) != 1:
        return ()
    return (frozenset(in_scripts | {single_use[0]}),)


Rule = Callable[[Transaction, EvalContext], Groups]


@dataclass(frozen=True)
class HeuristicSpec:
    """Registry entry: a heuristic's rules and the context the engine wires.

    `horizon` is the reuse index the rules read: None (no index), "online"
    or "fixed" (the default, overridable per run), or "full" (fixed over
    the whole dataset, never online).
    """

    name: str
    evaluate: Callable[[Transaction, EvalContext], MergeProposal]
    rules: tuple[Rule, ...]
    horizon: str | None = None

    @property
    def needs_prices(self) -> bool:
        return round_output_value in self.rules


def _heuristic(name: str, rules: tuple[Rule, ...], horizon: str | None = None) -> HeuristicSpec:
    """A heuristic whose proposal concatenates its rules' groups in order.

    Overlapping groups unify through the cluster store's transitive closure.
    """

    def evaluate(tx: Transaction, ctx: EvalContext) -> MergeProposal:
        groups: Groups = ()
        for rule in rules:
            groups += rule(tx, ctx)
        return MergeProposal(groups)

    return HeuristicSpec(name, evaluate, rules, horizon)


HEURISTICS: dict[str, HeuristicSpec] = {
    spec.name: spec
    for spec in (
        _heuristic("cio", (common_input,)),
        _heuristic("cio-cj", (coinjoin_resistant_common_input,)),
        _heuristic("change", (change_address,), "fixed"),
        _heuristic("round", (round_output_value,), "fixed"),
        _heuristic("force-merge", (force_merge_of_inputs,), "fixed"),
        _heuristic("deposit", (service_deposit,)),
        _heuristic("shadow", (shadow_address,), "online"),
        _heuristic("one-time-change", (one_time_change,), "online"),
        _heuristic("reuse-change", (reuse_based_change,), "full"),
        _heuristic(
            "combined",
            (coinjoin_resistant_common_input, change_address, round_output_value,
             force_merge_of_inputs),
            "fixed",
        ),
    )
}
