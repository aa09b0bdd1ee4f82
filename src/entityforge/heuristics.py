"""Merge heuristics: pure rules from a transaction to merge groups.

Every rule has one signature, ``rule(tx, ctx) -> tuple[frozenset[int], ...]``:
it inspects one transaction plus the explicit context in ``EvalContext`` (the
reuse index, the block's rounding exponent and the tunable parameters) and
returns the script groups to consolidate, ``()`` when it does not fire. A
registered heuristic is a named tuple of rules whose groups are concatenated
in order. Nothing here mutates state; the engine applies the groups to the
cluster store in stream order.

The engine counts a transaction before its rules read the index: an online
run records it first, and a fixed run counts the whole stream. So every
script of the transaction has a count of at least one, and a count below two
("fresh", "unreused") means the index has seen the script on one side of
this transaction and nowhere else. A rule binds `count = ctx.reuse.count`, a
list lookup with no range check, reads it once per script and compares it with
two; `count == 1` is therefore `count < 2`.

A rule rejects by shape before it allocates or reads the index: it first tests
the raw tuples (the input count, the output count, two distinct output
scripts) and builds a set or calls `count` only for a transaction that
passes. Most transactions are one-input payments with two outputs, which the
multi-input rules refuse on a length test.
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


_NO_MERGE = MergeProposal(())  # the one proposal of every transaction that fires nothing

# The report sidecar names `is_coinjoin` by this text. Equal outputs are a mix's denominations.
COINJOIN_DESCRIPTION = (
    "equal-output detector: n_in >= 2, n_out >= 2, and >= 2 distinct "
    "output scripts carry exactly equal values"
)


def is_coinjoin(tx: Transaction) -> bool:
    """The CoinJoin filter of `cio-cj` and `combined`: true when COINJOIN_DESCRIPTION holds."""
    if len(tx.in_scripts) < 2 or len(set(tx.in_scripts)) < 2:
        return False
    first_script: dict[int, int] = {}  # each output value's first script
    for sid, value in zip(tx.out_scripts, tx.out_values):
        if first_script.setdefault(value, sid) != sid:
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
    if len(tx.in_scripts) < 2:
        return ()
    scripts = frozenset(tx.in_scripts)
    return (scripts,) if len(scripts) >= 2 else ()


def coinjoin_resistant_common_input(tx: Transaction, ctx: EvalContext) -> Groups:
    """Common-input merge, skipped when `is_coinjoin` flags the tx."""
    groups = common_input(tx, ctx)
    return () if groups and is_coinjoin(tx) else groups


def change_address(tx: Transaction, ctx: EvalContext) -> Groups:
    """`shadow_address` on a single-input payment whose input script is unreused.

    Merges the input script with the change: the one fresh output of two.
    """
    if len(tx.in_scripts) != 1 or ctx.reuse.count(tx.in_scripts[0]) >= 2:
        return ()
    return shadow_address(tx, ctx)


def round_output_value(tx: Transaction, ctx: EvalContext) -> Groups:
    """Single-input, two-output payments with one round-valued fresh output.

    The payment output is the unreused one whose value is a multiple of
    10^i (i = the block's rounding exponent); the change is the other
    output, whose value must not be a multiple of 10^(i - j) (fees make
    change non-round). Merges the input script with the change script.
    Skipped for blocks with no price data or with i <= j, where the
    sub-precision test is meaningless.
    """
    if len(tx.in_scripts) != 1 or len(tx.out_scripts) != 2:
        return ()
    exponent = ctx.exponent
    offset = ctx.config.round_offset
    a, b = tx.out_scripts
    if a == b or exponent is None or exponent <= offset:
        return ()
    count = ctx.reuse.count
    p_in = tx.in_scripts[0]
    if count(p_in) >= 2:
        return ()
    v_a, v_b = tx.out_values
    # Both values are below 2^bound <= 10^bound, so for e >= bound a value is a multiple
    # of 10^e, as of 10^bound, only when it is 0: a vast exponent costs no vast power.
    bound = max(v_a, v_b).bit_length()
    pay_modulus = 10 ** min(exponent, bound)
    pays_a = count(a) < 2 and v_a % pay_modulus == 0
    if pays_a == (count(b) < 2 and v_b % pay_modulus == 0):
        return ()  # no payment candidate, or two
    change, v_change = (b, v_b) if pays_a else (a, v_a)
    if v_change % 10 ** min(exponent - offset, bound) == 0:
        return ()
    return (frozenset((p_in, change)),)


def force_merge_of_inputs(tx: Transaction, ctx: EvalContext) -> Groups:
    """Multi-input payments whose input set is minimal for the payment.

    All input scripts must be distinct and unreused, the two outputs must
    have distinct scripts and distinct values (higher = payment, lower =
    change), the change script must be unreused, and dropping the smallest
    input must not cover the payment: v_in - min_input < v_max. Merges all
    input scripts with the change script.
    """
    if len(tx.in_scripts) < 2 or len(tx.out_scripts) != 2:
        return ()
    a, b = tx.out_scripts
    v_a, v_b = tx.out_values
    if a == b or v_a == v_b:
        return ()  # no two outputs, or no strict higher-value payment output
    in_scripts = frozenset(tx.in_scripts)
    if len(in_scripts) != len(tx.in_scripts):
        return ()  # an input script repeats
    v_pay, change = (v_a, b) if v_a > v_b else (v_b, a)
    if sum(tx.in_values) - min(tx.in_values) >= v_pay:
        return ()  # some input was unnecessary
    count = ctx.reuse.count
    if count(change) >= 2 or any(count(s) >= 2 for s in in_scripts):
        return ()
    return (in_scripts | {change},)


def service_deposit(tx: Transaction, ctx: EvalContext) -> Groups:
    """Consolidation sweeps: many distinct input scripts, one output script."""
    min_inputs = ctx.config.min_deposit_inputs
    if len(tx.in_scripts) < min_inputs or len(set(tx.out_scripts)) != 1:
        return ()
    scripts = frozenset(tx.in_scripts)
    return (scripts,) if len(scripts) >= min_inputs else ()


def shadow_address(tx: Transaction, ctx: EvalContext) -> Groups:
    """Two-output txs where exactly one output script is brand new.

    "Used before" means an occurrence count of at least two: the script's
    appearance in this very transaction plus any other. Merges all input
    scripts with the fresh output script.
    """
    if len(tx.out_scripts) != 2:
        return ()
    a, b = tx.out_scripts
    count = ctx.reuse.count
    a_fresh = count(a) < 2
    if a_fresh == (count(b) < 2):
        return ()  # both outputs fresh, or neither (as when they are one script)
    return (frozenset((*tx.in_scripts, a if a_fresh else b)),)


def one_time_change(tx: Transaction, ctx: EvalContext) -> Groups:
    """No-self-change txs with exactly one never-seen output script.

    Output count is unconstrained. Merges all input scripts with the single
    fresh output script. Over the fixed index of the whole dataset, as
    `reuse-change` runs it, a fresh script is one that never occurs again.
    """
    count = ctx.reuse.count
    fresh = -1  # script ids are non-negative
    for sid in tx.out_scripts:
        if sid != fresh and count(sid) < 2:
            if fresh >= 0:
                return ()  # a second fresh output script
            fresh = sid
    if fresh < 0:
        return ()
    in_scripts = frozenset(tx.in_scripts)
    if not in_scripts.isdisjoint(tx.out_scripts):
        return ()  # self-change
    return (in_scripts | {fresh},)


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
        return MergeProposal(groups) if groups else _NO_MERGE

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
        _heuristic("reuse-change", (one_time_change,), "full"),
        _heuristic(
            "combined",
            (coinjoin_resistant_common_input, change_address, round_output_value,
             force_merge_of_inputs),
            "fixed",
        ),
    )
}
