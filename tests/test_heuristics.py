"""Condition-level coverage for every merge heuristic.

Each heuristic gets a firing case plus one non-firing case per condition, so
inverting any single condition check breaks at least one test here.
"""

from itertools import product
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entityforge.chain import Transaction
from entityforge.errors import ConfigError
from entityforge.heuristics import (
    HEURISTICS,
    EvalContext,
    HeuristicConfig,
    change_address,
    coinjoin_resistant_common_input,
    common_input,
    force_merge_of_inputs,
    is_coinjoin,
    one_time_change,
    round_output_value,
    service_deposit,
    shadow_address,
)
from entityforge.reuse import ReuseIndex
from conftest import counts, tx
from oracles import (
    reference_change_address,
    reference_coinjoin_resistant_common_input,
    reference_common_input,
    reference_force_merge_of_inputs,
    reference_is_coinjoin,
    reference_one_time_change,
    reference_reuse_based_change,
    reference_round_output_value,
    reference_service_deposit,
    reference_shadow_address,
)

A, B, C, D, E, X, Y, Z = range(8)

FRESH_ALL = counts({})


def ctx(reuse=FRESH_ALL, exponent=4, **params):
    """Evaluation context; the default round check is i=4 with offset j=1."""
    return EvalContext(HeuristicConfig(**params), reuse, exponent)


class TestCommonInput:
    def test_fires_on_two_input_scripts(self):
        assert common_input(tx([(A, 5), (B, 3)], [(C, 7)]), ctx()) == (frozenset({A, B}),)

    def test_fires_on_three_input_scripts(self):
        t = tx([(A, 5), (B, 3), (C, 2)], [(D, 9)])
        assert common_input(t, ctx()) == (frozenset({A, B, C}),)

    def test_single_script_two_txos_does_not_fire(self):
        assert common_input(tx([(A, 5), (A, 3)], [(B, 7)]), ctx()) == ()

    def test_single_input_does_not_fire(self):
        assert common_input(tx([(A, 5)], [(B, 4)]), ctx()) == ()


class TestCoinJoinPredicate:
    def test_equal_valued_distinct_outputs_flagged(self):
        assert is_coinjoin(tx([(A, 6), (B, 6)], [(C, 5), (D, 5), (E, 1)]))

    def test_distinct_values_not_flagged(self):
        assert not is_coinjoin(tx([(A, 6), (B, 6)], [(C, 5), (D, 3)]))

    def test_needs_two_input_scripts(self):
        assert not is_coinjoin(tx([(A, 12)], [(C, 5), (D, 5)]))

    def test_needs_two_output_scripts(self):
        assert not is_coinjoin(tx([(A, 6), (B, 6)], [(C, 5), (C, 5)]))

    def test_deterministic(self):
        t = tx([(A, 6), (B, 6)], [(C, 5), (D, 5)])
        assert is_coinjoin(t) == is_coinjoin(t)


class TestCoinJoinResistant:
    def test_fires_when_predicate_passes(self):
        t = tx([(A, 5), (B, 4)], [(C, 5), (D, 3)])
        assert coinjoin_resistant_common_input(t, ctx()) == (frozenset({A, B}),)

    def test_flagged_transaction_skipped(self):
        t = tx([(A, 7), (B, 7)], [(C, 5), (D, 5), (E, 3)])
        assert coinjoin_resistant_common_input(t, ctx()) == ()

    def test_single_input_never_fires(self):
        assert coinjoin_resistant_common_input(tx([(A, 9)], [(C, 4), (D, 4)]), ctx()) == ()


class TestChangeAddress:
    def base_tx(self):
        # input X (count 1), outputs Y fresh (count 1), Z reused (count 5)
        return tx([(X, 10)], [(Y, 4), (Z, 5)])

    def base_counts(self):
        return counts({X: 1, Y: 1, Z: 5})

    def test_fires_when_all_conditions_hold(self):
        assert change_address(self.base_tx(), ctx(self.base_counts())) == (frozenset({X, Y}),)

    def test_a_two_input_txos_do_not_fire(self):
        t = tx([(X, 5), (X, 5)], [(Y, 4), (Z, 5)])
        assert change_address(t, ctx(self.base_counts())) == ()

    def test_b_three_outputs_do_not_fire(self):
        t = tx([(X, 10)], [(Y, 3), (Z, 3), (D, 2)])
        assert change_address(t, ctx(counts({X: 1, Y: 1, Z: 5, D: 5}))) == ()

    def test_b_duplicate_output_script_does_not_fire(self):
        t = tx([(X, 10)], [(Y, 4), (Y, 5)])
        assert change_address(t, ctx(self.base_counts())) == ()

    def test_c_reused_input_does_not_fire(self):
        assert change_address(self.base_tx(), ctx(counts({X: 3, Y: 1, Z: 5}))) == ()

    def test_d_both_outputs_fresh_does_not_fire(self):
        assert change_address(self.base_tx(), ctx(counts({X: 1, Y: 1, Z: 1}))) == ()

    def test_both_outputs_reused_does_not_fire(self):
        assert change_address(self.base_tx(), ctx(counts({X: 1, Y: 2, Z: 5}))) == ()


class TestRoundOutputValue:
    # i=4, j=1: pay multiple of 10^4, change not multiple of 10^3
    def base_tx(self):
        return tx([(X, 300000)], [(B, 150000), (C, 123457)])

    def test_fires_and_merges_change_side(self):
        assert round_output_value(self.base_tx(), ctx()) == (frozenset({X, C}),)

    def test_a_two_inputs_do_not_fire(self):
        t = tx([(X, 200000), (A, 100000)], [(B, 150000), (C, 123457)])
        assert round_output_value(t, ctx()) == ()

    def test_b_three_outputs_do_not_fire(self):
        t = tx([(X, 400000)], [(B, 150000), (C, 123457), (D, 50000)])
        assert round_output_value(t, ctx()) == ()

    def test_c_reused_input_does_not_fire(self):
        assert round_output_value(self.base_tx(), ctx(counts({X: 2}))) == ()

    def test_d_reused_round_output_does_not_fire(self):
        assert round_output_value(self.base_tx(), ctx(counts({B: 3}))) == ()

    def test_d_two_round_fresh_outputs_do_not_fire(self):
        t = tx([(X, 300000)], [(B, 150000), (C, 120000)])
        assert round_output_value(t, ctx()) == ()

    def test_d_no_round_output_does_not_fire(self):
        t = tx([(X, 300000)], [(B, 150001), (C, 123457)])
        assert round_output_value(t, ctx()) == ()

    def test_e_change_round_at_coarser_precision_does_not_fire(self):
        t = tx([(X, 300000)], [(B, 150000), (C, 123000)])
        assert round_output_value(t, ctx()) == ()

    def test_offset_not_below_exponent_skipped(self):
        assert round_output_value(self.base_tx(), ctx(exponent=1)) == ()
        assert round_output_value(self.base_tx(), ctx(round_offset=4)) == ()
        assert round_output_value(self.base_tx(), ctx(exponent=2)) == (frozenset({X, C}),)

    def test_no_price_data_skipped(self):
        assert round_output_value(self.base_tx(), ctx(exponent=None)) == ()

    def test_exponent_beyond_every_value(self):
        """Only a 0 output is a multiple of 10^i then; a vast i costs no vast power."""
        t = tx([(X, 300000)], [(B, 0), (C, 123457)])
        for exponent in (60, 10**9):
            assert round_output_value(t, ctx(exponent=exponent)) == (frozenset({X, C}),)
            assert round_output_value(self.base_tx(), ctx(exponent=exponent)) == ()


class TestForceMergeOfInputs:
    def base_tx(self):
        # v_in=9, min=4, 9-4=5 < 8 = v_max
        return tx([(A, 5), (B, 4)], [(C, 8), (D, 1)])

    def test_fires_and_includes_change(self):
        assert force_merge_of_inputs(self.base_tx(), ctx()) == (frozenset({A, B, D}),)

    def test_a_single_input_does_not_fire(self):
        assert force_merge_of_inputs(tx([(A, 9)], [(C, 8), (D, 1)]), ctx()) == ()

    def test_a_duplicate_input_script_does_not_fire(self):
        t = tx([(A, 5), (A, 4)], [(C, 8), (D, 1)])
        assert force_merge_of_inputs(t, ctx()) == ()

    def test_b_three_outputs_do_not_fire(self):
        t = tx([(A, 5), (B, 4)], [(C, 6), (D, 1), (E, 1)])
        assert force_merge_of_inputs(t, ctx()) == ()

    def test_b_equal_output_values_do_not_fire(self):
        t = tx([(A, 5), (B, 4)], [(C, 4), (D, 4)])
        assert force_merge_of_inputs(t, ctx()) == ()

    def test_c_reused_input_does_not_fire(self):
        assert force_merge_of_inputs(self.base_tx(), ctx(counts({A: 2}))) == ()

    def test_d_reused_change_does_not_fire(self):
        assert force_merge_of_inputs(self.base_tx(), ctx(counts({D: 2}))) == ()

    def test_e_redundant_input_does_not_fire(self):
        # 9 - 4 = 5 >= 4: B alone would have covered the payment
        t = tx([(A, 5), (B, 4)], [(C, 4), (D, 1)])
        assert force_merge_of_inputs(t, ctx()) == ()

    def test_reused_payment_output_is_allowed(self):
        assert force_merge_of_inputs(self.base_tx(), ctx(counts({C: 7}))) == (frozenset({A, B, D}),)


class TestServiceDeposit:
    A3 = ctx(min_deposit_inputs=3)

    def test_fires_at_threshold(self):
        t = tx([(A, 3), (B, 3), (C, 3)], [(D, 8)])
        assert service_deposit(t, self.A3) == (frozenset({A, B, C}),)

    def test_a_below_threshold_does_not_fire(self):
        assert service_deposit(tx([(A, 3), (B, 3)], [(D, 5)]), self.A3) == ()

    def test_b_two_output_scripts_do_not_fire(self):
        t = tx([(A, 3), (B, 3), (C, 3)], [(D, 5), (E, 3)])
        assert service_deposit(t, self.A3) == ()

    def test_duplicate_output_txos_of_one_script_fire(self):
        t = tx([(A, 3), (B, 3), (C, 3)], [(D, 5), (D, 3)])
        assert service_deposit(t, self.A3) == (frozenset({A, B, C}),)

    def test_threshold_below_two_rejected(self):
        with pytest.raises(ConfigError):
            HeuristicConfig(min_deposit_inputs=1)


class TestShadowAddress:
    def base_counts(self):
        return counts({Y: 1, Z: 2})

    def test_fires_with_multiple_inputs(self):
        t = tx([(A, 5), (B, 5)], [(Y, 6), (Z, 3)])
        assert shadow_address(t, ctx(self.base_counts())) == (frozenset({A, B, Y}),)

    def test_both_outputs_fresh_does_not_fire(self):
        t = tx([(A, 5), (B, 5)], [(Y, 6), (Z, 3)])
        assert shadow_address(t, ctx(counts({Y: 1, Z: 1}))) == ()

    def test_both_outputs_used_does_not_fire(self):
        t = tx([(A, 5), (B, 5)], [(Y, 6), (Z, 3)])
        assert shadow_address(t, ctx(counts({Y: 2, Z: 2}))) == ()

    def test_a_three_outputs_do_not_fire(self):
        t = tx([(A, 9)], [(Y, 3), (Z, 3), (D, 2)])
        assert shadow_address(t, ctx(counts({Y: 1, Z: 2, D: 2}))) == ()


class TestOneTimeChange:
    def test_fires_with_many_outputs(self):
        t = tx([(A, 10)], [(B, 4), (C, 3), (D, 2)])
        assert one_time_change(t, ctx(counts({B: 1, C: 2, D: 3}))) == (frozenset({A, B}),)

    def test_a_self_change_does_not_fire(self):
        t = tx([(A, 10)], [(A, 5), (B, 4)])
        assert one_time_change(t, ctx(counts({A: 2, B: 1}))) == ()

    def test_b_two_fresh_outputs_do_not_fire(self):
        t = tx([(A, 10)], [(B, 5), (C, 4)])
        assert one_time_change(t, ctx(counts({B: 1, C: 1}))) == ()

    def test_b_no_fresh_output_does_not_fire(self):
        t = tx([(A, 10)], [(B, 5), (C, 4)])
        assert one_time_change(t, ctx(counts({B: 2, C: 2}))) == ()


def reuse_change(t, context):
    return HEURISTICS["reuse-change"].evaluate(t, context).groups


class TestReuseBasedChange:
    """`one_time_change` over the index of the whole dataset."""

    def test_runs_one_time_change_at_the_full_horizon(self):
        spec = HEURISTICS["reuse-change"]
        assert (spec.rules, spec.horizon) == ((one_time_change,), "full")

    def test_fires_on_dataset_unique_output(self):
        t = tx([(A, 10)], [(B, 4), (C, 5)])
        assert reuse_change(t, ctx(counts({B: 1, C: 2}))) == (frozenset({A, B}),)

    def test_candidate_spent_later_does_not_fire(self):
        t = tx([(A, 10)], [(B, 4), (C, 5)])
        assert reuse_change(t, ctx(counts({B: 2, C: 2}))) == ()

    def test_two_unique_outputs_do_not_fire(self):
        t = tx([(A, 10)], [(B, 4), (C, 5)])
        assert reuse_change(t, ctx(counts({B: 1, C: 1}))) == ()

    def test_a_self_change_does_not_fire(self):
        t = tx([(A, 10)], [(A, 4), (B, 5)])
        assert reuse_change(t, ctx(counts({A: 2, B: 1}))) == ()


def combined(t, context):
    return HEURISTICS["combined"].evaluate(t, context).groups


class TestCombined:
    def test_only_common_input_firing(self):
        t = tx([(A, 5), (B, 4)], [(C, 9)])
        assert combined(t, ctx()) == coinjoin_resistant_common_input(t, ctx())

    def test_nothing_firing(self):
        t = tx([(A, 9)], [(B, 4), (C, 4)])  # single input, both outputs fresh
        assert combined(t, ctx()) == ()

    def test_overlapping_groups_all_emitted(self):
        # two inputs fire cio-cj; minimal-input condition fires force-merge
        t = tx([(A, 5), (B, 4)], [(C, 8), (D, 1)])
        groups = combined(t, ctx())
        assert frozenset({A, B}) in groups
        assert frozenset({A, B, D}) in groups

    def test_no_exponent_skips_round_check(self):
        t = tx([(X, 300000)], [(B, 150000), (C, 123457)])
        assert combined(t, ctx(exponent=None)) == ()
        assert combined(t, ctx(exponent=4)) != ()

    def test_small_exponent_skips_round_check(self):
        # exponent <= offset would make the sub-precision test degenerate
        t = tx([(X, 300000)], [(B, 150000), (C, 123457)])
        assert combined(t, ctx(exponent=1)) == ()

    def test_needs_prices_through_its_round_member(self):
        assert HEURISTICS["combined"].needs_prices and HEURISTICS["round"].needs_prices
        assert not any(HEURISTICS[n].needs_prices for n in ("cio-cj", "change", "force-merge"))

    def test_groups_are_its_members_groups_in_order(self):
        rng = Random(36)
        members = [HEURISTICS[n] for n in ("cio-cj", "change", "round", "force-merge")]
        fired, overlaps = set(), 0
        for _ in range(1000):
            t = _random_tx(rng)
            context = ctx(
                counts({i: rng.randrange(0, 3) for i in range(10)}),
                exponent=rng.choice([None, 1, 2]),
                round_offset=rng.choice([0, 1]),
            )
            parts = [spec.evaluate(t, context).groups for spec in members]
            assert combined(t, context) == tuple(g for part in parts for g in part)
            fired |= {spec.name for spec, part in zip(members, parts) if part}
            overlaps += sum(map(bool, parts)) > 1
        assert fired == {spec.name for spec in members}
        assert overlaps > 10


def _random_tx(rng):
    n_in = rng.randrange(1, 5)
    n_out = rng.randrange(1, 5)
    ins = [(rng.randrange(10), rng.randrange(1, 100)) for _ in range(n_in)]
    v_in = sum(v for _, v in ins)
    outs = []
    remaining = v_in - rng.randrange(0, min(5, v_in))
    for k in range(n_out):
        if remaining <= 0:
            break
        v = remaining if k == n_out - 1 else rng.randrange(1, remaining + 1)
        outs.append((rng.randrange(10), v))
        remaining -= v
    if not outs:
        outs = [(rng.randrange(10), 0)]
    return tx(ins, outs)


class TestInvariants:
    def test_groups_subset_of_transaction_scripts(self):
        rng = Random(31)
        idx = counts({i: rng.randrange(0, 4) for i in range(10)})
        context = ctx(idx)
        for _ in range(300):
            t = _random_tx(rng)
            scripts = set(t.in_scripts) | set(t.out_scripts)
            for spec in HEURISTICS.values():
                for group in spec.evaluate(t, context).groups:
                    assert group, "empty group emitted"
                    assert group <= scripts

    def test_refinement_group_subsets(self):
        rng = Random(32)
        for _ in range(300):
            t = _random_tx(rng)
            h1 = common_input(t, ctx())
            h2 = coinjoin_resistant_common_input(t, ctx())
            h6 = service_deposit(t, ctx(min_deposit_inputs=2))
            assert set(h2) <= set(h1)
            assert set(h6) <= set(h1)

    def test_two_output_shape_gate(self):
        rng = Random(33)
        idx = FRESH_ALL
        for _ in range(300):
            t = _random_tx(rng)
            n_out = len(set(t.out_scripts))
            if len(t.out_scripts) != 2 or n_out != 2:
                assert change_address(t, ctx(idx)) == ()
                assert round_output_value(t, ctx(idx)) == ()
            if n_out != 1:
                assert service_deposit(t, ctx(min_deposit_inputs=2)) == ()

    def test_purity(self):
        rng = Random(34)
        idx = counts({i: rng.randrange(0, 3) for i in range(10)})
        for _ in range(50):
            t = _random_tx(rng)
            assert change_address(t, ctx(idx)) == change_address(t, ctx(idx))
            assert common_input(t, ctx()) == common_input(t, ctx())

    def test_force_merge_condition_e_negation(self):
        # strengthen any qualifying tx so one input becomes redundant
        rng = Random(35)
        found = 0
        for _ in range(500):
            ins = [(i, rng.randrange(2, 20)) for i in rng.sample(range(6), rng.randrange(2, 4))]
            v_in = sum(v for _, v in ins)
            pay = rng.randrange(1, v_in)
            change = v_in - pay
            if pay == change or change == 0:
                continue
            t = tx(ins, [(6, pay), (7, change)])
            if force_merge_of_inputs(t, ctx()) == ():
                continue
            found += 1
            v_max = max(pay, change)
            padded = ins + [(8, v_max)]  # a redundant input breaks minimality
            t2 = tx(padded, [(6, pay), (7, change)])
            assert force_merge_of_inputs(t2, ctx()) == ()
        assert found > 10


def txos(low, high, sizes):
    """TXOs over scripts low..high; inputs and outputs share some scripts."""
    value = st.sampled_from([0, 1, 7, 10, 100, 12345, 20000, 150000])
    txo = st.tuples(st.integers(low, high), value)
    return st.sampled_from(sizes).flatmap(lambda n: st.lists(txo, min_size=n, max_size=n))


# Each heuristic's rules as the package stated them before `change` became
# `shadow` behind a guard, `reuse-change` became `one-time-change`'s rule and
# every rule came to test the transaction's shape before building a set.
REFERENCES = {
    "cio": (reference_common_input,),
    "cio-cj": (reference_coinjoin_resistant_common_input,),
    "change": (reference_change_address,),
    "round": (reference_round_output_value,),
    "force-merge": (reference_force_merge_of_inputs,),
    "deposit": (reference_service_deposit,),
    "shadow": (reference_shadow_address,),
    "one-time-change": (reference_one_time_change,),
    "reuse-change": (reference_reuse_based_change,),
    "combined": (reference_coinjoin_resistant_common_input, reference_change_address,
                 reference_round_output_value, reference_force_merge_of_inputs),
}


def _scope_values(n_in, n_out):
    """(input values, output values) for sides of `n_in` and `n_out` TXOs: each value
    test that applies to the shape is crossed, at the exponent 3 and the offset 1.

    Only two-output rules read values. One input: output values round at 10^3 and not
    at 10^2 either way round, round only at 10^2, both round, neither, and equal. Two or
    three inputs: equal outputs, and each unequal pair with the inputs less their least
    at v_pay - 1, v_pay (the least input first, then last) and v_pay + 1."""
    if n_out != 2:
        return [((5000,) * n_in, (3000, 1234, 3000)[:n_out])]  # three outputs: one equal pair
    unequal = [(3000, 1234), (1234, 3000)]
    if n_in == 1:
        return [((5000,), outs) for outs in
                unequal + [(3000, 1200), (1200, 3000), (3000, 2000), (1234, 1201), (3000, 3000)]]
    vectors = [((2500,) * n_in, (3000, 3000))]
    middle = tuple(range(2, n_in))  # the inputs between the least, 1, and the last
    for outs in unequal:
        v_pay = max(outs)
        for total, least_first in ((v_pay - 1, True), (v_pay, True), (v_pay, False),
                                   (v_pay + 1, True)):
            rest = (*middle, total - sum(middle))
            vectors.append(((1, *rest) if least_first else (*rest, 1), outs))
    return vectors


class TestReferenceRules:
    @settings(max_examples=500, deadline=None)
    @given(ins=txos(0, 4, [1, 1, 2, 3, 5]), outs=txos(2, 6, [2, 2, 1, 3]),
           prior=st.lists(st.sampled_from([0, 0, 1, 2]), min_size=7, max_size=7),
           exponent=st.sampled_from([None, 0, 1, 2, 3, 4, 5]), offset=st.integers(0, 2),
           min_inputs=st.integers(2, 5))
    # Each pins one precondition: two input scripts (a common-input merge), a
    # repeated input script on an otherwise minimal payment (no force-merge), and one
    # script on both outputs, one of them round (no round-value merge).
    @example(ins=[(0, 7), (1, 1)], outs=[(5, 100), (6, 0)], prior=[0] * 7, exponent=None,
             offset=1, min_inputs=2)
    @example(ins=[(0, 7), (0, 1)], outs=[(5, 100), (6, 0)], prior=[0] * 7, exponent=None,
             offset=1, min_inputs=2)
    @example(ins=[(0, 7)], outs=[(2, 0), (2, 1)], prior=[0] * 7, exponent=1, offset=0,
             min_inputs=2)
    def test_every_rule_equals_its_reference(self, ins, outs, prior, exponent, offset, min_inputs):
        """The transaction is counted into the index first, as the engine counts it.

        Input sides of up to five TXOs over five scripts fall on both sides of every
        `min_deposit_inputs` drawn."""
        t = tx(ins, outs)
        idx = counts(dict(enumerate(prior)))
        idx.record(t)
        context = ctx(idx, exponent, round_offset=offset, min_deposit_inputs=min_inputs)
        assert is_coinjoin(t) == reference_is_coinjoin(t)
        for name, spec in HEURISTICS.items():
            rules = REFERENCES[name]
            expected = tuple(group for rule in rules for group in rule(t, context))
            assert spec.evaluate(t, context).groups == expected, name

    def test_every_rule_equals_its_reference_in_the_small_scope(self):
        """Every transaction of a small scope, against the references.

        Input and output sides of 1-3 TXOs over 4 scripts, each script of the transaction
        counted 1 or 2 (it is counted before a rule reads it) in every combination, and the
        value vectors of `_scope_values`. Each is evaluated at the exponent 3 above the
        offset 1 with `min_deposit_inputs` 2; its first value vector also at the exponent 1,
        at the offset, with `min_deposit_inputs` 3, and with one input at no exponent. Where
        `change` fires, its groups are `shadow`'s."""
        entries = [(name, spec.evaluate, REFERENCES[name]) for name, spec in HEURISTICS.items()]
        references = {rule for rules in REFERENCES.values() for rule in rules}
        change, shadow = HEURISTICS["change"].evaluate, HEURISTICS["shadow"].evaluate
        idx = ReuseIndex()
        idx.register(4)
        contexts = [ctx(idx, 3), ctx(idx, 1, min_deposit_inputs=3), ctx(idx, None)]
        for n_in, n_out in product((1, 2, 3), repeat=2):
            vectors = _scope_values(n_in, n_out)
            for ins, outs in product(product(range(4), repeat=n_in), product(range(4), repeat=n_out)):
                txs = [Transaction("t", ins, in_values, outs, out_values)
                       for in_values, out_values in vectors]
                for t in txs:
                    assert is_coinjoin(t) == reference_is_coinjoin(t), t
                present = sorted({*ins, *outs})
                for vector in product((1, 2), repeat=len(present)):
                    for sid, count in zip(present, vector):
                        idx._counts[sid] = count
                    for k, t in enumerate(txs):
                        for context in contexts[:1 + (k == 0) + (k == 0 and n_in == 1)]:
                            expected = {rule: rule(t, context) for rule in references}
                            case = (t, vector, context.exponent, context.config.min_deposit_inputs)
                            for name, evaluate, rules in entries:
                                groups = evaluate(t, context).groups
                                assert groups == sum(map(expected.__getitem__, rules), ()), (name, case)
                            if n_in == 1 and (groups := change(t, context).groups):
                                assert groups == shadow(t, context).groups, case
