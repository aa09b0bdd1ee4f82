"""Condition-level coverage for every merge heuristic.

Each heuristic gets a firing case plus one non-firing case per condition, so
inverting any single condition check breaks at least one test here.
"""

from random import Random

import pytest

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
    reuse_based_change,
    round_output_value,
    service_deposit,
    shadow_address,
)
from conftest import counts, tx

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

    def test_e_no_reused_pay_script_does_not_fire(self):
        # same transaction, but the would-be pay script is also fresh
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


class TestReuseBasedChange:
    def test_fires_on_dataset_unique_output(self):
        t = tx([(A, 10)], [(B, 4), (C, 5)])
        assert reuse_based_change(t, ctx(counts({B: 1, C: 2}))) == (frozenset({A, B}),)

    def test_candidate_spent_later_does_not_fire(self):
        t = tx([(A, 10)], [(B, 4), (C, 5)])
        assert reuse_based_change(t, ctx(counts({B: 2, C: 2}))) == ()

    def test_two_unique_outputs_do_not_fire(self):
        t = tx([(A, 10)], [(B, 4), (C, 5)])
        assert reuse_based_change(t, ctx(counts({B: 1, C: 1}))) == ()

    def test_a_self_change_does_not_fire(self):
        t = tx([(A, 10)], [(A, 4), (B, 5)])
        assert reuse_based_change(t, ctx(counts({A: 2, B: 1}))) == ()


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
