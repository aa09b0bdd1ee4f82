"""Acceptance suite: one test per release criterion, with a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The scale smoke test at the end generates and clusters a
million-transaction stream and takes a couple of minutes.
"""

from __future__ import annotations

import functools
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest

from entityforge.chain import MemorySource, ScriptTable, iter_blocks
from entityforge.engine import RunConfig, run
from entityforge.heuristics import HEURISTICS, HeuristicConfig
from entityforge.pricing import load_price_csv, rounding_exponent
from entityforge.reuse import ReuseIndex
from entityforge.synth import GenParams, score

from conftest import generate_text
from oracles import closure_labels, refines

CONSTANT_PRICES = "block_index,usd_per_btc\n0,10000\n"

ALL_HEURISTICS = sorted(HEURISTICS)
PRICE_USERS = ("round", "combined")


def criterion(num, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num:02d} ({label}): FAIL", flush=True)
                raise
            print(f"\n[acceptance] criterion {num:02d} ({label}): PASS", flush=True)

        return wrapper

    return decorate


def _parse(text):
    table = ScriptTable()
    blocks = list(iter_blocks(io.StringIO(text), table))
    return MemorySource(blocks, table)


def _prices():
    return load_price_csv(io.StringIO(CONSTANT_PRICES))


def _pool_params(rng):
    return GenParams(
        users=rng.randrange(3, 9),
        blocks=rng.randrange(4, 14),
        txs_per_block=rng.randrange(3, 14),
        fresh_change_prob=rng.choice([0.6, 0.9, 1.0]),
        address_reuse_prob=rng.choice([0.0, 0.2, 0.5]),
        consolidation_rate=rng.choice([0.0, 0.1, 0.25]),
        coinjoin_rate=rng.choice([0.0, 0.1, 0.3]),
        multi_pay_rate=rng.choice([0.0, 0.2]),
        deposit_sweep_rate=rng.choice([0.0, 0.3]),
        deposit_min_inputs=4,
        service_payee_prob=0.4,
        round_value_rate=rng.choice([0.1, 0.5]),
    )


@pytest.fixture(scope="module")
def stream_pool():
    """100 assorted synthetic streams, parsed once."""
    rng = Random(20260810)
    pool = []
    for seed in range(100):
        text, truth, meta = generate_text(seed, _pool_params(rng))
        pool.append((_parse(text), truth, meta))
    return pool


@criterion(1, "merge-semantics oracle")
def test_criterion_01_merge_oracle(stream_pool, proposed_groups):
    started = time.monotonic()
    prices = _prices()
    config_params = HeuristicConfig(min_deposit_inputs=4)
    checked = 0
    for source, _, _ in stream_pool:
        for name in ALL_HEURISTICS:
            proposed_groups.clear()
            _, store = run(
                RunConfig(name, params=config_params, checkpoint_interval=10**9),
                source,
                price_series=prices if name in PRICE_USERS else None,
            )
            assert store.labels() == closure_labels(len(source.table), proposed_groups), (
                f"partition mismatch for {name}"
            )
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 100 * len(ALL_HEURISTICS)
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"


@criterion(2, "refinement of common-input ownership")
def test_criterion_02_refinement(stream_pool):
    params = HeuristicConfig(min_deposit_inputs=4)
    for source, _, _ in stream_pool:
        last = max(b.index for b in source.blocks())
        checkpoints = sorted({last // 2, last})
        results = {}
        for name in ("cio", "cio-cj", "deposit"):
            config = RunConfig(name, params=params, checkpoints=checkpoints, checkpoint_interval=None)
            results[name] = run(config, source)
        for name in ("cio-cj", "deposit"):
            assert refines(results[name][1].labels(), results["cio"][1].labels())
            for refined_row, base_row in zip(results[name][0].rows, results["cio"][0].rows):
                assert refined_row.ratio >= base_row.ratio


@criterion(3, "combined heuristic coarsens its constituents")
def test_criterion_03_combined_coarsening(stream_pool):
    prices = _prices()
    constituents = ("cio-cj", "change", "round", "force-merge")
    for source, _, _ in stream_pool:
        last = max(b.index for b in source.blocks())
        checkpoints = sorted({last // 2, last})
        combined_report, combined_store = run(
            RunConfig("combined", checkpoints=checkpoints, checkpoint_interval=None),
            source,
            price_series=prices,
        )
        for name in constituents:
            report, store = run(
                RunConfig(name, checkpoints=checkpoints, checkpoint_interval=None),
                source,
                price_series=prices if name in PRICE_USERS else None,
            )
            assert refines(store.labels(), combined_store.labels())
            for part_row, comb_row in zip(report.rows, combined_report.rows):
                assert comb_row.ratio <= part_row.ratio


@criterion(4, "clustering-ratio arithmetic at full-history scale")
def test_criterion_04_ratio_arithmetic():
    # Reference constants from full-history runs at block 700000.
    scripts_at_700k = 874_600_000
    cio_ratio = Fraction(468, 1000)
    combined_ratio = Fraction(289, 1000)

    cio_clusters = cio_ratio * scripts_at_700k
    assert cio_clusters == 409_312_800
    assert abs(cio_clusters / Fraction(409_300_000) - 1) < Fraction(5, 10_000)

    combined_clusters = combined_ratio * scripts_at_700k
    assert combined_clusters == 252_759_400
    assert abs(combined_clusters / Fraction(252_800_000) - 1) < Fraction(5, 10_000)
    # "quarter of a billion clusters instead of 874.6M scripts"
    assert abs(combined_clusters / Fraction(250_000_000) - 1) < Fraction(2, 100)

    # the same arithmetic the ratio formula performs, in reverse
    from entityforge.clusters import ClusterSet

    store = ClusterSet()
    store.register(4)
    store.merge_scripts({0, 1, 2, 3})
    assert store.clustering_ratio() * store.num_scripts == store.num_clusters


@criterion(5, "rounding exponent uniqueness and anchors")
def test_criterion_05_rounding_exponent():
    assert rounding_exponent(Decimal("1e-7"), Decimal(1)) == 7
    assert rounding_exponent(Decimal("0.0005"), Decimal(1)) == 3
    for k in range(-8, 20):
        assert rounding_exponent(Decimal(1).scaleb(-k), Decimal(1)) == k

    rng = Random(5050)
    ten = Fraction(10)
    for _ in range(100_000):
        p = Decimal(rng.randrange(1, 10**9)).scaleb(rng.randrange(-12, 1))
        x = Decimal(rng.randrange(1, 10**6)).scaleb(rng.randrange(-4, 3))
        i = rounding_exponent(p, x)
        q = Fraction(x) / Fraction(p)
        assert ten**i <= q < ten ** (i + 1)


@criterion(6, "per-condition heuristic test coverage")
def test_criterion_06_condition_suite():
    import test_heuristics as suite

    per_heuristic = {
        "TestCommonInput": [],
        "TestCoinJoinResistant": [],
        "TestChangeAddress": [],
        "TestRoundOutputValue": [],
        "TestForceMergeOfInputs": [],
        "TestServiceDeposit": [],
        "TestShadowAddress": [],
        "TestOneTimeChange": [],
        "TestReuseBasedChange": [],
    }
    executed = 0
    for cls_name in per_heuristic:
        cls = getattr(suite, cls_name)
        instance = cls()
        for name in dir(cls):
            if not name.startswith("test_"):
                continue
            getattr(instance, name)()  # re-run the condition check
            executed += 1
            firing = "fire" in name and "not" not in name and "never" not in name
            blocking = any(tag in name for tag in ("does_not_fire", "do_not_fire", "never_fires", "skipped", "rejected"))
            if firing:
                per_heuristic[cls_name].append("firing")
            elif blocking:
                per_heuristic[cls_name].append("blocking")
    for cls_name, kinds in per_heuristic.items():
        assert "firing" in kinds, f"{cls_name} lacks a firing test"
        assert "blocking" in kinds, f"{cls_name} lacks a non-firing test"
    assert executed >= 45


@criterion(7, "online/fixed horizon equivalence")
def test_criterion_07_horizon_equivalence(stream_pool):
    rng = Random(77)
    for source, _, _ in stream_pool[:50]:
        blocks = list(source.blocks())
        indices = [b.index for b in blocks]
        for k in rng.sample(indices, min(3, len(indices))):
            online = ReuseIndex()
            for block in blocks:
                if block.index > k:
                    break
                for t in block.transactions:
                    online.record(t)
            fixed = ReuseIndex.build_fixed(blocks, k=k)
            for sid in range(len(source.table)):
                assert online.count(sid) == fixed.count(sid)


@criterion(8, "ground-truth recovery")
def test_criterion_08_ground_truth():
    # (a) single-owner co-spends only: common-input precision is exactly 1.0
    text, truth, _ = generate_text(
        801,
        GenParams(
            users=8, blocks=12, txs_per_block=10,
            coinjoin_rate=0.0, consolidation_rate=0.2, deposit_sweep_rate=0.3,
            deposit_min_inputs=4, address_reuse_prob=0.3,
        ),
    )
    source = _parse(text)
    _, store = run(RunConfig("cio", params=HeuristicConfig(min_deposit_inputs=4), checkpoint_interval=10**9), source)
    metrics = score(store, truth)
    assert metrics["pairwise_precision"] == 1.0
    assert metrics["cluster_collapse"] == 0
    assert metrics["pairs"]["same_cluster"] > 0

    # (b) always-fresh change, always-reused pay addresses: every transaction
    # the change heuristic qualifies gets its (input, change) pair merged.
    text, truth, _ = generate_text(
        802,
        GenParams(
            users=6, blocks=14, txs_per_block=10,
            fresh_change_prob=1.0, address_reuse_prob=1.0,
            coinjoin_rate=0.0, consolidation_rate=0.0, multi_pay_rate=0.0,
        ),
    )
    source = _parse(text)
    _, store = run(RunConfig("change", horizon="online", checkpoint_interval=10**9), source)

    qualifying = _qualifying_change_pairs(source)
    assert qualifying, "stream produced no qualifying change transactions"
    hits = sum(1 for p_in, p_change in qualifying if store.find(p_in) == store.find(p_change))
    assert hits == len(qualifying)  # recall 1.0 over qualifying pairs


def _qualifying_change_pairs(source):
    """Independent re-derivation of the change-heuristic firing set."""
    counts: dict[int, int] = {}
    pairs = []
    for block in source.blocks():
        for t in block.transactions:
            for side in (set(t.in_scripts), set(t.out_scripts)):
                for sid in side:
                    counts[sid] = counts.get(sid, 0) + 1
            if len(t.in_scripts) != 1 or len(t.out_scripts) != 2:
                continue
            a, b = t.out_scripts
            if a == b:
                continue
            p_in = t.in_scripts[0]
            if counts.get(p_in, 0) >= 2:
                continue
            fresh = [s for s in (a, b) if counts.get(s, 0) < 2]
            if len(fresh) != 1:
                continue
            pay = a if fresh[0] == b else b
            if counts.get(pay, 0) < 2:
                continue
            pairs.append((p_in, fresh[0]))
    return pairs


@criterion(9, "determinism and truncated replay")
def test_criterion_09_determinism(tmp_path):
    text, _, _ = generate_text(901, GenParams(users=8, blocks=12, txs_per_block=10))
    path = tmp_path / "d.jsonl"
    path.write_text(text)

    from entityforge.chain import JsonlSource

    prices = _prices()
    for name in ("cio", "combined"):
        outputs = []
        for _ in range(2):
            report, _ = run(
                RunConfig(name, checkpoint_interval=4),
                JsonlSource(str(path)),
                price_series=prices if name in PRICE_USERS else None,
            )
            buf = io.StringIO()
            report.write_csv(buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    lines = text.strip().split("\n")
    cut_at = 6
    cut = [ln for ln in lines if json.loads(ln)["block"] <= cut_at]
    (tmp_path / "cut.jsonl").write_text("\n".join(cut) + "\n")
    for name, horizon in (("cio", None), ("change", "online")):
        full_report, _ = run(
            RunConfig(name, horizon=horizon, checkpoints=[cut_at, 11], checkpoint_interval=None),
            JsonlSource(str(path)),
        )
        cut_report, _ = run(
            RunConfig(name, horizon=horizon, checkpoints=[cut_at], checkpoint_interval=None),
            JsonlSource(str(tmp_path / "cut.jsonl")),
        )
        assert cut_report.rows[0] == full_report.rows[0]


def _run_alone(cmd, err_path):
    """Run a command to its end: its wall seconds and its own peak RSS in KiB.

    `os.wait4` reports the child's own usage, where RUSAGE_CHILDREN would
    give the largest peak of every child this process has waited for.
    """
    started = time.monotonic()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, err_path.read_text()
    return elapsed, usage.ru_maxrss


@criterion(10, "scale smoke: a million transactions under limits")
def test_criterion_10_scale(tmp_path):
    params = {
        "users": 2000,
        "blocks": 1000,
        "txs_per_block": 1000,
        "initial_balance": 1_000_000_000,
        "fresh_change_prob": 0.98,
        "address_reuse_prob": 0.02,
        "coinjoin_rate": 0.2,
        "consolidation_rate": 0.05,
        "multi_pay_rate": 0.2,
        "deposit_sweep_rate": 0.05,
        "deposit_min_inputs": 25,
        "service_payee_prob": 0.2,
    }
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params))
    prices_path = tmp_path / "prices.csv"
    prices_path.write_text(CONSTANT_PRICES)

    synth_cmd = [
        sys.executable, "-m", "entityforge.cli", "synth",
        "--seed", "1000000", "--params", str(params_path),
        "--out-prefix", str(tmp_path / "big"),
    ]
    elapsed, synth_peak_kb = _run_alone(synth_cmd, tmp_path / "synth.err")
    print(f"\n[acceptance] criterion 10 synth: {elapsed:.1f}s wall, "
          f"{synth_peak_kb / 1024:.0f} MiB peak RSS", flush=True)
    meta = json.loads((tmp_path / "big.meta.json").read_text())
    assert meta["counts"]["transactions"] == 1_000_000
    assert meta["counts"]["scripts"] >= 2_500_000

    run_cmd = [
        sys.executable, "-m", "entityforge.cli", "run",
        "--tx", str(tmp_path / "big.jsonl"), "--heuristic", "combined",
        "--prices", str(prices_path), "--checkpoints", "250",
        "--out", str(tmp_path / "big-report.csv"),
    ]
    elapsed, peak_kb = _run_alone(run_cmd, tmp_path / "run.err")
    print(f"\n[acceptance] criterion 10 run: {elapsed:.1f}s wall, "
          f"{peak_kb / 1024:.0f} MiB peak RSS", flush=True)

    rows = (tmp_path / "big-report.csv").read_text().splitlines()
    assert rows[0].startswith("block_index,")
    assert rows[-1].split(",")[5] == "1000000"  # all txs processed

    assert elapsed < 300, f"combined run took {elapsed:.0f}s"
    assert peak_kb < 4 * 1024 * 1024, f"peak rss {peak_kb / 1024:.0f} MiB"
