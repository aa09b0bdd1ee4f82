"""Self-test of the benchmark on tiny streams: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True, proc.stdout
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def check_names_and_units(metrics: dict, spec: list[dict]) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, trace=0)
    check_names_and_units(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    metrics = result(workload, trace=1)
    check_names_and_units(metrics, SPEC["per_layer"])
    value = {k: m["value"] for k, m in metrics.items()}
    # Self times of the layers add up to the traced job's wall time, up to
    # the harness time outside the outermost span.
    modules = [k for k in value if k.endswith(".self_s")]
    assert abs(sum(value[k] for k in modules) - value["trace.self_sum_s"]) < 1e-9
    assert abs(value["trace.total_s"] - value["trace.self_sum_s"]) <= abs(value["trace.overhead_s"])
    if workload == "cli-combined":
        assert value["chain.passes"] == 2
        assert value["chain.self_s"] == max(value[k] for k in modules)
    if workload == "memory-sweep":
        assert value["chain.decode_s"] == 0
        assert value["clusters.register_calls"] == 2 * value["heuristics.eval_calls"]
    if workload == "cli-online-score":
        assert value["chain.passes"] == 1
        assert value["clusters.snapshot_load_s"] > 0 and value["synth.score_s"] > 0


def test_unpinned_seed_checks_invariants():
    result("cli-online-score", trace=0, seed=2)


def test_fails_without_the_program():
    bare = BENCH_DIR / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
