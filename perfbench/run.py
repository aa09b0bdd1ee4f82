#!/usr/bin/env python3
"""entityforge benchmark: three replay workloads, end-to-end and per-layer metrics.

Run from the repository root (no install needed; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload cli-combined --seed 1 --seconds 20 --trace 0

Each run generates its input stream with ``entityforge synth`` from the seed,
then runs one job after another (closed loop, one job at a time) until
``--seconds`` have passed, and checks every job's outputs. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print the same metrics for
people, plus the environment and the output digests. A fuller record goes to
``perfbench/results/``.

``--trace 0`` times untraced jobs and reports the end-to-end metrics.
The host shares its cores, and its speed drifts by up to 2x in phases of
seconds to minutes, so a fixed pure-Python probe runs before the first job,
after every process of a job (each CLI step; each heuristic of the sweep)
and around each set-up repetition. Each time metric is normalised to a
reference host: a time is scaled by ``PROBE_REF_S / probe_s``, where
``probe_s`` is the mean of the probes just before and just after it. The raw
times are printed and kept in the results.
``--trace 1`` alternates untraced and traced in-process runs of the same job
(the CLI workloads call ``entityforge.cli.main``) and reports the per-layer
metrics of the traced run with the median wall time, plus the tracing
overhead; see ``tracing.py``. ``--smoke`` shrinks the streams so that every
workload, the correctness gate and the traced run finish in seconds.

Every metric of every workload, with units and the correctness verdict:

    for w in cli-combined memory-sweep cli-online-score; do
      for t in 0 1; do python3 perfbench/run.py --workload $w --trace $t; done
    done
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"
PINS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 1  # the seed whose outputs are pinned in digests.json
SETUP_REPS = 5  # set-up is repeated and its median reported
RUN_DEADLINE_S = 170  # a whole run, set-up included, must end within this
STARTUP_REPS = 3
# The probe builds and reads a dict of string keys some MB large, like the
# program's script tables; it tracks the host's speed during the program
# better than work that fits in cache. PROBE_REF_S only fixes the unit of
# the normalised times: they read as seconds on a host where the probe
# takes PROBE_REF_S. Both must stay fixed across commits.
PROBE_KEYS = 120_000
PROBE_REF_S = 0.1

# Both streams follow the shape of acceptance criterion 10; they differ in
# how often scripts are reused, which sets cluster sizes and merge counts.
STREAM_BASE = {
    "users": 2000,
    "txs_per_block": 1000,
    "initial_balance": 1_000_000_000,
    "multi_pay_rate": 0.2,
    "deposit_sweep_rate": 0.05,
}
STREAMS = {
    "sparse-reuse": {
        "fresh_change_prob": 0.98,
        "address_reuse_prob": 0.02,
        "coinjoin_rate": 0.2,
        "consolidation_rate": 0.05,
    },
    "dense-reuse": {
        "fresh_change_prob": 0.7,
        "address_reuse_prob": 0.3,
        "coinjoin_rate": 0.05,
        "consolidation_rate": 0.2,
    },
}
SIZES = {
    "full": {"blocks": 30},
    "smoke": {"users": 200, "blocks": 4, "txs_per_block": 250},
}
# A constant price from block 0 keeps `round` active (exponent 4) on
# synthetic streams, which start at block 0.
PRICES_CSV = "block_index,usd_per_btc\n0,10000\n"

STREAM_FILE = "stream.jsonl"


@dataclass(frozen=True)
class Workload:
    stream: str
    replays: int  # heuristic runs over the stream per job
    outputs: tuple[str, ...] = ()  # files a CLI job writes, digested and checked


WORKLOADS = {
    # The paper's headline run; a fixed horizon decodes the JSONL twice.
    "cli-combined": Workload("sparse-reuse", 1, ("report.csv", "report.meta.json")),
    # All ten heuristics over an in-memory stream: ingest is bypassed, so
    # heuristic, reuse, cluster and engine work carry the job.
    "memory-sweep": Workload("sparse-reuse", len(tracing.HEURISTIC_NAMES)),
    # One online pass with large clusters, then snapshot load and scoring.
    "cli-online-score": Workload(
        "dense-reuse", 1, ("report.csv", "report.meta.json", "partition.csv", "score.json")
    ),
}


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {RUN_DEADLINE_S} s")


def probe() -> float:
    """Wall time of a fixed amount of work, a sample of the host's speed now."""
    t0 = perf_counter()
    table: dict[str, int] = {}
    for i in range(PROBE_KEYS):
        key = "s%d" % (i * 7919 % 1_000_003)
        table[key] = table.get(key, 0) + i
    total = 0
    for key in table:
        total += table[key]
    return perf_counter() - t0


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def describe_environment() -> dict:
    rev = None  # without git metadata, src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "entityforge").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


# -- processes --------------------------------------------------------------


def _reap(pid: int):
    """Wait for a child and return (exit code, rusage); kill it if interrupted."""
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "entityforge.cli", *argv]


def subprocess_step(argv: list[str], out: str, jobdir: Path, env: dict) -> dict:
    """Run one CLI step as a child process; wall is launch to exit."""
    t0 = perf_counter()
    with open(jobdir / out, "wb") as fh, open(jobdir / "stderr.txt", "ab") as err:
        proc = subprocess.Popen(cli_command(argv), cwd=jobdir, env=env, stdout=fh, stderr=err)
    code, usage = _reap(proc.pid)
    proc.returncode = code
    return {"wall": perf_counter() - t0, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss,
            "error": f"`{argv[0]}` exited with {code}" if code else None}


def fork_job(fn, jobdir: Path) -> dict:
    """Run `fn()` in a forked child inside `jobdir`; returns its dict result.

    The child inherits what the parent holds (the in-memory stream), and its
    resource usage comes from wait4 on that child alone. If the child fails,
    `wall` is its lifetime as the parent saw it.
    """
    result_file = jobdir / "child.json"
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.chdir(jobdir)
            result = fn()
            with open(result_file, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    code, usage = _reap(pid)
    result = {"wall": perf_counter() - t0, "error": f"child exited with {code}"}
    if code == 0:
        with open(result_file, encoding="utf-8") as fh:
            result = dict(json.load(fh), error=None)
    return dict(result, cpu=usage.ru_utime + usage.ru_stime, rss_kib=usage.ru_maxrss)


def timed(job, traced: bool):
    """Wrap an in-process job so that it reports its wall time (and trace)."""

    def run() -> dict:
        if not traced:
            t0 = perf_counter()
            out = job()
            return {"wall": perf_counter() - t0, "out": out}
        empty_ns = tracing.empty_wrapper_ns()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        t0 = perf_counter()
        out = tracer.span("harness.job", job)
        return {"wall": perf_counter() - t0, "out": out, "stats": tracer.stats,
                "counts": tracer.counts, "empty_ns": empty_ns}

    return run


# -- workloads --------------------------------------------------------------


@dataclass
class Setup:
    workdir: Path
    jsonl: Path
    truth: Path
    prices: Path
    meta: dict
    truth_rows: int
    samples: list[float]  # set-up wall per repetition
    probes: list[float]  # mean probe around each repetition
    generate: list[float]  # synth wall per repetition
    source: object  # MemorySource, memory-sweep only
    price_series: object  # PriceSeries, memory-sweep only


def _decode_into_memory(path: Path):
    from entityforge import JsonlSource, MemorySource

    t0 = perf_counter()
    src = JsonlSource(str(path))
    blocks = list(src.blocks())
    return MemorySource(blocks, src.table), perf_counter() - t0


def prepare(workload: str, seed: int, size: str, workdir: Path, env: dict) -> Setup:
    """Generate the stream SETUP_REPS times; time each repetition."""
    params = {**STREAM_BASE, **STREAMS[WORKLOADS[workload].stream], **SIZES[size]}
    params_path = workdir / "params.json"
    params_path.write_text(json.dumps(params, sort_keys=True) + "\n")
    prices = workdir / "prices.csv"
    prices.write_text(PRICES_CSV)
    prefix = workdir / "stream"
    jsonl = Path(f"{prefix}.jsonl")
    samples, generate, probes = [], [], []
    source = None
    before = probe()
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run(
            cli_command(["synth", "--seed", str(seed), "--params", str(params_path),
                         "--out-prefix", str(prefix)]),
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        gen_s = perf_counter() - t0
        decode_s = 0.0
        if workload == "memory-sweep":
            if rep < SETUP_REPS - 1:
                # Earlier repetitions decode in a throwaway child, so the
                # parent's heap holds one decoded stream only.
                child = fork_job(lambda: {"wall": _decode_into_memory(jsonl)[1]}, workdir)
                if child["error"]:
                    raise RuntimeError(f"decode into memory: {child['error']}")
                decode_s = child["wall"]
            else:
                source, decode_s = _decode_into_memory(jsonl)
        generate.append(gen_s)
        samples.append(gen_s + decode_s)
        after = probe()
        probes.append((before + after) / 2)
        before = after
    meta = json.loads(Path(f"{prefix}.meta.json").read_text())
    truth = Path(f"{prefix}.truth.csv")
    with open(truth, encoding="utf-8") as fh:
        truth_rows = sum(1 for _ in fh) - 1
    price_series = None
    if source is not None:
        from entityforge import load_price_csv

        with open(prices, encoding="utf-8") as fh:
            price_series = load_price_csv(fh)
    return Setup(workdir, jsonl, truth, prices, meta, truth_rows, samples, probes, generate,
                 source, price_series)


def cli_steps(workload: str, setup: Setup) -> list[tuple[list[str], str]]:
    """(argv, stdout file) for each CLI process of one job."""
    if workload == "cli-combined":
        return [(["run", "--tx", STREAM_FILE, "--heuristic", "combined",
                  "--prices", str(setup.prices), "--checkpoints", "10",
                  "--out", "report.csv"], "run.out")]
    return [
        (["run", "--tx", STREAM_FILE, "--heuristic", "one-time-change", "--horizon", "online",
          "--checkpoints", "10", "--out", "report.csv", "--snapshot", "partition.csv"], "run.out"),
        (["score", "--snapshot", "partition.csv", "--truth", str(setup.truth)], "score.json"),
    ]


def cli_in_process(steps):
    def job():
        from entityforge import cli

        for argv, out in steps:
            with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"`{argv[0]}` returned {code}")

    return job


def memory_sweep(setup: Setup, names):
    def job():
        from entityforge import engine

        rows = {}
        for name in names:
            report, _ = engine.run(
                engine.RunConfig(heuristic=name), setup.source, price_series=setup.price_series
            )
            buf = io.StringIO()
            report.write_csv(buf)
            rows[name] = buf.getvalue().splitlines()[-1]
        return rows

    return job


def run_job(workload: str, kind: str, setup: Setup, jobdir: Path, env: dict,
            before: float) -> tuple[dict, float]:
    """Run one job of the workload; returns it and the last probe.

    kind `plain` runs it as a user would: each CLI step in its own process,
    or each heuristic of the sweep in its own forked child. `inproc` runs
    the whole job in one forked child, through `cli.main` for a CLI job;
    `traced` is `inproc` with tracing installed.

    The host is probed after each process. A process's time is paired with
    the mean of the probes just before and just after it, and the job's
    `probe` is that mean weighted by each process's time: the host's speed
    over the job. Short processes keep the probes close to the work.
    """
    if workload == "memory-sweep":
        if kind == "plain":
            parts = [lambda name=name: fork_job(timed(memory_sweep(setup, [name]), False), jobdir)
                     for name in tracing.HEURISTIC_NAMES]
        else:
            parts = [lambda: fork_job(
                timed(memory_sweep(setup, tracing.HEURISTIC_NAMES), kind == "traced"), jobdir)]
    else:
        # First touch: a fresh copy in an empty directory, copied before timing.
        shutil.copyfile(setup.jsonl, jobdir / STREAM_FILE)
        steps = cli_steps(workload, setup)
        if kind == "plain":
            parts = [lambda argv=argv, out=out: subprocess_step(argv, out, jobdir, env)
                     for argv, out in steps]
        else:
            parts = [lambda: fork_job(timed(cli_in_process(steps), kind == "traced"), jobdir)]
    job = {"wall": 0.0, "cpu": 0.0, "rss_kib": 0, "error": None}
    weighted_probe = 0.0
    for part in parts:
        result = part()
        after = probe()
        weighted_probe += result["wall"] * (before + after) / 2
        before = after
        job["wall"] += result.pop("wall")
        job["cpu"] += result.pop("cpu")
        job["rss_kib"] = max(job["rss_kib"], result.pop("rss_kib"))
        out = result.pop("out", None)
        if out:
            job["out"] = {**job.get("out", {}), **out}
        job.update(result)  # error, and the trace of a traced job
        if job["error"]:
            break
    job["probe"] = weighted_probe / job["wall"]
    return job, before


# -- correctness ------------------------------------------------------------


def _check_row(line: str, meta: dict, what: str) -> list[str]:
    fields = line.split(",")
    counts = meta["counts"]
    problems = []
    if int(fields[5]) != counts["transactions"]:
        problems.append(f"{what}: tx_processed {fields[5]} != {counts['transactions']}")
    if int(fields[1]) != counts["scripts"]:
        problems.append(f"{what}: num_scripts {fields[1]} != {counts['scripts']}")
    return problems


def job_digests(workload: str, job: dict, jobdir: Path, setup: Setup) -> tuple[dict, list[str]]:
    """Digests of a job's outputs and the invariants that hold on any seed."""
    if job["error"]:
        return {}, [job["error"]]
    digests, problems = {}, []
    if workload == "memory-sweep":
        for name, line in job["out"].items():
            digests[f"row:{name}"] = sha256_text(line)
            problems += _check_row(line, setup.meta, name)
        return digests, problems
    for name in WORKLOADS[workload].outputs:
        path = jobdir / name
        if not path.is_file():
            problems.append(f"missing output {name}")
            continue
        digests[name] = sha256_file(path)
    if "report.csv" in digests:
        last = (jobdir / "report.csv").read_text().splitlines()[-1]
        problems += _check_row(last, setup.meta, "report.csv")
    if "score.json" in digests:
        scored = json.loads((jobdir / "score.json").read_text())["scripts"]
        if scored != setup.truth_rows:
            problems.append(f"score.json: scripts {scored} != truth rows {setup.truth_rows}")
    return digests, problems


def compare_digests(got: dict, expected: dict, what: str) -> list[str]:
    return [
        f"{what}: {name} digest {got.get(name)} != {want}"
        for name, want in expected.items()
        if got.get(name) != want
    ] + [f"{what}: unexpected output {name}" for name in got if name not in expected]


# -- metrics ----------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(workload: str, jobs: list[dict], setup: Setup) -> tuple[dict, dict, dict]:
    """Normalised metrics with their spread, and the raw medians.

    A job time is the jobs' total over the probes' total, not a median: a
    probe samples the host's speed for a fraction of a second, so single
    normalised jobs scatter by 10-15%, and a median jumps between clusters of
    them where the totals do not.
    """
    tx = setup.meta["counts"]["transactions"] * WORKLOADS[workload].replays
    scale = [PROBE_REF_S / j["probe"] for j in jobs]
    wall = [j["wall"] * k for j, k in zip(jobs, scale)]
    series = {
        "wall_norm_s": (wall, "s"),
        "tx_per_norm_s": ([tx / w for w in wall], "1/s"),
        "cpu_norm_s": ([j["cpu"] * k for j, k in zip(jobs, scale)], "s"),
        "peak_rss_mib": ([j["rss_kib"] / 1024 for j in jobs], "MiB"),
        "setup_s": ([s * PROBE_REF_S / p for s, p in zip(setup.samples, setup.probes)], "s"),
    }
    metrics = {k: (statistics.median(v), unit) for k, (v, unit) in series.items()}
    probe_total = sum(j["probe"] for j in jobs)
    for name, key in (("wall_norm_s", "wall"), ("cpu_norm_s", "cpu")):
        metrics[name] = (PROBE_REF_S * sum(j[key] for j in jobs) / probe_total, "s")
    # Throughput is all the work over all the busy time of the window.
    metrics["tx_per_norm_s"] = (tx / metrics["wall_norm_s"][0], "1/s")
    spread = {k: (len(v), *_quartiles(v)) for k, (v, _) in series.items()}
    raw = {
        "wall_s": statistics.median(j["wall"] for j in jobs),
        "cpu_s": statistics.median(j["cpu"] for j in jobs),
        "setup_s": statistics.median(setup.samples),
        "probe_s": statistics.median(j["probe"] for j in jobs),
    }
    return metrics, spread, raw


def per_layer(traced: list[dict], untraced: list[dict], setup: Setup, env: dict) -> dict:
    rep = sorted(traced, key=lambda j: j["wall"])[len(traced) // 2]
    untraced_s = statistics.median(j["wall"] for j in untraced)
    metrics = tracing.layer_metrics(rep["stats"], rep["counts"], rep["wall"], untraced_s,
                                     rep["empty_ns"])
    metrics["synth.generate_s"] = (statistics.median(setup.generate), "s")
    empty = setup.workdir / "empty.jsonl"
    empty.write_text("")
    walls = []
    for _ in range(STARTUP_REPS):
        t0 = perf_counter()
        subprocess.run(cli_command(["validate", "--tx", str(empty)]), env=env, check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(perf_counter() - t0)
    metrics["cli.startup_s"] = (statistics.median(walls), "s")
    return metrics


# -- main -------------------------------------------------------------------


def benchmark(args, workdir: Path, env: dict) -> dict:
    environment = describe_environment()
    size = "smoke" if args.smoke else "full"
    setup = prepare(args.workload, args.seed, size, workdir, env)

    pins = json.loads(PINS.read_text()).get(size, {}) if args.seed == DEFAULT_SEED else None
    stream = WORKLOADS[args.workload].stream
    input_digests = {"stream.jsonl": sha256_file(setup.jsonl),
                     "stream.truth.csv": sha256_file(setup.truth)}
    setup_problems = []
    if pins is not None:
        setup_problems = compare_digests(input_digests, pins.get(stream, {}), stream)

    kinds = ["inproc", "traced"] if args.trace else ["plain"]
    jobs = []
    reference = pins.get(args.workload) if pins is not None else None
    deadline = perf_counter() + args.seconds
    before = probe()
    while len(jobs) < len(kinds) or perf_counter() < deadline:
        kind = kinds[len(jobs) % len(kinds)]
        jobdir = workdir / f"job{len(jobs)}"
        jobdir.mkdir()
        job, before = run_job(args.workload, kind, setup, jobdir, env, before)
        job["kind"] = kind
        job["digests"], job["problems"] = job_digests(args.workload, job, jobdir, setup)
        if reference is None and not job["problems"]:
            reference = job["digests"]  # unpinned seed: every job must agree
        if reference is not None:
            job["problems"] += compare_digests(job["digests"], reference, f"job {len(jobs)}")
        job["problems"] += setup_problems
        shutil.rmtree(jobdir)
        jobs.append(job)

    if args.trace:
        ok = [j for j in jobs if not j["error"]]
        traced = [j for j in ok if j["kind"] == "traced"]
        untraced = [j for j in ok if j["kind"] == "inproc"]
        if not traced or not untraced:
            raise RuntimeError("no traced and untraced pair of jobs completed")
        metrics = per_layer(traced, untraced, setup, env)
        spread, raw = {}, {}
    else:
        metrics, spread, raw = end_to_end(args.workload, jobs, setup)
    failed = sum(1 for j in jobs if j["problems"])
    environment["loadavg_end"] = list(os.getloadavg())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "environment": environment,
        "input_digests": input_digests,
        "output_digests": jobs[0]["digests"],
        "jobs": [{k: j[k] for k in ("kind", "wall", "cpu", "rss_kib", "probe", "problems")}
                 for j in jobs],
        "setup": {"wall": setup.samples, "probe": setup.probes},
        "metrics": metrics,
        "spread": spread,
        "raw": raw,
        "attempted": len(jobs),
        "failed": failed,
    }


def report(result: dict) -> None:
    env = result["environment"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"size={result['size']} seconds={result['seconds']}")
    print(f"  revision={env['git_revision']} src_sha256={env['src_sha256'][:16]} "
          f"python={env['python']} nproc={env['nproc']} "
          f"loadavg={env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}")
    for name, (value, unit) in result["metrics"].items():
        line = f"  {name:34s} {value:>16.6f} {unit}"
        if name in result["spread"]:
            n, q1, q3 = result["spread"][name]
            line += f"   ({n} samples; q1 {q1:.6f}, q3 {q3:.6f})"
        print(line)
    for name, value in result["raw"].items():
        print(f"  raw median {name:23s} {value:>16.6f} s")
    for name, digest in {**result["input_digests"], **result["output_digests"]}.items():
        print(f"  sha256 {name:26s} {digest}")
    problems = sorted({p for j in result["jobs"] for p in j["problems"]})
    for problem in problems:
        print(f"  PROBLEM {problem}")
    rate = result["failed"] / result["attempted"]
    print(f"  correct={not problems} attempted={result['attempted']} "
          f"failed={result['failed']} error_rate={rate}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny streams, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "entityforge" / "__init__.py").is_file():
        print(f"error: no entityforge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = benchmark(args, workdir, env)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{result['size']}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
