"""Span tracing at entityforge's public call boundaries, for the traced run.

`install` replaces the package's public entry points with wrappers that time
each call. A call is a span; its self time is its duration minus the
durations of the spans it directly contains, so the self times of all spans
of a job sum to the duration of the outermost span. Everything is kept in
memory and turned into per-layer metrics when the job ends.

Only ever install into a process that is thrown away afterwards (the
benchmark forks a child per traced job): nothing is restored.
"""

from __future__ import annotations

import dataclasses
import os
from time import perf_counter

HEURISTIC_NAMES = (
    "change", "cio", "cio-cj", "combined", "deposit",
    "force-merge", "one-time-change", "reuse-change", "round", "shadow",
)

# Module (layer) of the program, or `harness` for the benchmark's own code.
MODULES = ("chain", "reuse", "heuristics", "clusters", "engine", "pricing", "synth", "cli", "harness")

_END = object()


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []  # child time accumulated per open span

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, hook=None):
        """Return `fn` timed as span `name`; `hook(result)` sees each result."""
        stat = self._stat(name)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stat[0] += 1
                stat[1] += d
                stat[2] += d - stack.pop()
                if stack:
                    stack[-1] += d
            if hook is not None:
                hook(result)
            return result

        return traced

    def wrap_iter(self, name, gen_fn, on_item, on_end):
        """Like `wrap` for a generator method: each `next()` is one span."""
        stat = self._stat(name)
        stack = self._stack

        def traced(obj, *args, **kwargs):
            it = gen_fn(obj, *args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it, _END)
                finally:
                    d = perf_counter() - t0
                    stat[0] += 1
                    stat[1] += d
                    stat[2] += d - stack.pop()
                    if stack:
                        stack[-1] += d
                if item is _END:
                    on_end(obj)
                    return
                on_item(item)
                yield item

        return traced

    def span(self, name, fn, *args):
        """Call `fn(*args)` as one span."""
        return self.wrap(name, fn)(*args)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every entityforge module in place."""
    from entityforge import chain, cli, clusters, engine, heuristics, reuse

    def on_block(block) -> None:
        tracer.count("chain.tx", len(block.transactions))

    def on_pass_end(source) -> None:
        tracer.count("chain.passes")
        tracer.count("chain.bytes_in", os.path.getsize(source.path))
        tracer.counts["chain.scripts"] = len(source.table)

    chain.JsonlSource.blocks = tracer.wrap_iter(
        "chain.decode", chain.JsonlSource.blocks, on_block, on_pass_end
    )

    Reuse = reuse.ReuseIndex
    Reuse.build_fixed = classmethod(tracer.wrap("reuse.build_fixed", Reuse.build_fixed.__func__))
    Reuse.record = tracer.wrap("reuse.record", Reuse.record)

    def on_proposal(proposal) -> None:
        if proposal.groups:
            tracer.count("heuristics.fired")

    for name, spec in list(heuristics.HEURISTICS.items()):
        evaluate = tracer.wrap(f"heuristics.{name}.eval", spec.evaluate, on_proposal)
        heuristics.HEURISTICS[name] = dataclasses.replace(spec, evaluate=evaluate)

    def on_merge(eliminated: int) -> None:
        if eliminated:
            tracer.count("clusters.merge_useful")

    CS = clusters.ClusterSet
    CS.register = tracer.wrap("clusters.register", CS.register)
    CS.merge_scripts = tracer.wrap("clusters.merge", CS.merge_scripts, on_merge)
    CS.labels = tracer.wrap("clusters.labels", CS.labels)
    CS.write_snapshot_csv = tracer.wrap("clusters.snapshot_write", CS.write_snapshot_csv)
    CS.write_snapshot_binary = tracer.wrap("clusters.snapshot_write", CS.write_snapshot_binary)
    cli.load_snapshot = tracer.wrap("clusters.snapshot_load", cli.load_snapshot)

    engine.run = tracer.wrap("engine.run", engine.run)
    engine.RatioReport.write = tracer.wrap("engine.report_write", engine.RatioReport.write)
    engine.rounding_exponent = tracer.wrap("pricing.exponent", engine.rounding_exponent)

    cli.read_truth = tracer.wrap("synth.read_truth", cli.read_truth)
    cli.score = tracer.wrap("synth.score", cli.score)
    cli.main = tracer.wrap("cli.main", cli.main)


def empty_wrapper_ns(calls: int = 100_000) -> float:
    """Per-call cost of a span wrapper around a function that does nothing."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls * 1e9


def layer_metrics(stats: dict, counts: dict, total_s: float, untraced_s: float, empty_ns: float) -> dict:
    """Per-layer metrics of one traced job, as name -> (value, unit).

    `stats` and `counts` are a Tracer's fields; `total_s` is the traced job's
    wall time and `untraced_s` the same job's wall time without tracing.
    """

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    evals = [f"heuristics.{h}.eval" for h in HEURISTIC_NAMES]
    eval_calls = sum(calls(n) for n in evals)
    decode_s = total("chain.decode")
    module_self = {m: 0.0 for m in MODULES}
    for name, (_, _, s) in stats.items():
        module_self[name.split(".", 1)[0]] += s
    self_sum = sum(module_self.values())
    wrapped_calls = sum(st[0] for st in stats.values())
    overhead_s = total_s - untraced_s

    m = {
        "chain.decode_s": (decode_s, "s"),
        "chain.passes": (counts.get("chain.passes", 0), "count"),
        "chain.tx_per_s": (ratio(counts.get("chain.tx", 0), decode_s), "1/s"),
        "chain.scripts": (counts.get("chain.scripts", 0), "count"),
        "chain.bytes_in": (counts.get("chain.bytes_in", 0), "bytes"),
        "reuse.build_fixed_s": (self_time("reuse.build_fixed"), "s"),
        "reuse.build_fixed_calls": (calls("reuse.build_fixed"), "count"),
        "reuse.record_s": (total("reuse.record"), "s"),
        "reuse.record_calls": (calls("reuse.record"), "count"),
        "heuristics.eval_s": (sum(total(n) for n in evals), "s"),
        "heuristics.eval_calls": (eval_calls, "count"),
        "heuristics.fired": (counts.get("heuristics.fired", 0), "count"),
        "heuristics.fire_ratio": (ratio(counts.get("heuristics.fired", 0), eval_calls), "ratio"),
    }
    for h in HEURISTIC_NAMES:
        m[f"heuristics.{h}.eval_s"] = (total(f"heuristics.{h}.eval"), "s")
    m.update({
        "clusters.register_s": (total("clusters.register"), "s"),
        "clusters.register_calls": (calls("clusters.register"), "count"),
        "clusters.merge_s": (total("clusters.merge"), "s"),
        "clusters.merge_calls": (calls("clusters.merge"), "count"),
        "clusters.merge_useful_ratio": (
            ratio(counts.get("clusters.merge_useful", 0), calls("clusters.merge")), "ratio"),
        "clusters.labels_s": (total("clusters.labels"), "s"),
        "clusters.snapshot_write_s": (total("clusters.snapshot_write"), "s"),
        "clusters.snapshot_load_s": (total("clusters.snapshot_load"), "s"),
        "engine.run_s": (total("engine.run"), "s"),
        "engine.report_write_s": (total("engine.report_write"), "s"),
        "synth.read_truth_s": (total("synth.read_truth"), "s"),
        "synth.score_s": (total("synth.score"), "s"),
        "pricing.exponent_s": (total("pricing.exponent"), "s"),
        "pricing.exponent_calls": (calls("pricing.exponent"), "count"),
    })
    for mod in MODULES:
        m[f"{mod}.self_s"] = (module_self[mod], "s")
    m.update({
        "trace.total_s": (total_s, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_ratio": (ratio(overhead_s, untraced_s), "ratio"),
        "trace.wrapped_calls": (wrapped_calls, "count"),
        "trace.empty_wrapper_ns": (empty_ns, "ns"),
        "trace.overhead_est_s": (wrapped_calls * empty_ns * 1e-9, "s"),
    })
    return m
