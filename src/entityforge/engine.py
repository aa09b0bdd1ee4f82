"""Replay a block stream, apply one heuristic, and checkpoint the ratio.

The run starts from the atomic clustering and processes transactions in
stream order: grow the store to the scripts seen, update the online reuse
index if one is in play, evaluate the heuristic, apply its merge groups
immediately. At each checkpoint block index k the report records |S_k|,
|C_k| and their ratio. Script ids are dense in stream order, as
`ScriptTable` assigns them, so |S_k| is the high-water id: one more than
the largest id so far. A source whose ids skip or go negative is an error.

Heuristics whose reuse horizon is fixed get a first pass over the stream to
precompute occurrence counts before the clustering pass.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable

from .clusters import ClusterSet
from .errors import ConfigError, DataError, csv_rows, parse_int, read_json_object
from .heuristics import (
    COINJOIN_DESCRIPTION,
    HEURISTICS,
    EvalContext,
    HeuristicConfig,
    coinjoin_resistant_common_input,
)
from .pricing import PriceSeries, rounding_exponent
from .reuse import ReuseIndex


@dataclass
class RunConfig:
    heuristic: str
    params: HeuristicConfig = field(default_factory=HeuristicConfig)
    horizon: str | None = None  # None = heuristic's default
    fixed_horizon_block: int | None = None  # None = last block of the dataset
    checkpoint_interval: int | None = 100_000
    checkpoints: list[int] | None = None  # explicit list overrides interval

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise ConfigError(
                f"unknown heuristic {self.heuristic!r}; "
                f"expected one of {', '.join(sorted(HEURISTICS))}"
            )
        if self.horizon not in (None, "online", "fixed"):
            raise ConfigError(f"unknown horizon mode {self.horizon!r}")
        if self.checkpoints is not None:
            if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
                raise ConfigError("checkpoints must be strictly increasing")
        elif self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ConfigError("checkpoint interval must be >= 1")


@dataclass(frozen=True)
class ReportRow:
    block_index: int
    num_scripts: int
    num_clusters: int
    ratio: Fraction
    merges_applied: int
    tx_processed: int


REPORT_HEADER = ["block_index", "num_scripts", "num_clusters", "ratio", "merges_applied", "tx_processed"]


@dataclass
class RatioReport:
    rows: list[ReportRow]
    metadata: dict

    def write_csv(self, sink: IO) -> None:
        writer = csv.writer(sink)
        writer.writerow(REPORT_HEADER)
        for row in self.rows:
            writer.writerow(
                [
                    row.block_index,
                    row.num_scripts,
                    row.num_clusters,
                    f"{float(row.ratio):.6f}",
                    row.merges_applied,
                    row.tx_processed,
                ]
            )

    def write(self, csv_path: str) -> None:
        """Write the report CSV plus its `<stem>.meta.json` sidecar."""
        path = Path(csv_path)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            self.write_csv(fh)
        sidecar = path.with_suffix(".meta.json") if path.suffix else Path(str(path) + ".meta.json")
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def read(cls, csv_path: str) -> "RatioReport":
        """Read a report CSV and its sidecar; the ratio is recomputed exactly."""
        path = Path(csv_path)
        rows = []
        with open(path, newline="", encoding="utf-8") as fh:
            for where, raw in csv_rows(fh, REPORT_HEADER, f"report {path}"):
                block, scripts, clusters, merges, txs = (
                    parse_int(raw[i], where) for i in (0, 1, 2, 4, 5)
                )
                if scripts < 1:
                    raise DataError(f"{where}: num_scripts must be positive, got {scripts}")
                rows.append(
                    ReportRow(block, scripts, clusters, Fraction(clusters, scripts), merges, txs)
                )
        sidecar = path.with_suffix(".meta.json") if path.suffix else Path(str(path) + ".meta.json")
        metadata = {}
        if sidecar.exists():
            metadata = read_json_object(sidecar, "report sidecar", DataError)
        return cls(rows, metadata)


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


def run(
    config: RunConfig, source, price_series: PriceSeries | None = None
) -> tuple[RatioReport, ClusterSet]:
    """Cluster the stream with one heuristic; returns (report, final store).

    `source` must expose `blocks()` (re-iterable for fixed-horizon runs),
    whose script ids are dense in stream order, and the `stats` of its last
    pass.
    """
    spec = HEURISTICS[config.heuristic]

    if spec.needs_prices and price_series is None:
        raise ConfigError(f"heuristic {config.heuristic!r} requires a price series")

    mode = spec.horizon or "none"
    if mode == "full":
        if config.horizon == "online":
            raise ConfigError(
                f"heuristic {config.heuristic!r} requires a fixed full-dataset horizon"
            )
        mode = "fixed"
    elif mode != "none" and config.horizon:
        mode = config.horizon

    fixed_idx: ReuseIndex | None = None
    online_idx: ReuseIndex | None = None
    if mode == "fixed":
        fixed_idx = ReuseIndex.build_fixed(source.blocks(), config.fixed_horizon_block)
    elif mode == "online":
        online_idx = ReuseIndex()

    ctx = EvalContext(config=config.params, reuse=online_idx or fixed_idx)

    store = ClusterSet()
    checkpoints = _Checkpoints(config)
    rows: list[ReportRow] = []
    merges_applied = 0
    tx_processed = 0
    blocks = 0
    hw = 0  # scripts seen so far: ids 0..hw-1
    prev_block: int | None = None

    def record(cp: int) -> None:
        if store.num_scripts == 0:
            return  # ratio undefined before any script is observed
        rows.append(
            ReportRow(cp, store.num_scripts, store.num_clusters,
                      store.clustering_ratio(), merges_applied, tx_processed)
        )

    for block in source.blocks():
        if prev_block is not None and block.index <= prev_block:
            raise DataError(f"block {block.index} after block {prev_block}: stream must be sorted")
        for cp in checkpoints.due_before(block.index):
            record(cp)
        exponent = None
        if spec.needs_prices:
            p = price_series.satoshi_price(block.index)
            if p is not None:
                exponent = rounding_exponent(p, config.params.small_amount)
        ctx.exponent = exponent

        for tx in block.transactions:
            seen = hw
            for side in (tx.inputs, tx.outputs):
                for sid, _ in side:
                    if not 0 <= sid < hw:
                        if sid != hw:
                            raise DataError(f"transaction {tx.txid} in block {block.index}: "
                                            f"script id {sid} is neither seen nor the next id {hw}")
                        hw += 1
            if hw > seen:
                store.register(hw)
            if online_idx is not None:
                online_idx.record(tx)
            proposal = spec.evaluate(tx, ctx)
            eliminated = 0
            for group in proposal.groups:
                eliminated += store.merge_scripts(group)
            if eliminated:
                merges_applied += 1
            tx_processed += 1
        blocks += 1
        prev_block = block.index

    for cp in checkpoints.remaining(prev_block):
        record(cp)

    metadata = {
        "heuristic": config.heuristic,
        "parameters": {
            "min_deposit_inputs": config.params.min_deposit_inputs,
            "small_amount": str(config.params.small_amount),
            "round_offset": config.params.round_offset,
        },
        "horizon": mode,
        "fixed_horizon_block": (
            fixed_idx.horizon_block if fixed_idx is not None else None
        ),
        "coinjoin_predicate": (
            COINJOIN_DESCRIPTION if coinjoin_resistant_common_input in spec.rules else None
        ),
        "checkpoints": (
            config.checkpoints
            if config.checkpoints is not None
            else f"every:{config.checkpoint_interval}"
        ),
        "counts": {
            "blocks": blocks,
            "transactions": tx_processed,
            "scripts": store.num_scripts,
            "coinbase_dropped": source.stats.coinbase_dropped,
            "merges_applied": merges_applied,
        },
    }
    return RatioReport(rows, metadata), store


def compare_runs(reports: list[RatioReport]) -> list[list[str]]:
    """Merge per-heuristic reports into one wide table keyed by checkpoint.

    All reports must share the same checkpoint sequence. Columns are named by
    each sidecar's heuristic. Returns the table as rows of strings, header
    first.
    """
    if not reports:
        raise DataError("nothing to compare")
    names: list[str] = []
    for i, report in enumerate(reports):
        name = str(report.metadata.get("heuristic") or f"run{i}")
        while name in names:
            name += "'"
        names.append(name)
    blocks = [row.block_index for row in reports[0].rows]
    for name, report in zip(names, reports):
        got = [row.block_index for row in report.rows]
        if got != blocks:
            raise DataError(
                f"checkpoint mismatch: {name} has {got}, expected {blocks}"
            )
    table = [["block_index"] + list(names)]
    for i, block in enumerate(blocks):
        table.append([str(block)] + [f"{float(r.rows[i].ratio):.6f}" for r in reports])
    return table
