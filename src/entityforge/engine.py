"""Replay a block stream, apply one heuristic, and checkpoint the ratio.

The run starts from the atomic clustering and processes blocks in stream order:
grow the store, and the online reuse index if any, to the block's script count,
then per transaction record it into the online index, evaluate the heuristic
and apply its merge groups at once. At each checkpoint block index k the report
records |S_k|, |C_k| and their ratio. The source vouches for the stream: its
blocks are sorted, its ids dense in stream order, and each block carries the
number of scripts seen through it, |S_k|. The decoder makes them so, and a
`MemorySource` checks and counts its blocks once, when it is made.

Heuristics whose reuse horizon is fixed read the source's fixed counts, made
once per stream. A JSONL source is first decoded once into a `PackedStream`,
counted as it is packed, and the clustering pass replays that.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import IO

from .chain import JsonlSource
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
    checkpoints: int | list[int] = 100_000  # an int is an interval, a list explicit blocks

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise ConfigError(
                f"unknown heuristic {self.heuristic!r}; "
                f"expected one of {', '.join(sorted(HEURISTICS))}"
            )
        if self.horizon not in (None, "online", "fixed"):
            raise ConfigError(f"unknown horizon mode {self.horizon!r}")
        if isinstance(self.checkpoints, int):
            if self.checkpoints < 1:
                raise ConfigError("checkpoint interval must be >= 1")
        elif any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ConfigError("checkpoints must be strictly increasing")


@dataclass(frozen=True)
class ReportRow:
    block_index: int
    num_scripts: int
    num_clusters: int
    merges_applied: int
    tx_processed: int

    @property
    def ratio(self) -> Fraction:
        """|C_k| / |S_k|, exact."""
        return Fraction(self.num_clusters, self.num_scripts)

    def csv_fields(self) -> list[str]:
        """The row as `REPORT_HEADER`'s fields, the ratio with six decimals."""
        return [str(self.block_index), str(self.num_scripts), str(self.num_clusters),
                f"{self.num_clusters / self.num_scripts:.6f}",
                str(self.merges_applied), str(self.tx_processed)]


REPORT_HEADER = ["block_index", "num_scripts", "num_clusters", "ratio", "merges_applied", "tx_processed"]


@dataclass
class RatioReport:
    rows: list[ReportRow]
    metadata: dict

    def write_csv(self, sink: IO) -> None:
        writer = csv.writer(sink)
        writer.writerow(REPORT_HEADER)
        writer.writerows(row.csv_fields() for row in self.rows)

    def write(self, csv_sink: IO, meta_sink: IO | None) -> None:
        """Write the report CSV and, given a sidecar sink, the metadata `<stem>.meta.json` holds."""
        self.write_csv(csv_sink)
        if meta_sink is not None:
            json.dump(self.metadata, meta_sink, indent=2, sort_keys=True)
            meta_sink.write("\n")

    @classmethod
    def read(cls, csv_path: str) -> "RatioReport":
        """Read a report CSV and its sidecar; the ratio is recomputed exactly.

        A row must be one that `write_csv` could have written: each field the text
        `csv_fields` renders from its counts, no negative count, its block index above
        the row before, and no script, merge or transaction count below the row before."""
        path = Path(csv_path)
        rows = []
        with open(path, newline="", encoding="utf-8") as fh:
            for where, raw in csv_rows(fh, REPORT_HEADER, f"report {path}"):
                block, scripts, clusters, merges, txs = (
                    parse_int(raw[i], where) for i in (0, 1, 2, 4, 5)
                )
                if scripts < 1:
                    raise DataError(f"{where}: num_scripts must be positive, got {scripts}")
                if not 1 <= clusters <= scripts:
                    raise DataError(f"{where}: num_clusters must be in 1..{scripts}, got {clusters}")
                row = ReportRow(block, scripts, clusters, merges, txs)
                for name, text, rendered in zip(REPORT_HEADER, raw, row.csv_fields()):
                    if text != rendered:
                        raise DataError(f"{where}: {name} must be {rendered}, got {text!r}")
                for name, count in (("merges_applied", merges), ("tx_processed", txs)):
                    if count < 0:
                        raise DataError(f"{where}: {name} must be non-negative, got {count}")
                if rows and block <= rows[-1].block_index:
                    raise DataError(f"{where}: block_index {block} is not above the previous "
                                    f"row's {rows[-1].block_index}")
                for name in ("num_scripts", "merges_applied", "tx_processed"):
                    if rows and (count := getattr(row, name)) < (before := getattr(rows[-1], name)):
                        raise DataError(f"{where}: {name} {count} is below the previous "
                                        f"row's {before}")
                rows.append(row)
        sidecar = sidecar_path(path)
        metadata = {}
        if sidecar.exists():
            metadata = read_json_object(sidecar, "report sidecar", DataError)
        return cls(rows, metadata)


def sidecar_path(csv_path) -> Path:
    """`<stem>.meta.json` beside a report CSV."""
    path = Path(csv_path)
    return path.with_suffix(".meta.json") if path.suffix else Path(str(path) + ".meta.json")


def run(
    config: RunConfig, source, price_series: PriceSeries | None = None
) -> tuple[RatioReport, ClusterSet]:
    """Cluster the stream with one heuristic; returns (report, final store).

    `source` must expose `blocks()`, sorted by index, with ids dense in stream
    order and each block's script count; `coinbase_dropped`, of its last pass;
    and, unless it is a `JsonlSource`, the `fixed` counts of a fixed-horizon run.
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

    online_idx = ReuseIndex() if mode == "online" else None
    if mode == "fixed" and isinstance(source, JsonlSource):  # one decode, counted as packed
        source = source.pack()
    ctx = EvalContext(config=config.params, reuse=source.fixed if mode == "fixed" else online_idx)

    store = ClusterSet()
    # Checkpoints come due as the stream passes them; None means none is left.
    interval = config.checkpoints if isinstance(config.checkpoints, int) else None
    due = itertools.count(interval, interval) if interval else iter(config.checkpoints)
    cp = next(due, None)
    rows: list[ReportRow] = []
    merges_applied = 0
    tx_processed = 0
    blocks = 0
    prev_block: int | None = None

    def record(at: int) -> None:
        if store.num_scripts:  # no ratio before any script is observed
            rows.append(ReportRow(at, store.num_scripts, store.num_clusters,
                                  merges_applied, tx_processed))

    # Bound once per run: a tracer that times these entries patches them before `run`.
    evaluate, merge = spec.evaluate, store.merge_scripts
    count_tx = online_idx.record if online_idx is not None else None
    for block in source.blocks():
        while cp is not None and cp < block.index:
            record(cp)
            cp = next(due, None)
        if spec.needs_prices:
            p = price_series.satoshi_price(block.index)
            ctx.exponent = (None if p is None
                            else rounding_exponent(p, config.params.small_amount))

        txs = block.transactions
        store.register(block.scripts)
        if online_idx is not None:
            online_idx.register(block.scripts)
        for tx in txs:
            if online_idx is not None:
                count_tx(tx)
            groups = evaluate(tx, ctx).groups
            if groups and sum(map(merge, groups)):
                merges_applied += 1
        tx_processed += len(txs)
        blocks += 1
        prev_block = block.index

    # The loop recorded every point below the last block. An interval then closes the
    # report at the last block, once; explicit points left report the final clustering.
    # Without a block the store has no script, so `record` adds no row.
    for at in (prev_block,) if interval else () if cp is None else (cp, *due):
        record(at)

    metadata = {
        "heuristic": config.heuristic,
        "parameters": {**asdict(config.params), "small_amount": str(config.params.small_amount)},
        "horizon": mode,
        "fixed_horizon_block": prev_block if mode == "fixed" else None,
        "coinjoin_predicate": (
            COINJOIN_DESCRIPTION if coinjoin_resistant_common_input in spec.rules else None
        ),
        "checkpoints": f"every:{interval}" if interval else config.checkpoints,
        "counts": {
            "blocks": blocks,
            "transactions": tx_processed,
            "scripts": store.num_scripts,
            "coinbase_dropped": source.coinbase_dropped,
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
        table.append([str(block)] + [r.rows[i].csv_fields()[3] for r in reports])
    return table
