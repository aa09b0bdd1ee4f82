"""Command-line entry point.

Exit codes: 0 success, 2 usage error, 3 data error. Progress and log output
go to stderr; when --out is omitted, results are printed to stdout as plain
CSV/JSON for piping. The ENTITYFORGE_LOG environment variable sets the log
level (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
from decimal import Decimal, InvalidOperation
from io import StringIO

from . import engine
from .chain import JsonlSource
from .clusters import load_snapshot
from .errors import ConfigError, EntityForgeError, GenerationError, read_json_object
from .heuristics import HEURISTICS, HeuristicConfig
from .pricing import exponent_series, load_price_csv
from .synth import GenParams, generate_files, read_truth, score

log = logging.getLogger("entityforge")

USAGE_EXIT = 2
DATA_EXIT = 3


_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}


def _setup_logging() -> None:
    """An unknown ENTITYFORGE_LOG value falls back to warning."""
    level = os.environ.get("ENTITYFORGE_LOG", "warning").lower()
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _parse_checkpoints(text: str) -> tuple[list[int] | None, int | None]:
    """A single integer means an interval; a comma list means explicit points."""
    parts = [p for p in text.split(",") if p]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad --checkpoints value: {text!r}")
    if not values:
        raise ConfigError("--checkpoints needs at least one integer")
    if len(values) == 1 and "," not in text:
        return None, values[0]
    return values, None


def _parse_blocks(text: str) -> list[int]:
    """Comma-separated block indices; items may be start:end[:step] ranges."""
    blocks: list[int] = []
    for item in text.split(","):
        if not item:
            continue
        try:
            values = [int(piece) for piece in item.split(":")]
        except ValueError:
            raise ConfigError(f"bad --blocks item: {item!r}") from None
        if len(values) == 1:
            blocks.extend(values)
            continue
        if len(values) > 3:
            raise ConfigError(f"bad --blocks range: {item!r}")
        start, end, step = values if len(values) == 3 else (*values, 1)
        if step < 1 or end < start:
            raise ConfigError(f"bad --blocks range: {item!r}")
        blocks.extend(range(start, end + 1, step))
    if not blocks:
        raise ConfigError("--blocks needs at least one index")
    return blocks


def _decimal(text: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
    return value


def _emit(text: str, out: str | None) -> int:
    """Write a command's result to `out`, or to stdout when it is omitted."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_prices(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        return load_price_csv(fh)


# Each run setting's default, and the JSON types a --config file may give it
# (never a bool); x must also parse as a decimal.
_RUN_SETTINGS = {
    "a": (25, (int,)),
    "x": (Decimal(1), (int, float, str)),
    "j": (1, (int,)),
    "horizon": (None, (str, type(None))),
    "checkpoints": (None, (str, int, type(None))),
    "prices": (None, (str, type(None))),
}


def _effective_run_settings(args: argparse.Namespace) -> dict:
    """Setting precedence: explicit flags, then --config file, then defaults."""
    settings = {key: default for key, (default, _) in _RUN_SETTINGS.items()}
    if args.config:
        raw = read_json_object(args.config, "config file", ConfigError)
        unknown = set(raw) - set(_RUN_SETTINGS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            types = _RUN_SETTINGS[key][1]
            if isinstance(value, bool) or not isinstance(value, types):
                kinds = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(f"config key {key} must be {kinds}, got {value!r}")
        if "x" in raw:
            try:
                raw["x"] = _decimal(str(raw["x"]))
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"config key x: {exc}") from None
        if "checkpoints" in raw and raw["checkpoints"] is not None:
            raw["checkpoints"] = str(raw["checkpoints"])
        settings.update(raw)
    for key in _RUN_SETTINGS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    return settings


def cmd_run(args: argparse.Namespace) -> int:
    heuristic = args.heuristic
    settings = _effective_run_settings(args)
    needs_prices = HEURISTICS[heuristic].needs_prices
    if needs_prices and not settings["prices"]:
        raise ConfigError(f"heuristic '{heuristic}' needs a price file; pass --prices <csv>")

    explicit, interval = (None, 100_000)
    if settings["checkpoints"]:
        explicit, interval = _parse_checkpoints(settings["checkpoints"])

    config = engine.RunConfig(
        heuristic=heuristic,
        params=HeuristicConfig(
            min_deposit_inputs=settings["a"],
            small_amount=settings["x"],
            round_offset=settings["j"],
        ),
        horizon=settings["horizon"],
        checkpoints=explicit,
        checkpoint_interval=interval,
    )
    source = JsonlSource(args.tx)
    prices = _load_prices(settings["prices"]) if needs_prices else None

    log.info("running heuristic %s over %s", heuristic, args.tx)
    report, store = engine.run(config, source, price_series=prices)

    if args.out:
        report.write(args.out)
        log.info("report written to %s", args.out)
    else:
        buf = StringIO()
        report.write_csv(buf)
        sys.stdout.write(buf.getvalue())
    if args.snapshot:
        if args.snapshot.endswith(".bin"):
            with open(args.snapshot, "wb") as fh:
                store.write_snapshot_binary(fh)
        else:
            with open(args.snapshot, "w", newline="", encoding="utf-8") as fh:
                store.write_snapshot_csv(fh)
        log.info("snapshot written to %s", args.snapshot)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    reports = [engine.RatioReport.read(path) for path in args.reports]
    table = engine.compare_runs(reports)
    lines = [",".join(row) for row in table]
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_synth(args: argparse.Namespace) -> int:
    raw = {}
    if args.params:
        raw = read_json_object(args.params, "params file", GenerationError)
    params = GenParams.from_dict(raw)
    paths = generate_files(args.out_prefix, args.seed, params)
    log.info("synthetic stream written: %s", paths)
    print(json.dumps(paths, sort_keys=True))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    partition = load_snapshot(args.snapshot)
    truth = read_truth(args.truth)
    metrics = score(partition, truth)
    return _emit(json.dumps(metrics, indent=2, sort_keys=True) + "\n", args.out)


def cmd_exponent_series(args: argparse.Namespace) -> int:
    series = _load_prices(args.prices)
    blocks = _parse_blocks(args.blocks)
    rows = exponent_series(series, args.x, blocks)
    omitted = len(blocks) - len(rows)
    if omitted:
        print(f"warning: {omitted} block(s) precede the price data; omitted", file=sys.stderr)
    lines = ["block_index,i"] + [f"{block},{i}" for block, i in rows]
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_validate(args: argparse.Namespace) -> int:
    source = JsonlSource(args.tx)
    for _ in source.blocks():
        pass
    stats = source.stats
    summary = {
        "blocks": stats.blocks,
        "transactions": stats.transactions,
        "distinct_scripts": len(source.table),
        "coinbase_dropped": stats.coinbase_dropped,
        "first_block": stats.first_block,
        "last_block": stats.last_block,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entityforge",
        description="Cluster locking scripts by replaying a transaction stream "
        "through merge heuristics and tracking the clustering ratio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay a stream with one heuristic and report ratios")
    run_p.add_argument("--tx", required=True, help="transaction JSONL file (.gz accepted)")
    run_p.add_argument("--heuristic", required=True, choices=sorted(HEURISTICS))
    run_p.add_argument("--prices", help="price CSV (required for round/combined)")
    run_p.add_argument("--config", help="JSON file with defaults for the flags below")
    run_p.add_argument("--a", type=int, help="deposit sweep input threshold (default 25)")
    run_p.add_argument("--x", type=_decimal, help="small dollar amount (default 1)")
    run_p.add_argument("--j", type=int, help="sub-precision offset for change (default 1)")
    run_p.add_argument("--horizon", choices=["online", "fixed"], default=None)
    run_p.add_argument(
        "--checkpoints",
        help="single integer = every N blocks (default 100000); comma list = explicit indices",
    )
    run_p.add_argument("--out", help="report CSV path (stdout if omitted)")
    run_p.add_argument("--snapshot", help="final partition path (.bin = binary, else CSV)")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="merge report CSVs into one wide table")
    cmp_p.add_argument("reports", nargs="+", help="report CSV paths")
    cmp_p.add_argument("--out")
    cmp_p.set_defaults(func=cmd_compare)

    synth_p = sub.add_parser("synth", help="generate a synthetic stream with ground truth")
    synth_p.add_argument("--seed", type=int, required=True)
    synth_p.add_argument("--params", help="generation parameters JSON file")
    synth_p.add_argument("--out-prefix", required=True)
    synth_p.set_defaults(func=cmd_synth)

    score_p = sub.add_parser("score", help="score a partition snapshot against ground truth")
    score_p.add_argument("--snapshot", required=True)
    score_p.add_argument("--truth", required=True)
    score_p.add_argument("--out")
    score_p.set_defaults(func=cmd_score)

    exp_p = sub.add_parser("exponent-series", help="per-block rounding exponent CSV")
    exp_p.add_argument("--prices", required=True)
    exp_p.add_argument("--x", type=_decimal, default=Decimal(1))
    exp_p.add_argument("--blocks", required=True, help="e.g. 100,200 or 0:700000:1000")
    exp_p.add_argument("--out")
    exp_p.set_defaults(func=cmd_exponent_series)

    val_p = sub.add_parser("validate", help="parse and validate a stream; print a summary")
    val_p.add_argument("--tx", required=True)
    val_p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command builds only acyclic data, so the cyclic collector would scan a growing
    # heap and find no garbage; the caller's setting comes back however the command ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except EntityForgeError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return DATA_EXIT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
