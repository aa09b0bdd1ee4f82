"""Command-line entry point.

Exit codes: 0 success, 2 usage error, 3 data error. Progress and log output
go to stderr; when --out is omitted, results are printed to stdout as plain
CSV/JSON for piping. Progress lines are logged at INFO and printed when the
ENTITYFORGE_LOG environment variable is `info` or `debug`; any other value, or
none, prints none.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import logging
import os
import sys
from contextlib import contextmanager
from decimal import Decimal
from itertools import chain
from typing import IO, Iterator

from . import engine
from .chain import JsonlSource
from .clusters import load_snapshot
from .errors import (
    ConfigError,
    EntityForgeError,
    GenerationError,
    is_int_text,
    names_regular_file,
    output_files,
    parse_decimal,
    read_json_object,
)
from .heuristics import HEURISTICS, HeuristicConfig
from .pricing import exponent_series, load_price_csv
from .synth import GenParams, generate_files, read_truth, score

log = logging.getLogger("entityforge")

USAGE_EXIT = 2
DATA_EXIT = 3
# A refusal is one line: whatever `str.splitlines` breaks on, from a txid or a path, is escaped.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _setup_logging() -> None:
    """The program logs only at INFO, so `info` and `debug` are the values that print."""
    verbose = os.environ.get("ENTITYFORGE_LOG", "").lower() in ("info", "debug")
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _parse_checkpoints(text: str) -> int | list[int]:
    """A single integer means an interval; a comma list means explicit points."""
    parts = [p for p in text.split(",") if p]
    if not all(map(is_int_text, parts)):
        raise ConfigError(f"bad --checkpoints value: {text!r}")
    values = [int(p) for p in parts]
    if not values:
        raise ConfigError("--checkpoints needs at least one integer")
    if len(values) == 1 and "," not in text:
        return values[0]
    return values


def _parse_blocks(text: str) -> list[range]:
    """Comma-separated block indices; items may be start:end[:step] ranges."""
    blocks: list[range] = []
    for item in text.split(","):
        if not item:
            continue
        pieces = item.split(":")
        if not all(map(is_int_text, pieces)):
            raise ConfigError(f"bad --blocks item: {item!r}")
        values = [int(piece) for piece in pieces]
        if len(values) == 1:
            blocks.append(range(values[0], values[0] + 1))
            continue
        if len(values) > 3:
            raise ConfigError(f"bad --blocks range: {item!r}")
        start, end, step = values if len(values) == 3 else (*values, 1)
        if step < 1 or end < start:
            raise ConfigError(f"bad --blocks range: {item!r}")
        blocks.append(range(start, end + 1, step))
    if not blocks:
        raise ConfigError("--blocks needs at least one index")
    return blocks


def _int(text: str) -> int:
    """An integer flag: an optional `-`, then ASCII digits, as in every CSV integer field."""
    if not is_int_text(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _decimal(text: str) -> Decimal:
    value = parse_decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
    return value


@contextmanager
def _result_sink(out: str | None) -> Iterator[IO]:
    """The file a command writes its result to: `out`, all or nothing, or stdout."""
    if not out:
        yield sys.stdout
        return
    with output_files() as open_output:
        yield open_output(out)


def _load_prices(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        return load_price_csv(fh)


# The JSON types a --config file may give each run flag (never a bool); null means the default.
_CONFIG_TYPES = {
    "a": (int,),
    "x": (int, float, str),
    "j": (int,),
    "horizon": (str, type(None)),
    "checkpoints": (str, int, type(None)),
    "prices": (str, type(None)),
}


def _config_flags(path: str) -> list[str]:
    """The --config file's values as flag text, for the flags' own `type=` to convert."""
    raw = read_json_object(path, "config file", ConfigError)
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        types = _CONFIG_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            kinds = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ConfigError(f"config key {key} must be {kinds}, got {value!r}")
    return [f"--{key}={value}" for key, value in raw.items() if value is not None]


def cmd_run(args: argparse.Namespace) -> int:
    heuristic = args.heuristic
    needs_prices = HEURISTICS[heuristic].needs_prices
    if needs_prices and not args.prices:
        raise ConfigError(f"heuristic '{heuristic}' needs a price file; pass --prices <csv>")

    config = engine.RunConfig(
        heuristic=heuristic,
        params=HeuristicConfig(min_deposit_inputs=args.a, small_amount=args.x, round_offset=args.j),
        horizon=args.horizon,
        checkpoints=args.checkpoints,
    )
    source = JsonlSource(args.tx)
    prices = _load_prices(args.prices) if needs_prices else None
    binary = (args.snapshot or "").endswith(".bin")

    # Every output is open before the replay, so an unwritable path costs no work.
    with output_files() as open_output:
        report_sink, meta_sink = sys.stdout, None
        if args.out:
            report_sink = open_output(args.out)
            if names_regular_file(args.out):  # a device or pipe gets no sidecar, as stdout does
                meta_sink = open_output(engine.sidecar_path(args.out))
        if args.snapshot:
            snapshot_sink = open_output(args.snapshot, "wb" if binary else "w")

        log.info("running heuristic %s over %s", heuristic, args.tx)
        report, store = engine.run(config, source, price_series=prices)

        report.write(report_sink, meta_sink)
        if args.snapshot:
            (store.write_snapshot_binary if binary else store.write_snapshot_csv)(snapshot_sink)
    if args.out:
        log.info("report written to %s", args.out)
    if args.snapshot:
        log.info("snapshot written to %s", args.snapshot)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    header, *rows = engine.compare_runs([engine.RatioReport.read(path) for path in args.reports])
    line = io.StringIO()  # csv quotes a name holding "\r" or "\n" only under the "\r\n" ending
    csv.writer(line).writerow(header)
    with _result_sink(args.out) as sink:
        sink.write(line.getvalue()[:-2] + "\n")
        csv.writer(sink, lineterminator="\n").writerows(rows)
    return 0


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
    # The output is open before the inputs are read, so an unwritable path costs no work.
    with _result_sink(args.out) as sink:
        labels = load_snapshot(args.snapshot)
        truth = read_truth(args.truth)
        metrics = score(labels, truth)
        sink.write(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_exponent_series(args: argparse.Namespace) -> int:
    HeuristicConfig(small_amount=args.x)  # refuses an x at or below zero, as `run` does
    rows = exponent_series(_load_prices(args.prices), args.x, chain.from_iterable(args.blocks))
    written = 0

    def lines():
        nonlocal written
        yield "block_index,i\n"
        for block, i in rows:
            written += 1
            yield f"{block},{i}\n"

    with _result_sink(args.out) as sink:
        sink.writelines(lines())
    omitted = sum(map(len, args.blocks)) - written
    if omitted:
        print(f"warning: {omitted} block(s) precede the price data; omitted", file=sys.stderr)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    source = JsonlSource(args.tx)
    sizes = {block.index: len(block.transactions) for block in source.blocks()}
    summary = {
        "blocks": len(sizes),
        "transactions": sum(sizes.values()),
        "distinct_scripts": len(source.table),
        "coinbase_dropped": source.coinbase_dropped,
        "first_block": min(sizes, default=None),
        "last_block": max(sizes, default=None),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose every refusal is a ConfigError, reported by `main` as one line."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    run_p.add_argument("--a", type=_int, default=HeuristicConfig.min_deposit_inputs,
                       help="deposit sweep input threshold (default %(default)s)")
    run_p.add_argument("--x", type=_decimal, default=HeuristicConfig.small_amount,
                       help="small dollar amount (default %(default)s)")
    run_p.add_argument("--j", type=_int, default=HeuristicConfig.round_offset,
                       help="sub-precision offset for change (default %(default)s)")
    run_p.add_argument("--horizon", choices=["online", "fixed"], default=None)
    run_p.add_argument(
        "--checkpoints", type=_parse_checkpoints, default=engine.RunConfig.checkpoints,
        help="single integer = every N blocks (default %(default)s); "
        "comma list = explicit indices",
    )
    run_p.add_argument("--out", help="report CSV path (stdout if omitted)")
    run_p.add_argument("--snapshot", help="final partition path (.bin = binary, else CSV)")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="merge report CSVs into one wide table")
    cmp_p.add_argument("reports", nargs="+", help="report CSV paths")
    cmp_p.add_argument("--out")
    cmp_p.set_defaults(func=cmd_compare)

    synth_p = sub.add_parser("synth", help="generate a synthetic stream with ground truth")
    synth_p.add_argument("--seed", type=_int, required=True)
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
    exp_p.add_argument("--x", type=_decimal, default=HeuristicConfig.small_amount)
    exp_p.add_argument("--blocks", type=_parse_blocks, required=True,
                       help="e.g. 100,200 or 0:700000:1000")
    exp_p.add_argument("--out")
    exp_p.set_defaults(func=cmd_exponent_series)

    val_p = sub.add_parser("validate", help="parse and validate a stream; print a summary")
    val_p.add_argument("--tx", required=True)
    val_p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command builds only acyclic data, so the cyclic collector would scan a growing
    # heap and find no garbage; the caller's setting comes back however the command ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The file's values go ahead of the user's flags, and argparse keeps a
            # flag's last occurrence, so a flag given on the command line wins.
            cut = argv.index("run") + 1
            args = parser.parse_args(argv[:cut] + _config_flags(args.config) + argv[cut:])
        return args.func(args)
    except (EntityForgeError, OSError) as exc:
        message = str(exc).translate(_LINE_BREAKS)
        print(f"error[{getattr(exc, 'category', 'io')}]: {message}", file=sys.stderr)
        return USAGE_EXIT if isinstance(exc, ConfigError) else DATA_EXIT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
