"""Script clustering over transaction streams via merge heuristics."""

from .chain import (
    Block,
    JsonlSource,
    MemorySource,
    ScriptTable,
    Transaction,
    validate_transaction,
)
from .clusters import ClusterSet, load_snapshot
from .engine import RatioReport, RunConfig, compare_runs, run
from .heuristics import HEURISTICS, EvalContext, HeuristicConfig, MergeProposal
from .pricing import PriceSeries, exponent_series, load_price_csv, rounding_exponent
from .reuse import ReuseIndex
from .synth import GenParams, generate, generate_files, score

__all__ = [
    "Block",
    "ClusterSet",
    "EvalContext",
    "GenParams",
    "HEURISTICS",
    "HeuristicConfig",
    "JsonlSource",
    "MemorySource",
    "MergeProposal",
    "PriceSeries",
    "RatioReport",
    "ReuseIndex",
    "RunConfig",
    "ScriptTable",
    "Transaction",
    "compare_runs",
    "exponent_series",
    "generate",
    "generate_files",
    "load_price_csv",
    "load_snapshot",
    "rounding_exponent",
    "run",
    "score",
    "validate_transaction",
]

__version__ = "0.1.0"
