"""repro — a reproduction of CauSumX: summarized causal explanations for aggregate views.

The package implements the CauSumX framework (SIGMOD 2024) together with every
substrate it relies on: a columnar table engine, a group-by-average query
layer, causal DAGs with backdoor adjustment, regression-based CATE estimation,
causal discovery, Apriori and lattice pattern mining, the LP-rounding
optimiser, the paper's baselines, and generators for the evaluation datasets.

Quickstart
----------
>>> from repro import CauSumX, load_dataset, render_summary
>>> bundle = load_dataset("stackoverflow", n=2000)
>>> summary = CauSumX(bundle.table, bundle.dag).explain(bundle.query)
>>> print(render_summary(summary, outcome="annual salary"))

On Linux, importing the package pins every loaded OpenBLAS to one thread: a
threaded ``ddot``/``gemv`` splits its sum across threads by the host's core
count, so standard errors and p-values would otherwise depend on the machine.
Without ``/proc/self/maps`` (macOS) or with another BLAS (MKL, Accelerate)
nothing is pinned.
"""

import ctypes

from repro.core import (
    CauSumX,
    CauSumXConfig,
    ExplanationPattern,
    ExplanationSummary,
    brute_force,
    brute_force_lp,
    greedy_last_step,
    render_summary,
)
from repro.dataframe import (
    CacheStats,
    Column,
    MaskCache,
    Op,
    Pattern,
    Predicate,
    Table,
    read_csv,
    write_csv,
)
from repro.datasets import DatasetBundle, list_datasets, load_dataset
from repro.graph import CausalDAG
from repro.causal import CATEEstimator, EffectEstimate, estimate_ate, estimate_cate
from repro.sql import AggregateView, GroupByAvgQuery, parse_query

__version__ = "1.0.0"


def _pin_blas_threads() -> None:
    """Set every OpenBLAS mapped into this process (numpy's, and the one
    ``scipy.special`` loads) to one thread; a no-op without OpenBLAS or
    without ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was replaced
            continue
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_"):
            setter = getattr(library, name, None)
            if setter is not None:
                setter(1)
                break


_pin_blas_threads()

__all__ = [
    "CauSumX",
    "CauSumXConfig",
    "ExplanationPattern",
    "ExplanationSummary",
    "brute_force",
    "brute_force_lp",
    "greedy_last_step",
    "render_summary",
    "CacheStats",
    "Column",
    "MaskCache",
    "Op",
    "Pattern",
    "Predicate",
    "Table",
    "read_csv",
    "write_csv",
    "DatasetBundle",
    "list_datasets",
    "load_dataset",
    "CausalDAG",
    "CATEEstimator",
    "EffectEstimate",
    "estimate_ate",
    "estimate_cate",
    "AggregateView",
    "GroupByAvgQuery",
    "parse_query",
    "__version__",
]
