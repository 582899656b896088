"""Unified query planning: one IR, column statistics, selectivity-aware scans.

The repo evaluates the paper's aggregate-view predicates in four places —
the dataframe row kernels, ``AggregateView`` WHERE scans, the storage
layer's zone-map-pruned ``ShardedTable.select``, and the serving engine's
mask/population caches.  ``repro.plan`` is the shared planning layer they
all compile into:

* :mod:`repro.plan.ir` — the logical plan
  (``Scan → Filter → GroupBy → Explain``) with canonical fingerprints that
  key the engine's caches;
* :mod:`repro.plan.stats` — per-column statistics (equi-depth numeric
  histograms, categorical top-k code frequencies, null counts), collected at
  shard commit into the manifest and built lazily for in-memory tables;
* :mod:`repro.plan.planner` — the cost-based conjunct ordering
  (estimated selectivity × kernel cost) and the process-wide counters;
* :mod:`repro.plan.execute` — short-circuit AND execution, with optional
  :class:`~repro.dataframe.MaskCache` routing for repeated subexpressions.

Planning is the only scan path: there is no switch back to an unplanned
one.  Tests assert planned results byte-identical to the plain in-memory
``Table.select``.
"""

from repro.plan.execute import planned_select, planned_select_with_plan, scan_indices
from repro.plan.ir import (
    ExplainNode,
    FilterNode,
    GroupByNode,
    LogicalPlan,
    ScanNode,
    lower_query,
)
from repro.plan.planner import (
    GLOBAL_PLANNER_STATS,
    ConjunctPlan,
    PlannerStats,
    ScanPlan,
    plan_scan,
    predicate_cost,
)
from repro.plan.stats import (
    CategoricalColumnStats,
    NumericColumnStats,
    TableStats,
    column_stats,
    merge_column_stats,
    remap_categorical_codes,
    resolve_store_code,
    shard_stats_may_match,
    stats_from_dict,
    stats_may_match,
    stats_to_dict,
    table_stats,
)

__all__ = [
    "CategoricalColumnStats",
    "ConjunctPlan",
    "ExplainNode",
    "FilterNode",
    "GLOBAL_PLANNER_STATS",
    "GroupByNode",
    "LogicalPlan",
    "NumericColumnStats",
    "PlannerStats",
    "ScanNode",
    "ScanPlan",
    "TableStats",
    "column_stats",
    "lower_query",
    "merge_column_stats",
    "plan_scan",
    "planned_select",
    "planned_select_with_plan",
    "predicate_cost",
    "remap_categorical_codes",
    "resolve_store_code",
    "scan_indices",
    "shard_stats_may_match",
    "stats_from_dict",
    "stats_may_match",
    "stats_to_dict",
    "table_stats",
]
