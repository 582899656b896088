"""Query planning: one IR, and a WHERE scan with one design.

* :mod:`repro.plan.ir` — the logical plan
  (``Scan → Filter → GroupBy → Explain``) with canonical fingerprints that
  key the engine's caches;
* :mod:`repro.plan.execute` — the WHERE scan: ``np.flatnonzero`` of the
  pattern's mask, optionally served from a
  :class:`~repro.dataframe.MaskCache`; a stored table first skips the
  shards its zone maps prove empty
  (:meth:`~repro.storage.dataset.ShardedTable.plan_shard_select`);
* :mod:`repro.plan.planner` — :class:`ScanPlan`, what one scan measured,
  and the process-wide scan counters.

Tests assert every scan's rows equal the plain in-memory ``Table.select``.
"""

from repro.plan.execute import planned_select_with_plan, scan_indices
from repro.plan.ir import (
    ExplainNode,
    FilterNode,
    GroupByNode,
    LogicalPlan,
    ScanNode,
    lower_query,
)
from repro.plan.planner import GLOBAL_PLANNER_STATS, PlannerStats, ScanPlan

__all__ = [
    "ExplainNode",
    "FilterNode",
    "GLOBAL_PLANNER_STATS",
    "GroupByNode",
    "LogicalPlan",
    "PlannerStats",
    "ScanNode",
    "ScanPlan",
    "lower_query",
    "planned_select_with_plan",
    "scan_indices",
]
