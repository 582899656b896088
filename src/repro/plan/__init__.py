"""Query planning: a WHERE scan with one design.

* :mod:`repro.plan.execute` — the WHERE scan: ``np.flatnonzero`` of the
  pattern's mask, optionally served from a
  :class:`~repro.dataframe.MaskCache`; a stored table first skips the
  shards its zone maps prove empty
  (:meth:`~repro.storage.dataset.ShardedTable.plan_shard_select`);
* :mod:`repro.plan.planner` — :class:`ScanPlan`, what one scan measured,
  and the process-wide scan counters.

Tests assert every scan's rows equal the plain in-memory ``Table.select``.
A query's cache keys and plan rendering live on the canonical
:class:`~repro.sql.GroupByAvgQuery`.
"""

from repro.plan.execute import planned_select_with_plan, scan_indices
from repro.plan.planner import GLOBAL_PLANNER_STATS, PlannerStats, ScanPlan
from repro.sql.query import normalize_query

#: An alias kept only because the e2e benchmark's verifier calls
#: ``lower_query(canonical).fingerprint`` (``benchmarks/e2e/harness.py``);
#: the canonical query carries that fingerprint itself.
lower_query = normalize_query

__all__ = [
    "GLOBAL_PLANNER_STATS",
    "PlannerStats",
    "ScanPlan",
    "planned_select_with_plan",
    "scan_indices",
]
