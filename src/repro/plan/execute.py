"""WHERE scan execution: one mask AND over the table's rows.

A conjunctive pattern's rows are ``np.flatnonzero`` of its mask, the AND of
its predicates' masks in the pattern's canonical order — exactly what the
in-memory ``Table.select`` computes, so a scan's rows are
``table.select(pattern)``'s.  With a :class:`~repro.dataframe.MaskCache`
the predicate masks come from the cache, so a predicate that recurs across
queries is evaluated once.

A stored table (:class:`~repro.storage.dataset.ShardedTable`) first skips
the shards its zone maps prove empty and then scans the rest the same way
(``plan_shard_select``); it does not use the mask cache, whose full-table
masks would decode the very shards the zone maps skip.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe.predicates import Pattern, Predicate
from repro.plan.planner import ScanPlan


def scan_indices(table, condition, mask_cache=None) -> np.ndarray:
    """Row indices satisfying every conjunct, in ascending order."""
    pattern = Pattern([condition]) if isinstance(condition, Predicate) \
        else condition
    if mask_cache is not None:
        return np.flatnonzero(mask_cache.pattern_mask(pattern))
    return np.flatnonzero(pattern.evaluate(table))


def planned_select_with_plan(table, condition, mask_cache=None):
    """``(filtered table, ScanPlan | None)`` for one selection.

    Falls back to ``table.select`` (returning ``None`` for the plan) when
    the condition is not a conjunctive pattern.  Storage-backed tables
    delegate to their ``plan_shard_select``.
    """
    if not isinstance(condition, (Pattern, Predicate)):
        return table.select(condition), None
    shard_select = getattr(table, "plan_shard_select", None)
    if shard_select is not None:
        return shard_select(condition)
    indices = scan_indices(table, condition, mask_cache=mask_cache)
    return table.take(indices), ScanPlan(rows_in=table.n_rows,
                                         rows_out=int(indices.size))
