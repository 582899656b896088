"""Planned scan execution: short-circuit AND over ordered conjuncts.

The executor turns a :class:`~repro.plan.planner.ScanPlan` into row indices:

* the first (most selective × cheapest) conjunct evaluates as a full
  vectorized kernel over the table;
* every later conjunct evaluates **only over the surviving candidate rows**
  (:meth:`~repro.dataframe.Predicate.evaluate_at`), so a selective leading
  predicate collapses the work of everything behind it;
* with a :class:`~repro.dataframe.MaskCache`, conjuncts route through the
  cache instead — full masks are computed once and *reused across scans*
  (repeated subexpressions across queries cost one AND), which beats subset
  evaluation as soon as a predicate recurs.

Candidate indices stay sorted ascending throughout, so
``table.take(scan_indices(...))`` returns **exactly** the rows
``table.select(pattern)`` returns — planning is pure scheduling.  The one
observable difference is error *reach*: a predicate whose evaluation would
raise (e.g. an un-orderable comparison) over rows that an earlier conjunct
already excluded never sees those rows, mirroring what zone-map shard
skipping already does for rows in skipped shards.

Actual per-conjunct selectivities (satisfied fraction of the candidates each
conjunct received) are written back into the plan, which is how
``explain_plan`` reports estimated-vs-actual.

Planning has no off switch: every pattern scan of an aggregate view, and
every ``ShardedTable.select``, runs through here.  The plain in-memory
``Table.select`` (left-to-right full masks) is the reference the tests
compare against.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe.predicates import Pattern, Predicate
from repro.obs import trace
from repro.plan.planner import ScanPlan, plan_scan
from repro.plan.stats import TableStats


def scan_indices(table, plan: ScanPlan, mask_cache=None) -> np.ndarray:
    """Row indices satisfying every conjunct, in ascending order."""
    n = table.n_rows
    plan.rows_in = n
    if not plan.conjuncts:
        plan.rows_out = n
        return np.arange(n)
    # One span per conjunct with estimated vs actual selectivity attributes;
    # `traced` is resolved once so the hot loop stays branch-and-go when off.
    traced = trace.enabled()
    first = plan.conjuncts[0]
    with _conjunct_span(first, traced):
        if mask_cache is not None:
            mask = mask_cache.predicate_mask(first.predicate)
        else:
            mask = first.predicate.evaluate(table)
        indices = np.flatnonzero(mask)
        _record(first, n, indices.size, traced)
    for conjunct in plan.conjuncts[1:]:
        with _conjunct_span(conjunct, traced):
            before = indices.size
            if mask_cache is not None:
                satisfied = mask_cache.predicate_mask(
                    conjunct.predicate)[indices]
            else:
                satisfied = conjunct.predicate.evaluate_at(table, indices)
            indices = indices[satisfied]
            _record(conjunct, before, indices.size, traced)
    plan.rows_out = int(indices.size)
    return indices


def _conjunct_span(conjunct, traced: bool):
    if not traced:
        return trace.NOOP
    return trace.trace_span(
        "plan.conjunct", predicate=repr(conjunct.predicate),
        estimated_selectivity=round(conjunct.estimated_selectivity, 6))


def _record(conjunct, candidates_in: int, candidates_out: int,
            traced: bool = False) -> None:
    conjunct.candidates_in = int(candidates_in)
    conjunct.candidates_out = int(candidates_out)
    conjunct.actual_selectivity = (candidates_out / candidates_in
                                   if candidates_in else 0.0)
    if traced:
        trace.set_current_attr(
            actual_selectivity=round(conjunct.actual_selectivity, 6),
            candidates_in=conjunct.candidates_in,
            candidates_out=conjunct.candidates_out)


def planned_select_with_plan(table, condition, mask_cache=None,
                             stats: TableStats | None = None):
    """``(filtered table, executed ScanPlan | None)`` for one selection.

    Falls back to ``table.select`` (returning ``None`` for the plan) when
    the condition is not a conjunctive pattern.  Storage-backed tables that
    implement ``plan_shard_select``
    (:class:`~repro.storage.dataset.ShardedTable`) delegate to it so shard
    skipping and conjunct ordering compose; that path uses the mask cache
    only as a store-code memo (repeated hot predicates skip the store-vocab
    lookup) — full-table *masks* would force-decode the very shards the zone
    maps and statistics are there to skip.
    """
    if not isinstance(condition, (Pattern, Predicate)):
        return table.select(condition), None
    shard_select = getattr(table, "plan_shard_select", None)
    if shard_select is not None:
        return shard_select(condition, mask_cache=mask_cache)
    plan = plan_scan(table, condition, stats=stats)
    indices = scan_indices(table, plan, mask_cache=mask_cache)
    return table.take(indices), plan


def planned_select(table, condition, mask_cache=None):
    """The filtered table alone (drop-in for ``table.select(condition)``)."""
    filtered, _ = planned_select_with_plan(table, condition,
                                           mask_cache=mask_cache)
    return filtered
