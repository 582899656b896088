"""Cost-based physical planning of conjunctive scans.

Given a table, its statistics, and a filter's conjuncts, the planner produces
an ordered schedule: conjuncts sorted ascending by ``estimated selectivity ×
evaluation cost``, so the most selective *cheap* predicate runs first over
the whole table and every later predicate evaluates over the shrinking
candidate set only (short-circuit AND — see :mod:`repro.plan.execute`).

The cost model is deliberately coarse — it only needs to rank the paper's
predicate shapes correctly relative to each other:

* numeric comparisons and categorical code equality are one vectorized
  kernel pass (cost 1);
* categorical ordered comparisons decide per vocabulary entry in Python
  before broadcasting (cost 4);
* anything unknown costs 2.

Planning never changes results: it is pure ordering plus conservative
skipping, so a planned scan returns exactly the rows of the plain in-memory
``Table.select`` — the reference the tests compare against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.analysis.lockwatch import named_lock
from repro.dataframe.predicates import Op, Pattern, Predicate
from repro.obs.registry import REGISTRY
from repro.plan.stats import TableStats, table_stats

#: Relative evaluation cost of one predicate kernel pass (see module doc).
COST_VECTOR_KERNEL = 1.0
COST_VOCAB_LOOP = 4.0
COST_UNKNOWN = 2.0


def predicate_cost(table, predicate: Predicate) -> float:
    """Relative per-row cost of evaluating ``predicate`` against ``table``."""
    if predicate.attribute not in table.attributes:
        return COST_UNKNOWN
    column = table.column(predicate.attribute)
    if column.numeric:
        return COST_VECTOR_KERNEL
    if predicate.op in (Op.EQ, Op.NE):
        return COST_VECTOR_KERNEL
    return COST_VOCAB_LOOP


@dataclass
class ConjunctPlan:
    """One scheduled conjunct: its estimate, cost, and (later) actuals."""

    predicate: Predicate
    estimated_selectivity: float
    cost: float
    position: int                       # canonical (pre-planning) position
    #: Filled in by the executor: fraction of *candidate* rows that satisfied
    #: the predicate when its turn came (``None`` until executed).
    actual_selectivity: float | None = None
    candidates_in: int | None = None
    candidates_out: int | None = None

    @property
    def rank(self) -> float:
        return self.estimated_selectivity * self.cost

    def to_dict(self) -> dict:
        return {
            "predicate": repr(self.predicate),
            "estimated_selectivity": round(self.estimated_selectivity, 6),
            "cost": self.cost,
            "canonical_position": self.position,
            "actual_selectivity": None if self.actual_selectivity is None
            else round(self.actual_selectivity, 6),
            "candidates_in": self.candidates_in,
            "candidates_out": self.candidates_out,
        }


@dataclass
class ScanPlan:
    """The ordered conjunct schedule for one filter over one table."""

    conjuncts: list[ConjunctPlan]
    reordered: bool
    #: Shard skip accounting, filled by the storage layer's executor.
    shards_total: int = 0
    shards_zone_map_skipped: int = 0
    shards_stats_skipped: int = 0
    rows_in: int | None = None
    rows_out: int | None = None

    @property
    def ordered_predicates(self) -> list[Predicate]:
        return [c.predicate for c in self.conjuncts]

    def to_dict(self) -> dict:
        return {
            "conjuncts": [c.to_dict() for c in self.conjuncts],
            "reordered": self.reordered,
            "shards": {
                "total": self.shards_total,
                "zone_map_skipped": self.shards_zone_map_skipped,
                "stats_skipped": self.shards_stats_skipped,
                "scanned": max(0, self.shards_total
                               - self.shards_zone_map_skipped
                               - self.shards_stats_skipped),
            },
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
        }


def plan_scan(table, pattern: Pattern | Predicate,
              stats: TableStats | None = None) -> ScanPlan:
    """Order a conjunction's predicates by estimated selectivity × cost.

    Ties (and the common single-conjunct case) preserve the canonical
    ``Pattern`` order, so planning is deterministic across processes.
    """
    predicates = [pattern] if isinstance(pattern, Predicate) else \
        list(pattern.predicates)
    if stats is None:
        stats = table_stats(table)
    conjuncts = [
        ConjunctPlan(predicate=p, estimated_selectivity=stats.selectivity(p),
                     cost=predicate_cost(table, p), position=i)
        for i, p in enumerate(predicates)]
    conjuncts.sort(key=lambda c: (c.rank, c.position))
    plan = ScanPlan(conjuncts=conjuncts,
                    reordered=any(c.position != i
                                  for i, c in enumerate(conjuncts)))
    GLOBAL_PLANNER_STATS.record_plan(plan)
    return plan


# ---------------------------------------------------------------------- accounting


@dataclass
class PlannerStats:
    """Process-wide planner counters (thread-safe), surfaced by the engine."""

    plans: int = 0  # guarded-by: _lock
    conjuncts_planned: int = 0  # guarded-by: _lock
    plans_reordered: int = 0  # guarded-by: _lock
    shards_zone_map_skipped: int = 0  # guarded-by: _lock
    shards_stats_skipped: int = 0  # guarded-by: _lock
    shards_scanned: int = 0  # guarded-by: _lock
    atoms_deferred: int = 0  # guarded-by: _lock
    store_code_lookups: int = 0  # guarded-by: _lock
    store_code_cached: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=lambda: named_lock("PlannerStats._lock"), repr=False)

    def record_plan(self, plan: ScanPlan) -> None:
        with self._lock:
            self.plans += 1
            self.conjuncts_planned += len(plan.conjuncts)
            if plan.reordered:
                self.plans_reordered += 1

    def record_shards(self, zone_map_skipped: int, stats_skipped: int,
                      scanned: int) -> None:
        with self._lock:
            self.shards_zone_map_skipped += zone_map_skipped
            self.shards_stats_skipped += stats_skipped
            self.shards_scanned += scanned

    def record_deferred_atoms(self, count: int) -> None:
        with self._lock:
            self.atoms_deferred += count

    def record_store_codes(self, lookups: int, cached: int) -> None:
        """Equality-literal store-code resolutions: total vs. memo-served."""
        with self._lock:
            self.store_code_lookups += lookups
            self.store_code_cached += cached

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "plans": self.plans,
                "conjuncts_planned": self.conjuncts_planned,
                "plans_reordered": self.plans_reordered,
                "shards_zone_map_skipped": self.shards_zone_map_skipped,
                "shards_stats_skipped": self.shards_stats_skipped,
                "shards_scanned": self.shards_scanned,
                "atoms_deferred": self.atoms_deferred,
                "store_code_lookups": self.store_code_lookups,
                "store_code_cached": self.store_code_cached,
            }

    def reset(self) -> None:
        with self._lock:
            self.plans = self.conjuncts_planned = self.plans_reordered = 0
            self.shards_zone_map_skipped = self.shards_stats_skipped = 0
            self.shards_scanned = self.atoms_deferred = 0
            self.store_code_lookups = self.store_code_cached = 0


#: One process-wide collector — engines report it under ``stats()["planner"]``.
GLOBAL_PLANNER_STATS = PlannerStats()

# The same counters under the unified repro_<layer>_<name> vocabulary; the
# registry pulls them on scrape, so nothing is double-counted or moved.
REGISTRY.register_provider(
    "planner",
    lambda: {f"repro_planner_{key}": value
             for key, value in GLOBAL_PLANNER_STATS.snapshot().items()})
