"""What a WHERE scan did, and the process-wide scan counters.

A scan has one design: a stored table skips the shards its zone maps prove
empty, then one mask AND over the surviving rows selects the result (see
:mod:`repro.plan.execute`).  :class:`ScanPlan` records what that scan
measured — shards skipped and scanned, rows in and out — for
``explain_plan`` and the telemetry record.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.analysis.lockwatch import named_lock
from repro.obs.registry import REGISTRY


@dataclass
class ScanPlan:
    """The measured outcome of one WHERE scan over one table."""

    #: Shard accounting, filled by the storage layer; zero in memory.
    shards_total: int = 0
    shards_zone_map_skipped: int = 0
    shards_scanned: int = 0
    rows_in: int | None = None
    rows_out: int | None = None

    def to_dict(self) -> dict:
        return {
            "shards": {
                "total": self.shards_total,
                "zone_map_skipped": self.shards_zone_map_skipped,
                "scanned": self.shards_scanned,
            },
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
        }


# ---------------------------------------------------------------------- accounting


@dataclass
class PlannerStats:
    """Process-wide scan counters (thread-safe), surfaced by the engine."""

    shards_zone_map_skipped: int = 0  # guarded-by: _lock
    shards_scanned: int = 0  # guarded-by: _lock
    atoms_deferred: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=lambda: named_lock("PlannerStats._lock"), repr=False)

    def record_shards(self, zone_map_skipped: int, scanned: int) -> None:
        with self._lock:
            self.shards_zone_map_skipped += zone_map_skipped
            self.shards_scanned += scanned

    def record_deferred_atoms(self, count: int) -> None:
        with self._lock:
            self.atoms_deferred += count

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "shards_zone_map_skipped": self.shards_zone_map_skipped,
                # No skip but the zone map's remains; the key stays because
                # benchmarks/e2e/workloads.py::_flow_counters reads it.
                "shards_stats_skipped": 0,
                "shards_scanned": self.shards_scanned,
                "atoms_deferred": self.atoms_deferred,
            }

    def reset(self) -> None:
        with self._lock:
            self.shards_zone_map_skipped = self.shards_scanned = 0
            self.atoms_deferred = 0


#: One process-wide collector — engines report it under ``stats()["planner"]``.
GLOBAL_PLANNER_STATS = PlannerStats()

# The same counters under the unified repro_<layer>_<name> vocabulary; the
# registry pulls them on scrape, so nothing is double-counted or moved.
REGISTRY.register_provider(
    "planner",
    lambda: {f"repro_planner_{key}": value
             for key, value in GLOBAL_PLANNER_STATS.snapshot().items()})
