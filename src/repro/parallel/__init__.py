"""Per-shard loops and their counters.

A request runs on the thread that received it: there is no intra-request
thread pool.  :func:`map_morsels` is the one per-shard loop the storage layer
uses (lazy column decodes, runtime group-by partials) and counts its batches
so per-explain shard work shows in ``stats()["parallel"]``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.analysis.lockwatch import named_lock
from repro.obs.registry import REGISTRY

T = TypeVar("T")
R = TypeVar("R")


def map_morsels(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply ``fn`` to every item on the calling thread, in input order."""
    results = [fn(item) for item in items]
    GLOBAL_PARALLEL_STATS.record_batch(len(results))
    return results


# Kept for benchmarks/e2e/harness.py (host block and oracle run).
def worker_count() -> int:
    return 1


# Kept for benchmarks/e2e/harness.py (oracle run); does nothing.
@contextmanager
def workers(count: int | None):
    yield


@dataclass
class ParallelStats:
    """Process-wide per-shard loop counters (thread-safe: concurrent
    requests share them)."""

    batches: int = 0  # guarded-by: _lock
    morsels: int = 0  # guarded-by: _lock
    partials_served: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=lambda: named_lock("ParallelStats._lock"), repr=False)

    def record_batch(self, morsels: int) -> None:
        with self._lock:
            self.batches += 1
            self.morsels += morsels

    def record_partials_served(self, count: int = 1) -> None:
        with self._lock:
            self.partials_served += count

    def snapshot(self) -> dict:
        with self._lock:
            return {"batches": self.batches, "morsels": self.morsels,
                    "partials_served": self.partials_served}

    def reset(self) -> None:
        with self._lock:
            self.batches = self.morsels = self.partials_served = 0


#: One process-wide collector — engines report it under ``stats()["parallel"]``
#: (read by benchmarks/e2e/workloads.py::_flow_counters).
GLOBAL_PARALLEL_STATS = ParallelStats()

# The same counters under the unified repro_<layer>_<name> vocabulary; the
# registry pulls them on scrape, so nothing is double-counted or moved.
REGISTRY.register_provider(
    "parallel",
    lambda: {f"repro_parallel_{key}": value
             for key, value in GLOBAL_PARALLEL_STATS.snapshot().items()})

__all__ = ["GLOBAL_PARALLEL_STATS", "ParallelStats", "map_morsels",
           "worker_count", "workers"]
