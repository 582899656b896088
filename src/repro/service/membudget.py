"""A byte-capped budget for summary caches, shared across engines.

Each :class:`~repro.service.ExplanationEngine` bounds its summary cache by
*entry count*, which says nothing about memory: a deployment serving many
datasets from many engines can blow past RAM with every individual cache
"under capacity".  :class:`MemoryBudget` closes that gap for summaries
(populations, WHERE masks and tables are not weighed; README "What memory
holds" says what bounds them): caches attach to
one shared budget, every inserted value is weighed (bytes), and when the
*global* total exceeds the cap the budget evicts the globally
least-recently-used entry — whichever cache it lives in — until the total
fits.  Recency is compared across caches through a shared monotonic clock
that stamps each cache hit/insert.

The budget only ever *removes* cache entries, so it cannot change results —
an evicted summary is simply recomputed on the next request (and the
eviction is visible in ``engine.stats()["memory_budget"]``).
"""

from __future__ import annotations

import itertools

from repro.analysis.lockwatch import named_lock


class MemoryBudget:
    """Shared byte cap with cross-cache LRU eviction.

    Parameters
    ----------
    capacity_bytes:
        Global ceiling for the summed weight of all attached caches' entries.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = named_lock("MemoryBudget._lock")
        self._caches: list = []  # guarded-by: _lock
        self._clock = itertools.count(1)
        self._evictions = 0  # guarded-by: _lock
        self._bytes_evicted = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ wiring

    def attach(self, cache) -> None:
        """Register a cache (called by ``LRUCache(budget=...)``)."""
        with self._lock:
            self._caches.append(cache)

    def tick(self) -> int:
        """Next value of the shared recency clock (thread-safe)."""
        return next(self._clock)

    # ------------------------------------------------------------------ accounting

    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes_locked()

    def _total_bytes_locked(self) -> int:  # guarded-by: _lock
        return sum(cache.total_bytes for cache in self._caches)

    def rebalance(self) -> int:
        """Evict globally-LRU entries until the total fits the cap.

        Called by attached caches after each insert.  Returns the number of
        entries evicted by this call.
        """
        evicted = 0
        with self._lock:
            while self._total_bytes_locked() > self.capacity_bytes:
                victim = None
                victim_stamp = None
                for cache in self._caches:
                    stamp = cache.oldest_stamp()
                    if stamp is None:
                        continue
                    if victim_stamp is None or stamp < victim_stamp:
                        victim, victim_stamp = cache, stamp
                if victim is None:
                    break  # nothing left to evict
                freed = victim.evict_oldest()
                if freed is None:
                    break
                self._evictions += 1
                self._bytes_evicted += freed
                evicted += 1
        return evicted

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        with self._lock:
            evictions = self._evictions
            bytes_evicted = self._bytes_evicted
            caches = len(self._caches)
        return {
            "capacity_bytes": self.capacity_bytes,
            "bytes": self.total_bytes(),
            "caches": caches,
            "evictions": evictions,
            "bytes_evicted": bytes_evicted,
        }
