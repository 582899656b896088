"""A small thread-safe LRU cache with hit/miss/eviction/invalidation stats.

Backs every cache level of the explanation engine (parsed plans, bound
populations, finished summaries).  Deliberately minimal: plain
``OrderedDict`` + lock, no TTLs — entries are invalidated explicitly when a
dataset's data version moves (:meth:`purge`), and capacity evictions drop the
least recently *used* entry.

A cache may additionally participate in a shared
:class:`~repro.service.membudget.MemoryBudget`: constructed with ``budget=``
and ``weigher=`` it weighs every inserted value (bytes), stamps each
hit/insert with the budget's global recency clock, and lets the budget evict
globally-least-recent entries across *all* attached caches when the summed
bytes exceed the cap (the engine attaches only its summary cache).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from repro.analysis.lockwatch import named_lock


@dataclass(frozen=True)
class LRUStats:
    """A snapshot of :class:`LRUCache` accounting."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    entries: int
    capacity: int
    bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0


class LRUCache:
    """Least-recently-used mapping with bounded capacity and usage accounting.

    Parameters
    ----------
    capacity:
        Maximum number of entries (count-based, always enforced).
    budget / weigher:
        Optional shared :class:`~repro.service.membudget.MemoryBudget` and a
        ``value -> bytes`` weigher.  With both set, inserts are weighed and
        the budget may evict this cache's least-recent entries to keep the
        global byte total under its cap.
    """

    def __init__(self, capacity: int = 128, budget=None,
                 weigher: Callable | None = None):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.budget = budget
        self.weigher = weigher
        self._lock = named_lock("LRUCache._lock")
        self._entries: OrderedDict = OrderedDict()  # guarded-by: _lock
        self._weights: dict = {}  # guarded-by: _lock
        self._stamps: dict = {}  # guarded-by: _lock
        self._total_bytes = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock
        if budget is not None:
            budget.attach(self)

    # ------------------------------------------------------------------ core ops

    def get(self, key: Hashable, default=None):
        """Look up ``key``, marking it most recently used.  Counts a hit/miss."""
        stamp = self.budget.tick() if self.budget is not None else None
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                if stamp is not None:
                    self._stamps[key] = stamp
                return self._entries[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when over capacity."""
        weight = self.weigher(value) if self.weigher is not None else 0
        stamp = self.budget.tick() if self.budget is not None else None
        with self._lock:
            if key in self._entries:
                self._total_bytes -= self._weights.get(key, 0)
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._weights[key] = weight
            self._total_bytes += weight
            if stamp is not None:
                self._stamps[key] = stamp
            while len(self._entries) > self.capacity:
                self._drop_oldest_locked()
                self._evictions += 1
        if self.budget is not None:
            self.budget.rebalance()

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate`` (invalidation).

        Returns the number of entries removed.
        """
        with self._lock:
            doomed = [k for k in self._entries if predicate(k)]
            for k in doomed:
                del self._entries[k]
                self._total_bytes -= self._weights.pop(k, 0)
                self._stamps.pop(k, None)
            self._invalidations += len(doomed)
            return len(doomed)

    def items(self) -> Iterable[tuple]:
        """A point-in-time snapshot of ``(key, value)`` pairs."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()
            self._weights.clear()
            self._stamps.clear()
            self._total_bytes = 0

    # ------------------------------------------------------------------ budget hooks

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def oldest_stamp(self):
        """Recency stamp of the LRU entry, or ``None`` when empty/unstamped."""
        with self._lock:
            for key in self._entries:  # first key = least recently used
                return self._stamps.get(key, 0)
            return None

    def evict_oldest(self):
        """Evict the LRU entry for the budget; returns its weight (or None)."""
        with self._lock:
            if not self._entries:
                return None
            weight = self._drop_oldest_locked()
            self._evictions += 1
            return weight

    def _drop_oldest_locked(self) -> int:  # guarded-by: _lock
        key, _ = self._entries.popitem(last=False)
        weight = self._weights.pop(key, 0)
        self._stamps.pop(key, None)
        self._total_bytes -= weight
        return weight

    # ------------------------------------------------------------------ dunder / stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> LRUStats:
        with self._lock:
            return LRUStats(hits=self._hits, misses=self._misses,
                            evictions=self._evictions,
                            invalidations=self._invalidations,
                            entries=len(self._entries), capacity=self.capacity,
                            bytes=self._total_bytes)
