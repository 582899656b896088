"""A small thread-safe LRU cache with hit/miss/eviction/invalidation stats.

Backs every cache level of the explanation engine (parsed plans, bound
populations, finished summaries).  Deliberately minimal: plain
``OrderedDict`` + lock, no TTLs — entries are invalidated explicitly when a
dataset's data version moves (:meth:`purge`), and capacity evictions drop the
least recently *used* entry.

A cache may also cap its bytes: constructed with ``max_bytes=`` and
``weigher=`` it weighs every inserted value, and an insert that takes the
total past the cap drops least-recent entries until it fits (the engine caps
only its summary cache, by ``--memory-budget-mb``).
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
    max_bytes / weigher:
        Optional byte cap and the ``value -> bytes`` weigher it needs.  With
        both set, :meth:`put` drops least-recent entries until the weighed
        total fits, the inserted entry too when it alone exceeds the cap.
    """

    def __init__(self, capacity: int = 128, max_bytes: int | None = None,
                 weigher: Callable | None = None):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if max_bytes is not None and (max_bytes < 1 or weigher is None):
            raise ValueError("max_bytes must be positive and needs a weigher")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.weigher = weigher
        self._lock = named_lock("LRUCache._lock")
        self._entries: OrderedDict = OrderedDict()  # guarded-by: _lock
        self._weights: dict = {}  # guarded-by: _lock
        self._total_bytes = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock
        self._byte_evictions = 0  # guarded-by: _lock
        self._bytes_evicted = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ core ops

    def get(self, key: Hashable, default=None):
        """Look up ``key``, marking it most recently used.  Counts a hit/miss."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value) -> None:
        """Insert/overwrite ``key``, evicting LRU entries while over capacity
        or over the byte cap."""
        weight = self.weigher(value) if self.weigher is not None else 0
        with self._lock:
            if key in self._entries:
                self._total_bytes -= self._weights.get(key, 0)
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._weights[key] = weight
            self._total_bytes += weight
            while len(self._entries) > self.capacity:
                self._drop_oldest_locked()
            while self.max_bytes is not None \
                    and self._total_bytes > self.max_bytes:
                self._bytes_evicted += self._drop_oldest_locked()
                self._byte_evictions += 1

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate`` (invalidation).

        Returns the number of entries removed.
        """
        with self._lock:
            doomed = [k for k in self._entries if predicate(k)]
            for k in doomed:
                del self._entries[k]
                self._total_bytes -= self._weights.pop(k, 0)
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
            self._total_bytes = 0

    def _drop_oldest_locked(self) -> int:  # guarded-by: _lock
        """Evict the LRU entry; returns its weight."""
        key, _ = self._entries.popitem(last=False)
        weight = self._weights.pop(key, 0)
        self._total_bytes -= weight
        self._evictions += 1
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

    def byte_cap_stats(self) -> dict:
        """The byte cap and what it evicted (all evictions count in
        :meth:`stats`; these only the ones the cap forced)."""
        with self._lock:
            return {"capacity_bytes": self.max_bytes,
                    "bytes": self._total_bytes,
                    "evictions": self._byte_evictions,
                    "bytes_evicted": self._bytes_evicted}
