"""Shared pattern-evaluation engine: memoized boolean predicate masks.

CauSumX evaluates thousands of (grouping pattern, treatment pattern) pairs and
the same simple predicates recur across patterns, lattice levels, and grouping
patterns.  :class:`MaskCache` memoizes the boolean mask of every simple
predicate against one fixed table, keyed by ``(attribute, op, value)``, and
composes conjunctive patterns via bitwise AND of the cached masks.  Every
later scaling layer (bound sub-population estimation, batched lattice
evaluation, treatment mining) sits on top of this engine.

Since the dataframe layer moved to dictionary-encoded categorical columns,
*cold* masks are vectorized too: a cache miss evaluates the predicate as a
numpy kernel over the column's codes (``codes == vocab_code(value)``), so the
cache's job is purely to amortise repeated masks, not to hide a per-row
Python loop.

Cached masks are marked read-only so accidental in-place mutation by a caller
cannot corrupt the cache; callers that need a writable mask receive a fresh
array (any composed or sliced mask is already a copy).

The cache is safe to share across threads: lookups and statistics updates are
guarded by a lock, while mask computation happens outside it so concurrent
misses never serialize on the (potentially slow) predicate evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.lockwatch import named_lock
from repro.dataframe.predicates import Pattern, Predicate
from repro.obs import trace


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of :class:`MaskCache` accounting."""

    hits: int
    misses: int
    entries: int
    bytes: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of predicate-mask requests served from the cache."""
        total = self.requests
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"entries={self.entries}, bytes={self.bytes}, "
                f"hit_rate={self.hit_rate:.2%})")


class MaskCache:
    """Per-table memoized store of boolean predicate masks.

    Parameters
    ----------
    table:
        The table all masks are evaluated against.  The table is assumed
        immutable (as the algorithms treat it); masks of a mutated table are
        stale.
    """

    def __init__(self, table):
        self.table = table
        self._lock = named_lock("MaskCache._lock")
        self._masks: dict[tuple, np.ndarray] = {}  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        #: Masks over a *prefix* of the table, inherited from the cache of
        #: an earlier version (:meth:`extended`); completed on first lookup.
        self._inherited: dict[tuple, np.ndarray] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------ masks

    def predicate_mask(self, predicate: Predicate) -> np.ndarray:
        """The (read-only) boolean mask of one simple predicate, memoized."""
        key = (predicate.attribute, predicate.op, predicate.value)
        with self._lock:
            mask = self._masks.get(key)
            if mask is not None:
                self._hits += 1
                return mask
            prefix = self._inherited.get(key)
        if prefix is not None:
            mask = self._extend(prefix, predicate)
        else:
            with trace.trace_span("maskcache.miss", predicate=repr(predicate)) \
                    if trace.enabled() else trace.NOOP:
                mask = predicate.evaluate(self.table)
            mask.setflags(write=False)
        with self._lock:
            if prefix is not None:  # the hit it was before the append
                self._hits += 1
                self._inherited.pop(key, None)
            else:
                self._misses += 1
            # Another thread may have computed the same mask concurrently;
            # keep the first one so callers can rely on identity.
            return self._masks.setdefault(key, mask)

    def _extend(self, prefix: np.ndarray, predicate: Predicate) -> np.ndarray:
        """An inherited prefix mask completed over the rows past it."""
        n_rows = self.table.n_rows
        if prefix.size == n_rows:  # no appended row reached this table
            return prefix
        suffix = predicate.evaluate_at(self.table,
                                       np.arange(prefix.size, n_rows))
        mask = np.concatenate([prefix, suffix])
        mask.setflags(write=False)
        return mask

    def pattern_mask(self, pattern: Pattern) -> np.ndarray:
        """The mask of a conjunctive pattern: bitwise AND of cached predicate masks.

        Single-predicate patterns return the cached (read-only) mask itself;
        longer conjunctions return a fresh writable array.
        """
        predicates = pattern.predicates
        if not predicates:
            return np.ones(self.table.n_rows, dtype=bool)
        mask = self.predicate_mask(predicates[0])
        if len(predicates) == 1:
            return mask
        result = mask.copy()
        for predicate in predicates[1:]:
            result &= self.predicate_mask(predicate)
        return result

    def extended(self, new_table) -> "MaskCache":
        """A cache over ``new_table`` that inherits every mask of this one.

        ``new_table`` must be this cache's table followed by appended rows
        (in that order), as ``Table.concat`` and a WHERE filter of it make.
        A predicate's mask over the old prefix cannot change (it depends only
        on row *values*, which an append preserves even when vocabularies
        merge), so nothing is evaluated here: an inherited mask resolves on
        its first lookup by evaluating the predicate on the rows past its
        prefix, O(appended), and copying prefix and suffix into one mask,
        O(total).  The accounting starts at zero.
        """
        if new_table.n_rows < self.table.n_rows:
            raise ValueError("new_table must extend this cache's table")
        extended = MaskCache(new_table)
        with self._lock:
            extended._inherited = {**self._inherited, **self._masks}
        return extended

    # ------------------------------------------------------------------ stats

    def stats(self) -> CacheStats:
        """Accounting; inherited masks not yet looked up count as entries."""
        with self._lock:
            masks = [*self._masks.values(), *self._inherited.values()]
            return CacheStats(hits=self._hits, misses=self._misses,
                              entries=len(masks),
                              bytes=sum(m.nbytes for m in masks))

    def clear(self) -> None:
        """Drop all cached masks and reset the accounting."""
        with self._lock:
            self._masks.clear()
            self._inherited.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._masks) + len(self._inherited)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MaskCache(table={self.table.name!r}, {self.stats()!r})"
