"""Per-column statistics behind selectivity estimation and stats-based skips.

Two shapes of statistics, one per physical column kind:

* :class:`NumericColumnStats` — an **equi-depth histogram** (quantile edges,
  per-bucket counts), min/max, distinct count, and null count over the
  ``float64`` storage.  Missing (``NaN``) values are excluded from the
  histogram and counted separately, matching predicate semantics (missing
  never satisfies a predicate).
* :class:`CategoricalColumnStats` — **top-k code frequencies** over the
  ``int32`` dictionary codes plus an ``other`` remainder mass, distinct and
  null counts.  When ``other == 0`` the frequencies are *complete* and every
  equality/inequality estimate is exact — the property the lattice's
  stats-based atom deferral relies on.

Statistics live in two code spaces:

* **in-memory** — built from a :class:`~repro.dataframe.Column` (sorted-vocab
  codes), cached per table object by :func:`table_stats`;
* **on-disk** — built at shard commit in *store-code* space and serialized
  into the manifest next to the zone maps (:func:`stats_to_dict` /
  :func:`stats_from_dict`); a :class:`ShardedTable
  <repro.storage.dataset.ShardedTable>` exposes them re-mapped to sorted
  codes without decoding any shard.

Shard-level statistics of one column merge with :func:`merge_column_stats`
(counts summed per bucket/code), which is how appends refresh dataset-level
estimates incrementally: the new shard contributes its own statistics and no
committed shard is ever re-scanned.

All estimates are fractions of *total* rows (missing included in the
denominator) clamped to ``[0, 1]``; anything unknown estimates conservatively
(``1.0`` for "could match everything", ``0.5 * present`` for un-orderable
ordered comparisons).  :func:`shard_stats_may_match` is the conservative
skip predicate: it only answers ``False`` when the statistics *prove* the
shard holds no matching row.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dataframe import MISSING_CODE
from repro.dataframe.predicates import Op, Predicate, _ordered_compare

#: Equi-depth buckets per numeric column (shard commit and in-memory builds).
DEFAULT_NUMERIC_BINS = 16

#: Frequencies kept per categorical column in the *manifest* (in-memory
#: statistics keep the full frequency table — domains are the paper's bounded
#: categorical attributes).
DEFAULT_TOP_K = 32

NUMERIC = "numeric"
CATEGORICAL = "categorical"


# ---------------------------------------------------------------------- numeric


@dataclass(frozen=True)
class NumericColumnStats:
    """Equi-depth histogram + min/max/distinct/null summary of one column."""

    n: int
    n_missing: int
    minimum: float | None
    maximum: float | None
    n_distinct: int
    edges: tuple[float, ...]     # len(buckets) + 1 ascending quantile edges
    counts: tuple[int, ...]      # rows per bucket (equi-depth => near-equal)

    @property
    def kind(self) -> str:
        return NUMERIC

    @property
    def n_present(self) -> int:
        return self.n - self.n_missing

    @classmethod
    def from_values(cls, values: np.ndarray,
                    bins: int = DEFAULT_NUMERIC_BINS) -> "NumericColumnStats":
        values = np.asarray(values, dtype=np.float64)
        present = values[~np.isnan(values)]
        n = int(values.size)
        if present.size == 0:
            return cls(n=n, n_missing=n, minimum=None, maximum=None,
                       n_distinct=0, edges=(), counts=())
        ordered = np.sort(present)
        distinct = int(np.unique(ordered).size)
        bins = max(1, min(bins, distinct))
        quantiles = np.linspace(0.0, 1.0, bins + 1)
        edges = np.quantile(ordered, quantiles)
        edges[0], edges[-1] = ordered[0], ordered[-1]
        # Collapse duplicate edges (heavy ties) so bucket widths stay positive.
        edges = np.unique(edges)
        if edges.size == 1:
            edges = np.array([edges[0], edges[0]], dtype=np.float64)
        # counts[i] = rows in [edges[i], edges[i+1]) — last bucket closed.
        upper = np.searchsorted(ordered, edges[1:], side="left")
        upper[-1] = ordered.size
        counts = np.diff(np.concatenate([[0], upper]))
        return cls(
            n=n, n_missing=n - int(present.size),
            minimum=float(ordered[0]), maximum=float(ordered[-1]),
            n_distinct=distinct,
            edges=tuple(float(e) for e in edges),
            counts=tuple(int(c) for c in counts),
        )

    # ------------------------------------------------------------------ estimates

    def _cumulative_le(self, x: float) -> float:
        """Estimated number of present rows with value ``<= x``."""
        if self.minimum is None:
            return 0.0
        if x < self.minimum:
            return 0.0
        if x >= self.maximum:
            return float(self.n_present)
        total = 0.0
        for i, count in enumerate(self.counts):
            lo, hi = self.edges[i], self.edges[i + 1]
            if x >= hi:
                total += count
                continue
            if x >= lo:
                width = hi - lo
                fraction = 1.0 if width <= 0 else (x - lo) / width
                total += count * fraction
            break
        return total

    def _equal_rows(self, x: float) -> float:
        """Estimated rows equal to ``x`` (uniform-distinct assumption)."""
        if self.minimum is None or x < self.minimum or x > self.maximum:
            return 0.0
        return self.n_present / max(1, self.n_distinct)

    def selectivity(self, op: Op, target: float) -> float:
        if self.n == 0 or self.n_present == 0:
            return 0.0
        if math.isnan(target):  # NaN differs from every present value
            return self.n_present / self.n if op is Op.NE else 0.0
        eq = self._equal_rows(target)
        if op is Op.EQ:
            rows = eq
        elif op is Op.NE:
            rows = self.n_present - eq
        elif op is Op.LE:
            rows = self._cumulative_le(target)
        elif op is Op.LT:
            rows = self._cumulative_le(target) - eq
        elif op is Op.GE:
            rows = self.n_present - self._cumulative_le(target) + eq
        else:  # GT
            rows = self.n_present - self._cumulative_le(target)
        return min(1.0, max(0.0, rows / self.n))


# ---------------------------------------------------------------------- categorical


def code_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(present codes ascending, their row counts, missing rows)``.

    One ``bincount`` (the sentinel in a slot of its own) when the codes are
    dense; a bincount allocates one slot per code up to the largest, so a
    column whose codes run far past its length (a vocabulary much larger
    than the shard) sorts with ``np.unique`` instead.
    """
    codes = np.asarray(codes)
    if codes.size and codes.max() > 4 * codes.size:
        values, counts = np.unique(codes, return_counts=True)
        if values[0] == MISSING_CODE:
            return values[1:], counts[1:], int(counts[0])
        return values, counts, 0
    counts = np.bincount(codes + 1)
    values = np.flatnonzero(counts[1:])
    return values, counts[1:][values], int(counts[0]) if counts.size else 0


@dataclass(frozen=True)
class CategoricalColumnStats:
    """Top-k code frequencies + remainder mass of one categorical column."""

    n: int
    n_missing: int
    n_distinct: int
    counts: dict[int, int]       # code -> rows, the top-k most frequent codes
    other: int                   # rows whose code is not in ``counts``

    @property
    def kind(self) -> str:
        return CATEGORICAL

    @property
    def n_present(self) -> int:
        return self.n - self.n_missing

    @property
    def exact(self) -> bool:
        """Whether ``counts`` is the complete frequency table."""
        return self.other == 0

    @classmethod
    def from_codes(cls, codes: np.ndarray,
                   top_k: int | None = None) -> "CategoricalColumnStats":
        return cls.from_counts(*code_counts(codes), top_k=top_k)

    @classmethod
    def from_counts(cls, values: np.ndarray, freqs: np.ndarray,
                    n_missing: int, top_k: int | None = None
                    ) -> "CategoricalColumnStats":
        """Stats of a column whose ``freqs[i]`` rows carry code ``values[i]``
        (``values`` ascending, as :func:`code_counts` returns them)."""
        present = int(freqs.sum())
        n = present + n_missing
        if present == 0:
            return cls(n=n, n_missing=n, n_distinct=0, counts={}, other=0)
        distinct = int(values.size)
        if top_k is not None and distinct > top_k:
            keep = np.argsort(-freqs, kind="stable")[:top_k]
            kept = {int(values[i]): int(freqs[i]) for i in sorted(keep)}
            other = present - sum(kept.values())
        else:
            kept = dict(zip(values.tolist(), freqs.tolist()))
            other = 0
        return cls(n=n, n_missing=n_missing, n_distinct=distinct,
                   counts=kept, other=other)

    # ------------------------------------------------------------------ estimates

    def rows_for_code(self, code: int | None) -> float:
        """Estimated rows carrying ``code`` (exact when :attr:`exact`)."""
        if code is None or code == MISSING_CODE:
            return 0.0
        if code in self.counts:
            return float(self.counts[code])
        if self.other == 0:
            return 0.0
        hidden = max(1, self.n_distinct - len(self.counts))
        return self.other / hidden

    def exact_rows_for_code(self, code: int | None) -> int | None:
        """Exact rows for ``code``, or ``None`` when the stats cannot prove it."""
        if code is None or code == MISSING_CODE:
            return 0
        if code in self.counts:
            return self.counts[code]
        return 0 if self.other == 0 else None

    def selectivity(self, op: Op, code: int | None, vocab: Sequence = (),
                    value=None) -> float:
        if self.n == 0 or self.n_present == 0:
            return 0.0
        if op is Op.EQ:
            rows = self.rows_for_code(code)
        elif op is Op.NE:
            rows = self.n_present - self.rows_for_code(code)
        else:
            rows = self._ordered_rows(op, vocab, value)
        return min(1.0, max(0.0, rows / self.n))

    def _ordered_rows(self, op: Op, vocab: Sequence, value) -> float:
        """Rows satisfying an ordered comparison, decided per counted code."""
        rows = 0.5 * self.other  # unknown remainder: assume half matches
        for code, count in self.counts.items():
            if code >= len(vocab):
                rows += 0.5 * count
                continue
            try:
                if _ordered_compare(vocab[code], op, value):
                    rows += count
            except TypeError:
                rows += 0.5 * count
        return rows


ColumnStats = NumericColumnStats | CategoricalColumnStats


# ---------------------------------------------------------------------- builders


def column_stats(column, bins: int = DEFAULT_NUMERIC_BINS,
                 top_k: int | None = None) -> ColumnStats:
    """Statistics of one in-memory column (full frequencies by default)."""
    if column.numeric:
        return NumericColumnStats.from_values(column.values, bins=bins)
    return CategoricalColumnStats.from_codes(column.codes, top_k=top_k)


class TableStats:
    """Lazily-built per-column statistics of one table.

    A table may expose ``plan_column_stats(attribute)`` to override the
    default build-from-column path; the storage layer supplies one that
    derives statistics from the manifest's per-shard entries without decoding
    any shard.  Column entries are computed on first request and cached, so a
    planner that only ever sees predicates over two attributes never pays for
    statistics of the rest.

    The table caches its statistics (:func:`table_stats`), so the reference
    back to it is weak and the provider is looked up per call, not stored as
    a bound method: a strong one would close a cycle, and every table version
    an append supersedes would wait for the cyclic collector — which numpy
    buffers do not nudge — instead of being freed when its last user lets go.
    Callers hold the table while they use its statistics.
    """

    def __init__(self, table):
        self._table_ref = weakref.ref(table)
        self._columns: dict[str, ColumnStats | None] = {}

    @property
    def _table(self):
        return self._table_ref()

    @property
    def n_rows(self) -> int:
        return self._table.n_rows

    def column(self, attribute: str) -> ColumnStats | None:
        if attribute not in self._columns:
            table = self._table
            stats = None
            if attribute in table.attributes:
                provider = getattr(table, "plan_column_stats", None)
                if provider is not None:
                    # A provider that cannot prove statistics (e.g. a
                    # pre-planner manifest) yields None and the planner
                    # estimates conservatively — never fall back to building
                    # from the column, which would force-decode every shard
                    # of a storage-backed table just to rank conjuncts.
                    stats = provider(attribute)
                else:
                    stats = column_stats(table.column(attribute))
            self._columns[attribute] = stats
        return self._columns[attribute]

    def selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of rows satisfying ``predicate`` (``[0, 1]``)."""
        if predicate.attribute not in self._table.attributes:
            return 1.0
        stats = self.column(predicate.attribute)
        if stats is None:
            return 1.0
        column = self._table.column(predicate.attribute)
        if isinstance(stats, NumericColumnStats):
            try:
                target = float(predicate.value)
            except (TypeError, ValueError):
                return 1.0  # evaluation will raise; never hide it by skipping
            return stats.selectivity(predicate.op, target)
        code = None
        if predicate.op in (Op.EQ, Op.NE):
            try:
                code = column.vocab_code(predicate.value)
            except TypeError:  # unhashable literal
                return 1.0
        return stats.selectivity(predicate.op, code, vocab=column.vocab,
                                 value=predicate.value)

    def exact_support(self, predicate: Predicate) -> int | None:
        """Exact matching-row count when provable from statistics, else ``None``.

        Only categorical equality/inequality against *complete* frequency
        tables is provable; everything else returns ``None`` so callers fall
        back to evaluating the predicate.
        """
        if predicate.attribute not in self._table.attributes:
            return None
        stats = self.column(predicate.attribute)
        if not isinstance(stats, CategoricalColumnStats):
            return None
        if predicate.op not in (Op.EQ, Op.NE):
            return None
        column = self._table.column(predicate.attribute)
        try:
            code = column.vocab_code(predicate.value)
        except TypeError:
            return None
        rows = stats.exact_rows_for_code(code)
        if rows is None:
            return None
        if predicate.op is Op.NE:
            return stats.n_present - rows
        return rows


def table_stats(table) -> TableStats:
    """The (cached) :class:`TableStats` of a table object.

    Tables are treated as immutable by the algorithms, so statistics are
    cached on the instance: any append produces a *new* table object
    (``Table.concat`` / a reloaded ``ShardedTable``), which automatically
    gets fresh statistics — estimates can never survive a data change.
    A table may expose ``plan_column_stats(attribute)`` (the storage layer's
    manifest-derived path) to override the build-from-column default.
    """
    cached = table.__dict__.get("_plan_table_stats")
    if cached is not None:
        return cached
    stats = TableStats(table)
    table.__dict__["_plan_table_stats"] = stats
    return stats


# ---------------------------------------------------------------------- merging


def merge_column_stats(parts: Sequence[ColumnStats]) -> ColumnStats | None:
    """Combine per-shard statistics of one column into dataset-level stats.

    Counts are summed per bucket/code; numeric histograms concatenate their
    bucket lists (selectivity sums each part's cumulative estimate, so the
    merge loses no per-shard fidelity).  Distinct counts merge conservatively:
    exact for categorical codes (union of counted codes), upper-bounded for
    numeric.  Returns ``None`` for an empty part list.
    """
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    if isinstance(parts[0], NumericColumnStats):
        present_parts = [p for p in parts if p.minimum is not None]
        n = sum(p.n for p in parts)
        n_missing = sum(p.n_missing for p in parts)
        if not present_parts:
            return NumericColumnStats(n=n, n_missing=n_missing, minimum=None,
                                      maximum=None, n_distinct=0, edges=(),
                                      counts=())
        return _Piecewise(n=n, n_missing=n_missing,
                          minimum=min(p.minimum for p in present_parts),
                          maximum=max(p.maximum for p in present_parts),
                          n_distinct=min(sum(p.n_distinct
                                             for p in present_parts),
                                         n - n_missing),
                          edges=(), counts=(),
                          parts=tuple(present_parts))
    n = sum(p.n for p in parts)
    n_missing = sum(p.n_missing for p in parts)
    counts: dict[int, int] = {}
    for p in parts:
        for code, count in p.counts.items():
            counts[code] = counts.get(code, 0) + count
    other = sum(p.other for p in parts)
    hidden = max((p.n_distinct - len(p.counts) for p in parts), default=0)
    return CategoricalColumnStats(
        n=n, n_missing=n_missing,
        n_distinct=len(counts) + max(0, hidden),
        counts=counts, other=other)


@dataclass(frozen=True)
class _Piecewise(NumericColumnStats):
    """Merged numeric stats: cumulative estimates sum over the shard parts."""

    parts: tuple[NumericColumnStats, ...] = ()

    def _cumulative_le(self, x: float) -> float:
        return sum(p._cumulative_le(x) for p in self.parts)


# ---------------------------------------------------------------------- manifest codec


def stats_to_dict(stats: ColumnStats) -> dict:
    """JSON-compatible manifest encoding (store-code space for categoricals)."""
    if isinstance(stats, NumericColumnStats):
        return {"kind": NUMERIC, "n": stats.n, "n_missing": stats.n_missing,
                "min": stats.minimum, "max": stats.maximum,
                "n_distinct": stats.n_distinct,
                "edges": list(stats.edges), "counts": list(stats.counts)}
    return {"kind": CATEGORICAL, "n": stats.n, "n_missing": stats.n_missing,
            "n_distinct": stats.n_distinct,
            "codes": [int(c) for c in stats.counts],
            "counts": [int(stats.counts[c]) for c in stats.counts],
            "other": stats.other}


def stats_from_dict(spec: dict | None) -> ColumnStats | None:
    """Decode a manifest statistics entry; ``None`` for absent/unknown kinds."""
    if not spec:
        return None
    kind = spec.get("kind")
    if kind == NUMERIC:
        return NumericColumnStats(
            n=int(spec["n"]), n_missing=int(spec["n_missing"]),
            minimum=spec.get("min"), maximum=spec.get("max"),
            n_distinct=int(spec.get("n_distinct", 0)),
            edges=tuple(spec.get("edges", ())),
            counts=tuple(int(c) for c in spec.get("counts", ())))
    if kind == CATEGORICAL:
        return CategoricalColumnStats(
            n=int(spec["n"]), n_missing=int(spec["n_missing"]),
            n_distinct=int(spec.get("n_distinct", 0)),
            counts={int(c): int(f) for c, f in
                    zip(spec.get("codes", ()), spec.get("counts", ()))},
            other=int(spec.get("other", 0)))
    return None


def remap_categorical_codes(stats: CategoricalColumnStats,
                            remap: np.ndarray | None) -> CategoricalColumnStats:
    """Translate frequency codes through a store→sorted code remap array."""
    if remap is None or not stats.counts:
        return stats
    counts = {int(remap[code]): count for code, count in stats.counts.items()}
    return CategoricalColumnStats(n=stats.n, n_missing=stats.n_missing,
                                  n_distinct=stats.n_distinct,
                                  counts=counts, other=stats.other)


# ---------------------------------------------------------------------- shard skip


#: Sentinel: the caller did not pre-resolve the predicate's store code.
UNRESOLVED = object()


def resolve_store_code(value, store_vocab: list | None) -> int | None:
    """The store code of an equality literal, or ``None`` when absent.

    Pre-resolve once per predicate before a per-shard loop — the lookup is
    a linear scan of the append-ordered store vocabulary and must not be
    repeated for every shard.
    """
    try:
        return (store_vocab or []).index(value)
    except (ValueError, TypeError):
        return None


def stats_may_match(stats: ColumnStats | None, predicate: Predicate,
                    store_vocab: list | None = None,
                    eq_code=UNRESOLVED) -> bool:
    """Whether any row summarised by ``stats`` could satisfy ``predicate``.

    The statistics-based twin of
    :func:`repro.storage.zonemap.shard_may_match`: conservative (``True`` on
    any doubt), and strictly complementary — it can prove absence through
    complete frequency tables even when a manifest carries no zone maps.
    ``eq_code`` lets the caller pre-resolve the store code of an equality
    literal outside a per-shard loop.
    """
    if stats is None:
        return True
    if isinstance(stats, NumericColumnStats):
        if stats.n_present == 0:
            return False
        try:
            target = float(predicate.value)
        except (TypeError, ValueError):
            return True  # evaluation will raise the same error it always did
        if math.isnan(target):
            return predicate.op is Op.NE  # every present value differs
        return _numeric_boundary_possible(stats, predicate.op, target)
    if isinstance(stats, CategoricalColumnStats):
        if stats.n_present == 0:
            return False
        vocab = store_vocab or []
        op = predicate.op
        if op in (Op.EQ, Op.NE):
            code = resolve_store_code(predicate.value, vocab) \
                if eq_code is UNRESOLVED else eq_code
            rows = stats.exact_rows_for_code(code)
            if op is Op.EQ:
                return rows is None or rows > 0
            return rows is None or rows < stats.n_present
        if not stats.exact:
            return True
        for code in stats.counts:
            if code >= len(vocab):
                return True  # stale stats; keep the shard
            try:
                if _ordered_compare(vocab[code], op, predicate.value):
                    return True
            except TypeError:
                return True  # evaluation raises identically; don't hide it
        return False
    return True


def shard_stats_may_match(spec: dict | None, predicate: Predicate,
                          store_vocab: list | None = None) -> bool:
    """Dict-level convenience wrapper over :func:`stats_may_match`.

    Hot paths should parse once (:func:`stats_from_dict`, cached per shard
    handle) and call :func:`stats_may_match` directly.
    """
    if not spec:
        return True
    return stats_may_match(stats_from_dict(spec), predicate, store_vocab)


def _numeric_boundary_possible(stats: NumericColumnStats, op: Op,
                               target: float) -> bool:
    """Guard against zero *estimates* at bucket boundaries being taken as proof.

    The histogram only *proves* emptiness outside ``[min, max]``; a zero
    interpolation inside the range (e.g. ``x < min`` excluded but ``x == min``
    allowed for ``LE``) must not skip the shard.
    """
    lo, hi = stats.minimum, stats.maximum
    if lo is None:
        return False
    if op is Op.EQ:
        return lo <= target <= hi
    if op is Op.NE:
        return not (lo == hi == target)
    if op is Op.LT:
        return lo < target
    if op is Op.GT:
        return hi > target
    if op is Op.LE:
        return lo <= target
    return hi >= target  # GE
