"""Typed column wrapper around numpy storage.

Columns come in two physical representations:

* **numeric** — a ``float64`` array; missing values are ``np.nan``;
* **categorical** — *dictionary-encoded*: an ``int32`` code array plus an
  immutable, deterministically ordered vocabulary of distinct values.
  Missing values (``None`` or ``NaN`` on input) are normalised to the
  sentinel code ``MISSING_CODE`` (-1) and never enter the vocabulary.

The vocabulary is sorted ascending (falling back to ``repr`` ordering for
mixed un-orderable types), which makes code order agree with value order:
``codes[i] < codes[j]`` iff ``vocab[codes[i]] < vocab[codes[j]]`` whenever the
values are comparable.  Every consumer of categorical data — predicate
kernels, one-hot encoding, group-by factorization, candidate-value
enumeration — operates on the codes; the object array of raw values is only
materialised lazily on demand (``Column.values``).

Slicing (:meth:`take`) preserves the vocabulary, so sub-populations inherit
the parent table's encoding for free and masks/codes remain comparable across
slices.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.analysis.lockwatch import named_lock

#: Code assigned to missing categorical values.  Never a valid vocab index.
MISSING_CODE = -1


class Column:
    """A named, typed column of values.

    Columns are either *numeric* (stored as ``float64``) or *categorical*
    (dictionary-encoded: ``int32`` codes + an immutable vocabulary).  Missing
    values are represented as ``np.nan`` for numeric columns and ``None``
    (sentinel code ``-1``) for categorical columns.
    """

    def __init__(self, name: str, values: Iterable, numeric: bool | None = None):
        if not isinstance(name, str) or not name:
            raise ValueError("column name must be a non-empty string")
        self.name = name
        materialized = list(values) if not isinstance(values, np.ndarray) else values
        if numeric is None:
            numeric = _infer_numeric(materialized)
        self.numeric = bool(numeric)
        self._values: np.ndarray | None = None
        self._vocab_index: dict | None = None
        if self.numeric:
            self._codes = None
            self._vocab: tuple = ()
            if isinstance(materialized, np.ndarray) and \
                    materialized.dtype.kind in "fiub":
                # Fast path: a clean numeric array needs no per-value coercion.
                # Copy so the column never aliases a caller-owned buffer.
                self._data = materialized.astype(np.float64, copy=True)
            else:
                self._data = np.asarray(
                    [_to_float(v) for v in materialized], dtype=np.float64
                )
        else:
            self._data = None
            self._codes, self._vocab = _factorize(materialized)

    # ------------------------------------------------------------------ alt constructors

    @classmethod
    def from_codes(cls, name: str, codes: np.ndarray, vocab: Sequence) -> "Column":
        """Build a categorical column directly from dictionary codes.

        ``codes`` must be an integer array with values in
        ``[-1, len(vocab))`` (``-1`` marks missing); ``vocab`` must already be
        in the deterministic sorted order used by :func:`_factorize`.  The
        array is adopted without copying — callers must hand over ownership.
        This is the fast path used by :meth:`take` so slices share the parent
        vocabulary.
        """
        column = cls.__new__(cls)
        column.name = name
        column.numeric = False
        column._data = None
        column._values = None
        column._vocab_index = None
        column._codes = np.asarray(codes, dtype=np.int32)
        column._vocab = tuple(vocab)
        return column

    @classmethod
    def _from_numeric_data(cls, name: str, data: np.ndarray) -> "Column":
        """Adopt a fresh ``float64`` array without copying (internal fast path)."""
        column = cls.__new__(cls)
        column.name = name
        column.numeric = True
        column._values = None
        column._vocab_index = None
        column._codes = None
        column._vocab = ()
        column._data = data
        return column

    # ------------------------------------------------------------------ storage access

    @property
    def values(self) -> np.ndarray:
        """The column as a numpy array.

        Numeric columns return their ``float64`` storage; categorical columns
        lazily materialise (and cache) the decoded ``object`` array, with
        ``None`` for missing entries.
        """
        if self.numeric:
            return self._data
        if self._values is None:
            lookup = np.empty(len(self._vocab) + 1, dtype=object)
            for code, value in enumerate(self._vocab):
                lookup[code] = value
            lookup[len(self._vocab)] = None  # sentinel -1 wraps to the last slot
            self._values = lookup[self._codes]
        return self._values

    @property
    def codes(self) -> np.ndarray:
        """Dictionary codes of a categorical column (``-1`` = missing).

        The preferred numeric view of categorical data: deterministic (vocab
        is sorted ascending, ``repr`` order for un-orderable mixed types) and
        stable across :meth:`take` slices.  Raises for numeric columns.
        """
        if self.numeric:
            raise TypeError(f"column {self.name!r} is numeric; it has no "
                            "dictionary codes (use .values)")
        return self._codes

    @property
    def vocab(self) -> tuple:
        """The immutable, deterministically ordered vocabulary (categorical only)."""
        if self.numeric:
            raise TypeError(f"column {self.name!r} is numeric; it has no vocabulary")
        return self._vocab

    def vocab_code(self, value) -> int | None:
        """The dictionary code of ``value``, or ``None`` if absent from the vocab."""
        if self.numeric:
            raise TypeError(f"column {self.name!r} is numeric; it has no vocabulary")
        if self._vocab_index is None:
            self._vocab_index = {v: i for i, v in enumerate(self._vocab)}
        return self._vocab_index.get(value)

    # ------------------------------------------------------------------ dunder

    def __len__(self) -> int:
        return len(self._data) if self.numeric else len(self._codes)

    def __getitem__(self, idx):
        return self.values[idx]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.numeric != other.numeric:
            return False
        if len(self) != len(other):
            return False
        if self.numeric:
            return bool(
                np.all(
                    (self._data == other._data)
                    | (np.isnan(self._data) & np.isnan(other._data))
                )
            )
        if self._vocab == other._vocab:
            return bool(np.array_equal(self._codes, other._codes))
        return bool(np.all(self.values == other.values))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "numeric" if self.numeric else f"categorical[{len(self._vocab)}]"
        return f"Column({self.name!r}, n={len(self)}, {kind})"

    # ------------------------------------------------------------------ helpers

    def take(self, indices) -> "Column":
        """Return a new column with only the rows at ``indices`` (or bool mask).

        Categorical slices keep the parent vocabulary, so codes stay
        comparable across sub-populations and no re-encoding happens.
        """
        if self.numeric:
            return Column._from_numeric_data(self.name, self._data[indices])
        return Column.from_codes(self.name, self._codes[indices], self._vocab)

    def unique(self) -> list:
        """Return sorted distinct non-missing values (the active domain).

        For categorical columns this is the subset of the vocabulary whose
        codes occur in the column, in vocabulary (i.e. sorted) order — no row
        rescan, just a ``bincount`` over the codes.
        """
        if self.numeric:
            return np.unique(self._data[~np.isnan(self._data)]).tolist()
        present = np.flatnonzero(np.bincount(self._codes + 1)[1:])
        return [self._vocab[c] for c in present]

    def n_missing(self) -> int:
        if self.numeric:
            return int(np.isnan(self._data).sum())
        return int((self._codes == MISSING_CODE).sum())

    def value_counts(self) -> dict:
        """Return a mapping ``value -> count`` over non-missing values."""
        if self.numeric:
            vals = self._data[~np.isnan(self._data)]
            uniques, counts = np.unique(vals, return_counts=True)
            return {float(u): int(c) for u, c in zip(uniques, counts)}
        counts = np.bincount(self._codes[self._codes != MISSING_CODE],
                             minlength=len(self._vocab))
        return {value: int(count)
                for value, count in zip(self._vocab, counts) if count}

    def as_float(self) -> np.ndarray:
        """Return the column as a float array (categoricals are label-encoded).

        Categorical values are mapped to their dense rank among the values
        *present in this column*, in sorted (vocabulary) order — i.e. the
        i-th smallest present value maps to ``float(i)`` and missing values to
        ``NaN``.  The mapping is derived from the cached dictionary codes, so
        no per-row Python loop runs.

        .. deprecated:: Prefer :attr:`Column.codes` for categorical columns —
           codes are stable across slices, whereas this dense re-ranking is
           relative to the values present in the (possibly sliced) column.
        """
        if self.numeric:
            return self._data.astype(np.float64)
        present = np.unique(self._codes)
        present = present[present != MISSING_CODE]
        remap = np.full(len(self._vocab) + 1, -1, dtype=np.int64)
        remap[present] = np.arange(len(present))
        ranks = remap[self._codes]  # sentinel -1 wraps to the last slot (-1)
        out = ranks.astype(np.float64)
        out[ranks < 0] = np.nan
        return out

    def rename(self, new_name: str) -> "Column":
        if self.numeric:
            return Column._from_numeric_data(new_name, self._data)
        return Column.from_codes(new_name, self._codes, self._vocab)

    def concat(self, other: "Column") -> "Column":
        """Vertically concatenate two same-named columns.

        Categorical columns *merge vocabularies* instead of re-factorizing the
        raw values: the merged vocabulary is the sorted union of both sides'
        vocabularies (identical to what :func:`_factorize` would produce on the
        combined values), and each side's codes are remapped through a small
        per-vocab-entry lookup — an O(rows) fancy-index, never a per-row Python
        loop.  When one side's vocabulary already contains every value of the
        other (the common append case: a large table absorbs a small batch),
        the merged vocabulary *is* that side's vocabulary and its codes pass
        through unchanged, so masks cached against the old codes stay valid on
        the old prefix and can be revalidated by evaluating only the appended
        rows.

        An all-missing side carries no type information and adopts the other
        side's kind (``NaN`` fill for numeric, sentinel codes for
        categorical), so appending rows that omit an attribute never flips
        the column's kind.  Genuinely mixed numeric/categorical pairs fall
        back to re-factorizing the combined raw values as a categorical
        column (the pre-merge semantics).
        """
        if self.name != other.name:
            raise ValueError(f"cannot concat columns {self.name!r} and {other.name!r}")
        if self.numeric != other.numeric:
            if other.n_missing() == len(other):
                other = _all_missing_as(other, self)
            elif self.n_missing() == len(self):
                self = _all_missing_as(self, other)
        if self.numeric and other.numeric:
            return Column._from_numeric_data(
                self.name, np.concatenate([self._data, other._data]))
        if not self.numeric and not other.numeric:
            vocab, remap_self, remap_other = _merge_vocabs(self._vocab, other._vocab)
            codes = np.concatenate([
                self._codes if remap_self is None else remap_self[self._codes],
                other._codes if remap_other is None else remap_other[other._codes],
            ])
            return Column.from_codes(self.name, codes, vocab)
        return Column(self.name, list(self.values) + list(other.values),
                      numeric=False)


class LazyColumn(Column):
    """A column whose physical storage is materialized on first access.

    Built by the storage layer for disk-backed tables: the column knows its
    name, kind, length, and (for categoricals) vocabulary up front, but the
    ``float64`` data / ``int32`` code array is produced by ``loader()`` only
    when something actually touches the rows — typically a lazy concatenation
    of memory-mapped shard arrays.  ``len()`` and all metadata accessors work
    without triggering the load; every row-reading code path (``values``,
    ``codes``, ``take``, predicate kernels, …) transparently materializes via
    the ``_data`` / ``_codes`` property overrides.

    The loaded array is cached, and the loader reference is dropped so shard
    handles can be garbage-collected once the column is materialized.
    """

    def __init__(self, name: str, numeric: bool, length: int, loader,
                 vocab: Sequence = ()):
        # Deliberately does NOT call Column.__init__: storage is lazy.
        self.name = name
        self.numeric = bool(numeric)
        self._length = int(length)
        self._load_lock = named_lock("LazyColumn._load_lock")
        self._loader = loader  # guarded-by: _load_lock
        self._arr: np.ndarray | None = None  # guarded-by: _load_lock
        self._values = None
        self._vocab = tuple(vocab)
        self._vocab_index = None

    def _load(self) -> np.ndarray:
        # Concurrent requests touch shared columns from their handler
        # threads; the lock makes the load once-only (and keeps the
        # loader-dropping safe).
        with self._load_lock:
            if self._arr is None:
                arr = self._loader()
                if len(arr) != self._length:
                    raise ValueError(
                        f"lazy column {self.name!r} loaded {len(arr)} rows, "
                        f"expected {self._length}")
                self._arr = arr
                self._loader = None
            return self._arr

    @property
    def _data(self):
        return self._load() if self.numeric else None

    @property
    def _codes(self):
        return None if self.numeric else self._load()

    @property
    def materialized(self) -> bool:
        """Whether the storage has been loaded yet (no load is triggered)."""
        with self._load_lock:
            return self._arr is not None

    def __len__(self) -> int:
        return self._length


def _is_missing(value) -> bool:
    return value is None or (isinstance(value, (float, np.floating))
                             and bool(np.isnan(value)))


def _to_float(value) -> float:
    if _is_missing(value):
        return float("nan")
    return float(value)


def sorted_code_remap(values: Sequence) -> tuple[tuple, np.ndarray | None]:
    """The deterministic sorted-vocabulary contract, single-sourced.

    Given distinct ``values`` in *code order* (value ``i`` encoded as code
    ``i``), return ``(sorted vocab, remap)`` where the vocabulary is sorted
    ascending with a ``repr``-order fallback for mixed un-orderable types,
    and ``remap`` is an ``int32`` old-code → sorted-code lookup whose
    trailing slot maps the ``-1`` sentinel to itself.  ``remap`` is ``None``
    when ``values`` is already in sorted order (codes pass through).

    Every producer of dictionary codes — :func:`_factorize`, the streaming
    CSV encoder, and the storage layer's store-vocabulary loads — goes
    through this function, so their encodings agree byte for byte.
    """
    values = list(values)
    try:
        ordered = sorted(values)
    except TypeError:  # mixed un-orderable types
        ordered = sorted(values, key=repr)
    if ordered == values:
        return tuple(ordered), None
    position = {value: i for i, value in enumerate(ordered)}
    remap = np.empty(len(values) + 1, dtype=np.int32)
    for old_code, value in enumerate(values):
        remap[old_code] = position[value]
    remap[len(values)] = MISSING_CODE  # sentinel -1 wraps to the last slot
    return tuple(ordered), remap


def _factorize(values) -> tuple[np.ndarray, tuple]:
    """Dictionary-encode raw values into ``(int32 codes, sorted vocab)``.

    A ``str`` array holds no missing value and is encoded in C by
    ``np.unique``. Other input is normalised once per distinct raw value, in
    first-seen order (numpy scalars unwrapped, ``None``/``NaN`` to the
    sentinel). The vocabulary order comes from :func:`sorted_code_remap`,
    matching :meth:`Column.unique`.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "U":
        distinct, inverse = np.unique(values, return_inverse=True)
        vocab, remap = sorted_code_remap(distinct.tolist())
        return (inverse if remap is None else remap[inverse]).astype(np.int32), vocab
    if isinstance(values, np.ndarray) and values.dtype != object:
        values = values.tolist()  # one object per row, so a NaN finds its key
    first_seen: dict = {}
    codes = dict.fromkeys(values)
    for raw in codes:
        if _is_missing(raw):
            codes[raw] = MISSING_CODE
            continue
        value = raw.item() if isinstance(raw, np.generic) else raw  # clean reprs
        codes[raw] = first_seen.setdefault(value, len(first_seen))
    tmp = np.fromiter(map(codes.__getitem__, values), np.int32, count=len(values))
    vocab, remap = sorted_code_remap(first_seen)
    return tmp if remap is None else remap[tmp], vocab


def _all_missing_as(column: "Column", like: "Column") -> "Column":
    """Re-type an all-missing column to match ``like``'s kind."""
    n = len(column)
    if like.numeric:
        return Column._from_numeric_data(column.name,
                                         np.full(n, np.nan, dtype=np.float64))
    return Column.from_codes(column.name,
                             np.full(n, MISSING_CODE, dtype=np.int32), ())


def _merge_vocabs(a: tuple, b: tuple
                  ) -> tuple[tuple, np.ndarray | None, np.ndarray | None]:
    """Merge two sorted vocabularies into ``(merged, remap_a, remap_b)``.

    The merged vocabulary is the sorted union (with the same ``repr``-order
    fallback as :func:`_factorize`, so it matches a fresh factorization of the
    combined values exactly).  ``remap_a``/``remap_b`` are old-code → new-code
    lookup arrays (with the sentinel ``-1`` wrapping to a ``-1`` slot), or
    ``None`` when that side's codes are already correct — which happens
    whenever the merged vocabulary equals that side's vocabulary.
    """
    if a == b:
        return a, None, None
    union = dict.fromkeys(a)
    union.update(dict.fromkeys(b))
    try:
        merged = tuple(sorted(union))
    except TypeError:  # mixed un-orderable types
        merged = tuple(sorted(union, key=repr))
    index = {v: i for i, v in enumerate(merged)}

    def remap_for(vocab: tuple) -> np.ndarray | None:
        if vocab == merged:
            return None
        remap = np.empty(len(vocab) + 1, dtype=np.int32)
        for old_code, value in enumerate(vocab):
            remap[old_code] = index[value]
        remap[len(vocab)] = MISSING_CODE  # sentinel -1 wraps to the last slot
        return remap

    return merged, remap_for(a), remap_for(b)


def _infer_numeric(values: Sequence) -> bool:
    """A column is numeric if every non-missing value is an int/float/bool."""
    saw_value = False
    for v in values:
        if _is_missing(v):
            continue
        saw_value = True
        if isinstance(v, bool):
            continue
        if not isinstance(v, (int, float, np.integer, np.floating)):
            return False
    return saw_value
