"""Factorized group-by index over composite keys.

``GroupByIndex`` assigns every row a dense integer *group id* by combining the
per-attribute dictionary codes of the grouping attributes (categorical columns
contribute their cached codes directly; numeric columns are factorized once
with ``np.unique``) and collapsing the composite codes with
``np.unique(..., return_inverse=True)``.  Composite codes below 2**16 are
sorted as ``uint16``, for which numpy's stable sort is a radix sort; the
``int64`` comparison sort finds the same permutation, since a stable sort's
output is unique.  All group-level operations —
membership lists, sizes, averages, and the "every row of the group satisfies a
mask" coverage test — then become ``np.bincount``/fancy-indexing kernels over
the inverse array instead of per-row Python dictionary updates.

The index preserves the exact semantics of the previous dict-based
implementation:

* group keys are tuples of the raw column values of the group's first row, so
  key types (``str``, ``np.float64``, ``None``) match row-at-a-time grouping;
  categorical values are read through the vocabulary from the first rows'
  codes, so no column decodes all its rows;
* groups are ordered by first occurrence (dict insertion order of the old
  code), with :meth:`sorted_by_repr` providing the ``repr``-sorted order used
  by ``Table.groupby_avg``;
* rows with a ``NaN`` numeric key each form their own singleton group, which
  is what a Python dict keyed on fresh ``nan`` scalars produced.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataframe.column import MISSING_CODE

# Mixed-radix combination of per-attribute codes must not overflow int64.
_MAX_RADIX = np.int64(2) ** 62


class GroupByIndex:
    """A factorized index of the groups of ``table`` under ``attributes``.

    Attributes
    ----------
    inverse:
        ``int64`` array of length ``n_rows`` mapping each row to its dense
        group id.
    n_groups:
        Number of distinct groups.
    first_row:
        ``int64`` array with the index of each group's first row, indexed by
        group id (ascending: groups are numbered by first occurrence).
    keys:
        Group keys (tuples of raw values) indexed by group id, in first
        occurrence order.
    sizes:
        ``int64`` array of group sizes indexed by group id.
    """

    def __init__(self, table, attributes: Sequence[str]):
        self.table = table
        self.attributes = tuple(attributes)
        n = table.n_rows
        code_arrays = [_attribute_codes(table.column(a)) for a in self.attributes]
        raw = _combine_codes(code_arrays, n)
        _, first_row, inverse_first = np.unique(_radix(raw), return_index=True,
                                                return_inverse=True)
        inverse_first = inverse_first.reshape(-1).astype(np.int64, copy=False)
        first_row = first_row.astype(np.int64, copy=False)
        # Renumber group ids into first-occurrence order (np.unique numbers
        # them by sorted composite code instead).
        n_groups = len(first_row)
        order = np.argsort(first_row, kind="stable")
        renumber = np.empty(n_groups, dtype=np.int64)
        renumber[order] = np.arange(n_groups, dtype=np.int64)
        self.inverse = renumber[inverse_first] if n else inverse_first
        self.n_groups = n_groups
        self.first_row = first_row[order]
        self.sizes = np.bincount(self.inverse, minlength=n_groups)
        self.keys: list[tuple] = list(zip(*(
            _values_at(table.column(a), self.first_row)
            for a in self.attributes))) if self.attributes else [()] * n_groups
        self._indices: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ membership

    def group_indices(self) -> list[np.ndarray]:
        """Row indices of each group (ascending), indexed by group id."""
        if self._indices is None:
            if self.n_groups == 0:
                self._indices = []
            else:
                order = np.argsort(_radix(self.inverse), kind="stable")
                boundaries = np.cumsum(self.sizes)[:-1]
                self._indices = np.split(order, boundaries)
        return self._indices

    def indices_by_key(self) -> dict:
        """Map each group key to its (ascending) row-index array."""
        return dict(zip(self.keys, self.group_indices()))

    # ------------------------------------------------------------------ orderings

    def sorted_by_repr(self) -> list[int]:
        """Group ids sorted by ``repr`` of the key (Table.groupby_avg order)."""
        return sorted(range(self.n_groups), key=lambda g: repr(self.keys[g]))

    # ------------------------------------------------------------------ aggregation

    def averages(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-group mean of ``values`` ignoring ``NaN`` entries.

        Returns ``(averages, valid_counts)`` indexed by group id; a group with
        no valid value averages to ``NaN``.  Sums run over rows in ascending
        index order per group (matching the row-at-a-time accumulation).
        """
        averages = np.full(self.n_groups, np.nan, dtype=np.float64)
        counts = np.zeros(self.n_groups, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        for gid, rows in enumerate(self.group_indices()):
            group_values = values[rows]
            valid = group_values[~np.isnan(group_values)]
            counts[gid] = valid.size
            if valid.size:
                averages[gid] = float(valid.mean())
        return averages, counts

    def all_true(self, mask: np.ndarray) -> np.ndarray:
        """Boolean array per group id: does ``mask`` hold on *every* group row?"""
        mask = np.asarray(mask, dtype=bool)
        true_per_group = np.bincount(self.inverse, weights=mask,
                                     minlength=self.n_groups)
        return true_per_group.astype(np.int64) == self.sizes

    def __len__(self) -> int:
        return self.n_groups

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"GroupByIndex({list(self.attributes)!r}, "
                f"groups={self.n_groups}, rows={len(self.inverse)})")


def _radix(codes: np.ndarray) -> np.ndarray:
    """``codes`` as ``uint16`` when every code fits, else unchanged.

    numpy's stable sort is a radix sort for integers of at most 16 bits, and
    a stable sort's output is unique, so the permutation is the same one the
    ``int64`` comparison sort finds.
    """
    if len(codes) and int(codes.max()) < 1 << 16:
        return codes.astype(np.uint16)
    return codes


def _values_at(column, rows: np.ndarray):
    """The raw values at ``rows``: ``np.float64`` scalars of a numeric column,
    vocabulary entries of a categorical one (``None`` for the missing code),
    which is thus never decoded in full."""
    if column.numeric:
        return column.values[rows]
    lookup = column.vocab + (None,)  # MISSING_CODE (-1) reads the last slot
    return [lookup[code] for code in column.codes[rows].tolist()]


def _attribute_codes(column) -> np.ndarray:
    """Non-negative factor codes for one grouping attribute.

    Categorical columns reuse their dictionary codes (shifted so the missing
    sentinel becomes 0).  Numeric columns are factorized with ``np.unique``;
    every ``NaN`` row gets a unique code so each forms a singleton group,
    mirroring dict-based grouping where ``nan`` keys never compare equal.
    """
    if not column.numeric:
        codes = column.codes.astype(np.int64, copy=False) - MISSING_CODE
        return codes
    values = column.values
    nan_mask = np.isnan(values)
    codes = np.empty(len(values), dtype=np.int64)
    uniques, inv = np.unique(values[~nan_mask], return_inverse=True)
    codes[~nan_mask] = inv.reshape(-1)
    n_nan = int(nan_mask.sum())
    if n_nan:
        codes[nan_mask] = len(uniques) + np.arange(n_nan, dtype=np.int64)
    return codes


def _combine_codes(code_arrays: list[np.ndarray], n_rows: int) -> np.ndarray:
    """Collapse per-attribute codes into one comparable array of composite ids."""
    if not code_arrays:
        return np.zeros(n_rows, dtype=np.int64)
    if len(code_arrays) == 1:
        return code_arrays[0]
    cardinalities = [int(codes.max()) + 1 if n_rows else 1 for codes in code_arrays]
    total = np.int64(1)
    fits = True
    for cardinality in cardinalities:
        if int(total) * cardinality > int(_MAX_RADIX):
            fits = False
            break
        total = np.int64(int(total) * cardinality)
    if fits:
        combined = np.zeros(n_rows, dtype=np.int64)
        multiplier = 1
        for codes, cardinality in zip(reversed(code_arrays),
                                      reversed(cardinalities)):
            combined += codes * multiplier
            multiplier *= cardinality
        return combined
    # Astronomically wide key space: fall back to hashing row tuples of codes.
    stacked = np.stack(code_arrays, axis=1)
    seen: dict[bytes, int] = {}
    combined = np.empty(n_rows, dtype=np.int64)
    for i in range(n_rows):
        key = stacked[i].tobytes()
        combined[i] = seen.setdefault(key, len(seen))
    return combined
