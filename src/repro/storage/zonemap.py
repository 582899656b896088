"""Per-shard zone maps: skip whole shards before any mask is evaluated.

A zone map summarises one column of one shard:

* **numeric** — the min/max of the non-NaN values (``None`` when the shard
  has no non-missing value) plus the missing count;
* **categorical** — the sorted list of *store-vocabulary codes* present in
  the shard (a small explicit bitset — domains are the paper's categorical
  attributes, not open text) plus the missing count.

Pruning is *conservative*: :func:`shard_may_match` answers "could any row of
this shard satisfy the predicate?" and only answers ``False`` when the zone
map proves it.  Anything the map cannot decide (un-orderable mixed types,
non-numeric literals against numeric columns, unknown attributes) keeps the
shard.  :meth:`~repro.storage.dataset.ShardedTable.plan_shard_select` — the
one scan path over stored data — asks it once per conjunct and shard and
then evaluates the pattern's mask over the surviving shards, so a stored
scan always returns exactly the rows the in-memory ``Table.select`` returns
— the proof obligation the hypothesis tests in ``tests/test_storage.py``
and ``tests/test_parallel.py`` discharge.

A zone map is read from the manifest, which is outside input: a map that
lies about its column's kind would prune shards that hold matching rows, so
:func:`zone_map_error` checks every entry's shape when the manifest is
parsed, and the scan can trust what it reads.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dataframe import MISSING_CODE, Predicate
from repro.dataframe.predicates import Op, _ordered_compare

NUMERIC = "numeric"
CATEGORICAL = "categorical"


# ---------------------------------------------------------------------- build


def numeric_zone_map(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=np.float64)
    missing = np.isnan(values)
    present = values[~missing]
    return {
        "kind": NUMERIC,
        "min": float(present.min()) if present.size else None,
        "max": float(present.max()) if present.size else None,
        "n_missing": int(missing.sum()),
    }


def categorical_zone_map(codes: np.ndarray) -> dict:
    """The zone map of a shard column holding the store codes ``codes``.

    One ``bincount`` (the sentinel in a slot of its own) when the codes are
    dense; a bincount allocates one slot per code up to the largest, so a
    column whose codes run far past its length (a vocabulary much larger
    than the shard) sorts with ``np.unique`` instead.
    """
    codes = np.asarray(codes)
    if codes.size and codes.max() > 4 * codes.size:
        present = np.unique(codes)
        n_missing = int((codes == MISSING_CODE).sum())
        present = present[present != MISSING_CODE]
    else:
        counts = np.bincount(codes + 1)
        present = np.flatnonzero(counts[1:])
        n_missing = int(counts[0]) if counts.size else 0
    return {"kind": CATEGORICAL, "codes": present.tolist(),
            "n_missing": n_missing}


# ---------------------------------------------------------------------- parse


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and not math.isnan(value)


def zone_map_error(zone_map, kind: str) -> str | None:
    """Why ``zone_map`` is not a zone map of a ``kind`` column (else ``None``).

    A numeric map needs ``min`` / ``max`` that are both numbers with
    ``min <= max``, or both null, and an integer ``n_missing``; a
    categorical map needs ``codes`` as a list of non-negative integers and
    an integer ``n_missing``.
    """
    if not isinstance(zone_map, dict):
        return f"is a {type(zone_map).__name__}, not an object"
    if zone_map.get("kind") != kind:
        return f"has kind {zone_map.get('kind')!r}, the schema says {kind!r}"
    if not _is_int(zone_map.get("n_missing")):
        return "has no integer n_missing"
    if kind == NUMERIC:
        if "min" not in zone_map or "max" not in zone_map:
            return "has no min or no max"
        lo, hi = zone_map["min"], zone_map["max"]
        if lo is None and hi is None:
            return None
        if not (_is_number(lo) and _is_number(hi) and lo <= hi):
            return f"has min {lo!r} and max {hi!r}"
        return None
    codes = zone_map.get("codes")
    if not (isinstance(codes, list)
            and all(_is_int(code) and code >= 0 for code in codes)):
        return f"has codes {codes!r}, not a list of non-negative integers"
    return None


# ---------------------------------------------------------------------- prune


def store_code(value, store_vocab: list | None) -> int | None:
    """The store code of an equality literal, or ``None`` when absent.

    Resolve it once per scan, before the per-shard loop: the lookup is a
    linear scan of the append-ordered store vocabulary.
    """
    try:
        return (store_vocab or []).index(value)
    except (ValueError, TypeError):
        return None


def shard_may_match(zone_map: dict | None, predicate: Predicate,
                    store_vocab: list | None, code: int | None) -> bool:
    """Whether any row of the shard could satisfy ``predicate``.

    ``store_vocab`` is the dataset's append-ordered vocabulary for the
    predicate's attribute (categorical columns only), and ``code`` the
    :func:`store_code` of an equality literal.  Returns ``True`` on any
    doubt — pruning must never change a scan's result.
    """
    if zone_map is None:
        return True
    if zone_map["kind"] == NUMERIC:
        return _numeric_may_match(zone_map, predicate)
    return _categorical_may_match(zone_map, predicate, store_vocab or [],
                                  code)


def _numeric_may_match(zone_map: dict, predicate: Predicate) -> bool:
    lo, hi = zone_map["min"], zone_map["max"]
    if lo is None:
        return False  # no non-missing value; predicates never match missing
    try:
        target = float(predicate.value)
    except (TypeError, ValueError):
        return True  # evaluation will raise the same error it always did
    if np.isnan(target):
        # NaN compares unequal to everything: only ``!=`` matches, and it
        # matches every non-missing value.
        return predicate.op is Op.NE
    op = predicate.op
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


def _categorical_may_match(zone_map: dict, predicate: Predicate,
                           store_vocab: list, code: int | None) -> bool:
    codes = zone_map["codes"]
    if not codes:
        return False  # all rows missing
    op = predicate.op
    if op is Op.EQ:
        return code is not None and code in codes
    if op is Op.NE:  # some present value must differ from the target
        return not (len(codes) == 1 and codes[0] == code)
    # Ordered operator: decide per present vocabulary value (tiny domains).
    for present in codes:
        if present >= len(store_vocab):  # stale map; keep the shard
            return True
        try:
            if _ordered_compare(store_vocab[present], op, predicate.value):
                return True
        except TypeError:
            return True  # evaluation will raise identically; don't hide it
    return False
