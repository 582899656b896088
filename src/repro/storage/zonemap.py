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
one scan path over stored data — asks it once per conjunct and shard, so a
stored scan always returns exactly the rows the in-memory
``Table.select`` returns — the proof obligation the hypothesis tests in
``tests/test_storage.py`` discharge.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import Predicate
from repro.dataframe.predicates import Op

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


def categorical_zone_map(codes: np.ndarray, n_missing: int) -> dict:
    """The zone map of a shard whose present store codes are ``codes``
    (ascending, see :func:`repro.plan.stats.code_counts`)."""
    return {
        "kind": CATEGORICAL,
        "codes": codes.tolist(),
        "n_missing": n_missing,
    }


# ---------------------------------------------------------------------- prune


def shard_may_match(zone_map: dict | None, predicate: Predicate,
                    store_vocab: list | None = None) -> bool:
    """Whether any row of the shard could satisfy ``predicate``.

    ``store_vocab`` is the dataset's append-ordered vocabulary for the
    predicate's attribute (categorical columns only).  Returns ``True`` on
    any doubt — pruning must never change a scan's result.
    """
    if zone_map is None:
        return True
    if zone_map.get("kind") == NUMERIC:
        return _numeric_may_match(zone_map, predicate)
    if zone_map.get("kind") == CATEGORICAL:
        return _categorical_may_match(zone_map, predicate, store_vocab or [])
    return True


def _numeric_may_match(zone_map: dict, predicate: Predicate) -> bool:
    lo, hi = zone_map.get("min"), zone_map.get("max")
    if lo is None or hi is None:
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
                           store_vocab: list) -> bool:
    codes = zone_map.get("codes", [])
    if not codes:
        return False  # all rows missing
    op = predicate.op
    if op in (Op.EQ, Op.NE):
        try:
            target_code = store_vocab.index(predicate.value)
        except ValueError:
            target_code = None  # value absent from the whole dataset
        if op is Op.EQ:
            return target_code is not None and target_code in codes
        # NE: some present value must differ from the target.
        return not (len(codes) == 1 and codes[0] == target_code)
    # Ordered operator: decide per present vocabulary value (tiny domains).
    from repro.dataframe.predicates import _ordered_compare

    for code in codes:
        if code >= len(store_vocab):  # stale map; keep the shard
            return True
        try:
            if _ordered_compare(store_vocab[code], op, predicate.value):
                return True
        except TypeError:
            return True  # evaluation will raise identically; don't hide it
    return False
