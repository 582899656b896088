"""Tests for the dictionary-encoded columnar core.

Two families of checks:

* randomized property tests (hypothesis) asserting the vectorized kernels —
  predicate masks, one-hot encoding, group-by factorization — match the old
  per-row semantics *exactly*, including None/NaN handling and mixed-type
  object columns;
* unit tests for the encoding invariants themselves: deterministic vocab
  order, slice-stable codes, the bool-column semantics unification, and the
  ``GroupResult.label`` separator fix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe import (
    MISSING_CODE,
    Column,
    GroupByIndex,
    Op,
    Pattern,
    Predicate,
    Table,
    one_hot,
)
from repro.sql import AggregateView, GroupByAvgQuery
from repro.sql.view import GroupResult

ALL_OPS = [Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE]

# ---------------------------------------------------------------------- strategies

categorical_values = st.one_of(
    st.sampled_from(["a", "b", "c", "dd", ""]), st.none())
mixed_values = st.one_of(
    st.sampled_from(["a", "b", "c"]), st.integers(-3, 3), st.none(),
    st.just(float("nan")))
numeric_values = st.one_of(
    st.floats(-50, 50, allow_nan=False), st.none(), st.just(float("nan")))


# ---------------------------------------------------------------------- references


def reference_mask(values, op: Op, target) -> np.ndarray:
    """Pre-refactor per-row categorical predicate semantics."""
    valid = np.array([v is not None for v in values], dtype=bool)
    if op is Op.EQ:
        comparison = np.array([v == target for v in values], dtype=bool)
    elif op is Op.NE:
        comparison = np.array([v != target for v in values], dtype=bool)
    else:
        comparison = np.array(
            [v is not None and _ordered(v, op, target) for v in values],
            dtype=bool)
    return comparison & valid


def _ordered(value, op: Op, target) -> bool:
    if op is Op.LT:
        return value < target
    if op is Op.GT:
        return value > target
    if op is Op.LE:
        return value <= target
    return value >= target


def reference_one_hot(column, categories) -> np.ndarray:
    matrix = np.zeros((len(column), len(categories)), dtype=np.float64)
    index = {c: j for j, c in enumerate(categories)}
    for i, value in enumerate(column.values):
        j = index.get(value)
        if j is not None:
            matrix[i, j] = 1.0
    return matrix


# ---------------------------------------------------------------------- predicates


@given(data=st.lists(categorical_values, min_size=1, max_size=50),
       target=st.sampled_from(["a", "b", "c", "dd", "", "absent"]),
       op=st.sampled_from(ALL_OPS))
@settings(max_examples=200)
def test_categorical_kernels_match_per_row_semantics(data, target, op):
    table = Table([Column("x", data, numeric=False),
                   Column("y", [1.0] * len(data), numeric=True)])
    mask = Predicate("x", op, target).evaluate(table)
    expected = reference_mask(table.column("x").values, op, target)
    assert mask.dtype == bool
    assert np.array_equal(mask, expected)


@given(data=st.lists(mixed_values, min_size=1, max_size=50),
       target=st.one_of(st.sampled_from(["a", "b"]), st.integers(-3, 3)),
       op=st.sampled_from([Op.EQ, Op.NE]))
@settings(max_examples=200)
def test_mixed_type_object_columns_eq_ne(data, target, op):
    """Mixed str/int object columns: EQ/NE masks match per-row comparison."""
    table = Table([Column("x", data, numeric=False),
                   Column("y", [0.0] * len(data), numeric=True)])
    mask = Predicate("x", op, target).evaluate(table)
    expected = reference_mask(table.column("x").values, op, target)
    assert np.array_equal(mask, expected)


@given(data=st.lists(numeric_values, min_size=1, max_size=50),
       target=st.floats(-50, 50, allow_nan=False),
       op=st.sampled_from(ALL_OPS))
@settings(max_examples=200)
def test_numeric_kernels_missing_never_match(data, target, op):
    table = Table([Column("x", data, numeric=True)])
    mask = Predicate("x", op, target).evaluate(table)
    values = table.column("x").values
    for i, v in enumerate(values):
        if np.isnan(v):
            assert not mask[i]
        else:
            assert mask[i] == _compare_float(float(v), op, target)


def _compare_float(value: float, op: Op, target: float) -> bool:
    if op is Op.EQ:
        return value == target
    if op is Op.NE:
        return value != target
    return _ordered(value, op, target)


def test_value_absent_from_vocabulary():
    table = Table.from_columns({"x": ["a", "b", None]})
    assert list(Predicate("x", Op.EQ, "zzz").evaluate(table)) == [False] * 3
    # NE against an absent value matches every non-missing row.
    assert list(Predicate("x", Op.NE, "zzz").evaluate(table)) == [True, True, False]


# ---------------------------------------------------------------------- bool columns


def test_bool_columns_are_numeric_and_consistent():
    """Satellite regression: evaluate and evaluate_value agree on bool columns."""
    flags = [True, False, True, None]
    table = Table([Column("flag", flags)])
    assert table.column("flag").numeric  # _infer_numeric treats bool as numeric
    for target in (True, False, 1, 0, 1.0):
        for op in ALL_OPS:
            predicate = Predicate("flag", op, target)
            mask = predicate.evaluate(table)
            scalar = [predicate.evaluate_value(v) for v in flags]
            assert list(mask) == scalar, (op, target)


def test_ordered_predicate_on_slice_ignores_absent_unorderable_vocab():
    """Inherited vocab values absent from a slice must not poison ordered ops."""
    table = Table([Column("m", ["a", "b", 5], numeric=False),
                   Column("y", [0.0, 0.0, 0.0], numeric=True)])
    sliced = table.take(np.array([0, 1]))  # the int 5 stays only in the vocab
    assert list(Predicate("m", Op.LT, "b").evaluate(sliced)) == [True, False]
    # A present un-orderable value still raises, like per-row evaluation did.
    with pytest.raises(TypeError):
        Predicate("m", Op.LT, "b").evaluate(table)


def test_bool_scalar_against_non_numeric_target_falls_back_to_equality():
    assert not Predicate("a", Op.EQ, "yes").evaluate_value(True)
    assert Predicate("a", Op.NE, "yes").evaluate_value(True)
    assert not Predicate("a", Op.EQ, "yes").evaluate_value(5)


def test_bool_scalar_matches_numeric_scalar():
    assert Predicate("x", Op.EQ, 1).evaluate_value(True)
    assert Predicate("x", Op.EQ, True).evaluate_value(1.0)
    assert not Predicate("x", Op.LT, True).evaluate_value(True)
    assert Predicate("x", Op.GE, False).evaluate_value(True)


# ---------------------------------------------------------------------- encoding invariants


def test_vocab_is_sorted_and_codes_decode():
    column = Column("x", ["b", "a", None, "c", "a"], numeric=False)
    assert column.vocab == ("a", "b", "c")
    assert list(column.codes) == [1, 0, MISSING_CODE, 2, 0]
    assert list(column.values) == ["b", "a", None, "c", "a"]


def test_as_float_uses_dense_rank_of_present_values():
    column = Column("x", ["b", "a", "b", None], numeric=False)
    assert list(column.as_float()[:3]) == [1.0, 0.0, 1.0]
    assert np.isnan(column.as_float()[3])
    # Dense re-ranking is relative to *present* values, even after slicing.
    sliced = column.take(np.array([0, 2, 3]))  # only "b" and None remain
    assert list(sliced.as_float()[:2]) == [0.0, 0.0]


def test_take_preserves_vocabulary():
    column = Column("x", ["b", "a", "c", "a"], numeric=False)
    sliced = column.take(np.array([0, 3]))
    assert sliced.vocab == column.vocab
    assert list(sliced.codes) == [1, 0]
    assert sliced.unique() == ["a", "b"]  # active domain shrinks with the slice


@given(data=st.lists(categorical_values, min_size=1, max_size=40),
       mask_bits=st.lists(st.booleans(), min_size=40, max_size=40))
@settings(max_examples=100)
def test_select_sliced_tables_keep_vocabularies_consistent(data, mask_bits):
    table = Table([Column("x", data, numeric=False),
                   Column("y", list(range(len(data))), numeric=True)])
    mask = np.array(mask_bits[:len(data)], dtype=bool)
    sliced = table.select(mask)
    parent = table.column("x")
    child = sliced.column("x")
    assert child.vocab == parent.vocab
    assert np.array_equal(child.codes, parent.codes[mask])
    # The active domain equals the decoded values present in the slice.
    present = [v for v, keep in zip(parent.values, mask) if keep and v is not None]
    assert child.unique() == sorted(set(present))


@given(data=st.lists(categorical_values, min_size=1, max_size=40))
@settings(max_examples=100)
def test_one_hot_matches_per_row_reference(data):
    table = Table([Column("x", data, numeric=False),
                   Column("y", [0.0] * len(data), numeric=True)])
    for drop_first in (False, True):
        matrix, names = one_hot(table, "x", drop_first=drop_first)
        column = table.column("x")
        categories = column.unique()
        if drop_first and len(categories) > 1:
            categories = categories[1:]
        assert np.array_equal(matrix, reference_one_hot(column, categories))
        assert names == [f"x={c}" for c in categories]


def test_one_hot_numeric_column():
    table = Table.from_columns({"x": [1.0, 2.0, 1.0, None]})
    matrix, names = one_hot(table, "x", drop_first=False)
    assert names == ["x=1.0", "x=2.0"]
    assert matrix.tolist() == [[1, 0], [0, 1], [1, 0], [0, 0]]


def test_value_counts_from_codes():
    column = Column("x", ["b", "a", "b", None], numeric=False)
    assert column.value_counts() == {"a": 1, "b": 2}
    assert Column("x", [2.0, 1.0, 2.0, None]).value_counts() == {1.0: 1, 2.0: 2}


# ---------------------------------------------------------------------- group-by index


@given(keys=st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=40),
       outcomes=st.lists(st.one_of(st.floats(-10, 10, allow_nan=False),
                                   st.just(float("nan"))),
                         min_size=40, max_size=40))
@settings(max_examples=100)
def test_group_index_matches_dict_reference(keys, outcomes):
    n = len(keys)
    outcomes = outcomes[:n]
    table = Table([Column("g", keys, numeric=False),
                   Column("y", outcomes, numeric=True)])
    index = table.group_index(["g"])
    # Reference: per-row dict grouping.
    expected_rows: dict = {}
    for i, k in enumerate(keys):
        expected_rows.setdefault((k,), []).append(i)
    assert set(index.keys) == set(expected_rows)
    assert list(index.keys) == list(expected_rows)  # first-occurrence order
    by_key = index.indices_by_key()
    for key, rows in expected_rows.items():
        assert list(by_key[key]) == rows
    # Averages ignore NaN; sizes count every row.
    values = table.column("y").values
    for gid, key in enumerate(index.keys):
        rows = np.asarray(expected_rows[key])
        valid = values[rows][~np.isnan(values[rows])]
        averages, _ = index.averages(values)
        if valid.size:
            assert averages[gid] == pytest.approx(valid.mean())
        else:
            assert np.isnan(averages[gid])
        assert index.sizes[gid] == len(rows)


def test_group_index_composite_keys():
    table = Table.from_columns({
        "a": ["x", "x", "y", "y", "x"],
        "b": [1, 2, 1, 1, None],
        "y": [1.0, 2.0, 3.0, 4.0, 5.0],
    })
    index = table.group_index(["a", "b"])
    assert index.n_groups == 4
    by_key = index.indices_by_key()
    assert list(by_key[("y", 1)]) == [2, 3]
    # The missing numeric key forms its own NaN-keyed singleton group, exactly
    # like the old dict-based grouping did.
    nan_groups = [k for k in by_key if isinstance(k[1], float) and np.isnan(k[1])]
    assert len(nan_groups) == 1
    assert list(by_key[nan_groups[0]]) == [4]


def test_group_index_all_true():
    table = Table.from_columns({"g": ["a", "a", "b"], "y": [1.0, 2.0, 3.0]})
    index = table.group_index(["g"])
    mask = np.array([True, False, True])
    covered = index.all_true(mask)
    by_gid = dict(zip(index.keys, covered))
    assert not by_gid[("a",)]
    assert by_gid[("b",)]


def test_covered_groups_matches_per_group_scan():
    table = Table.from_columns({
        "Country": ["US", "US", "DE", "DE", "FR"],
        "Continent": ["NA", "NA", "EU", "EU", "EU"],
        "Salary": [1.0, 2.0, 3.0, 4.0, 5.0],
    })
    view = AggregateView(table, GroupByAvgQuery(group_by="Country",
                                                average="Salary"))
    covered = view.covered_groups(Pattern.of(("Continent", "=", "EU")))
    assert covered == frozenset({("DE",), ("FR",)})


# ---------------------------------------------------------------------- label escaping


def test_group_result_label_escapes_separator():
    collision_a = GroupResult(key=("a/b", "c"), average=0.0, size=1)
    collision_b = GroupResult(key=("a", "b/c"), average=0.0, size=1)
    assert collision_a.label() != collision_b.label()
    plain = GroupResult(key=("US", "Male"), average=0.0, size=1)
    assert plain.label() == "US/Male"  # unchanged when parts are clean
    backslash = GroupResult(key=("a\\", "/b"), average=0.0, size=1)
    assert backslash.label() == "a\\\\/\\/b"
