"""Unit tests for repro.dataframe.column."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dataframe import Column
from repro.dataframe.column import MISSING_CODE, _factorize, sorted_code_remap


class TestConstruction:
    def test_numeric_inference(self):
        col = Column("x", [1, 2, 3.5])
        assert col.numeric
        assert col.values.dtype == np.float64

    def test_categorical_inference(self):
        col = Column("x", ["a", "b", "a"])
        assert not col.numeric
        assert col.values.dtype == object

    def test_mixed_values_are_categorical(self):
        col = Column("x", [1, "a", 2])
        assert not col.numeric

    def test_explicit_numeric_flag_overrides_inference(self):
        col = Column("x", [1, 2, 3], numeric=False)
        assert not col.numeric

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Column("", [1, 2])

    def test_bool_values_are_numeric(self):
        col = Column("flag", [True, False, True])
        assert col.numeric
        assert col.values[0] == 1.0

    def test_all_missing_column_is_categorical(self):
        col = Column("x", [None, None])
        assert not col.numeric


class TestMissingValues:
    def test_none_becomes_nan_in_numeric(self):
        col = Column("x", [1.0, None, 3.0])
        assert np.isnan(col.values[1])
        assert col.n_missing() == 1

    def test_none_preserved_in_categorical(self):
        col = Column("x", ["a", None, "b"])
        assert col.values[1] is None
        assert col.n_missing() == 1

    def test_nan_counts_as_missing_categorical(self):
        col = Column("x", ["a", float("nan"), "b"])
        assert col.n_missing() == 1

    def test_numpy_floating_nan_is_missing(self):
        col = Column("x", [np.float32("nan")] * 2 + ["a"], numeric=False)
        assert col.vocab == ("a",)
        assert col.codes.tolist() == [MISSING_CODE, MISSING_CODE, 0]
        assert col.n_missing() == 2

    def test_nan_in_a_float_array_is_missing(self):
        col = Column("x", np.array([1.0, np.nan, 1.0, np.nan]), numeric=False)
        assert col.vocab == (1.0,)
        assert col.codes.tolist() == [0, MISSING_CODE, 0, MISSING_CODE]


class TestOperations:
    def test_len_and_iter(self):
        col = Column("x", [1, 2, 3])
        assert len(col) == 3
        assert list(col) == [1.0, 2.0, 3.0]

    def test_take_with_indices(self):
        col = Column("x", [10, 20, 30, 40])
        taken = col.take([0, 2])
        assert list(taken) == [10.0, 30.0]
        assert taken.name == "x"

    def test_take_with_boolean_mask(self):
        col = Column("x", ["a", "b", "c"])
        taken = col.take(np.array([True, False, True]))
        assert list(taken) == ["a", "c"]

    def test_unique_sorted_without_missing(self):
        col = Column("x", ["b", "a", None, "b"])
        assert col.unique() == ["a", "b"]

    def test_unique_numeric(self):
        col = Column("x", [3, 1, 2, 1, None])
        assert col.unique() == [1.0, 2.0, 3.0]

    def test_value_counts(self):
        col = Column("x", ["a", "b", "a", None])
        assert col.value_counts() == {"a": 2, "b": 1}

    def test_as_float_label_encodes_categoricals(self):
        col = Column("x", ["b", "a", "b"])
        encoded = col.as_float()
        # 'a' -> 0, 'b' -> 1 (sorted order)
        assert list(encoded) == [1.0, 0.0, 1.0]

    def test_as_float_missing_is_nan(self):
        encoded = Column("x", ["a", None]).as_float()
        assert np.isnan(encoded[1])

    def test_rename(self):
        col = Column("x", [1, 2]).rename("y")
        assert col.name == "y"

    def test_equality(self):
        assert Column("x", [1, 2]) == Column("x", [1, 2])
        assert Column("x", [1, 2]) != Column("x", [1, 3])
        assert Column("x", [1, 2]) != Column("y", [1, 2])

    def test_equality_with_nan(self):
        assert Column("x", [1.0, None]) == Column("x", [1.0, None])


def _per_row_factorize(values):
    """The encoder as one loop over rows: the reference for ``_factorize``."""
    first_seen: dict = {}
    codes = np.empty(len(values), dtype=np.int32)
    for i, value in enumerate(values):
        if value is None or (isinstance(value, (float, np.floating))
                             and np.isnan(value)):
            codes[i] = MISSING_CODE
            continue
        if isinstance(value, np.str_):
            value = str.__str__(value)  # .item() would drop trailing NULs
        elif isinstance(value, np.generic):
            value = value.item()
        codes[i] = first_seen.setdefault(value, len(first_seen))
    vocab, remap = sorted_code_remap(first_seen)
    return codes if remap is None else remap[codes], vocab


_RAW_VALUE = st.one_of(
    st.none(),
    st.builds(lambda: float("nan")),  # a distinct NaN object per draw
    st.just(np.float32("nan")),
    st.sampled_from([1, True, 1.0, 0, False, 0.0, 2.5, -3]),
    st.text(max_size=3),  # non-ASCII included
    st.text(max_size=3).map(np.str_),
    st.integers(-2, 2).map(np.int64),
)


def _assert_same_encoding(values):
    codes, vocab = _factorize(values)
    ref_codes, ref_vocab = _per_row_factorize(values)
    assert codes.dtype == np.int32
    assert codes.tolist() == ref_codes.tolist()
    assert vocab == ref_vocab
    assert [type(v) for v in vocab] == [type(v) for v in ref_vocab]


@settings(max_examples=300, deadline=None)
@given(st.lists(_RAW_VALUE, max_size=40))
# One multiset in both orders: a trailing NUL survives either way.
@example(["\x00", np.str_("\x00")])
@example([np.str_("\x00"), "\x00"])
def test_factorize_equals_the_per_row_loop(values):
    _assert_same_encoding(values)
    _assert_same_encoding(np.array(values, dtype=object))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=4), max_size=40))
def test_factorize_of_a_str_array_equals_the_per_row_loop(strings):
    values = np.array(strings, dtype=str)
    assert values.dtype.kind == "U"
    _assert_same_encoding(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True, width=32),
                          st.sampled_from([0.0, 1.0, -0.0])), max_size=40))
def test_factorize_of_a_float_array_equals_the_per_row_loop(floats):
    _assert_same_encoding(np.array(floats, dtype=np.float64))
    _assert_same_encoding(np.array(floats, dtype=np.float32))
