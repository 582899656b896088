"""Unit tests for functional-dependency detection and attribute partition."""

from hypothesis import given, settings, strategies as st

from repro.dataframe import (Column, Table, fd_closure, fd_holds,
                             grouping_attribute_partition)


def test_fd_holds_true(simple_table):
    assert fd_holds(simple_table, ["Country"], "Continent")


def test_fd_holds_false(simple_table):
    assert not fd_holds(simple_table, ["Country"], "Gender")


def test_fd_reflexive(simple_table):
    assert fd_holds(simple_table, ["Country"], "Country")


def test_fd_with_multiple_lhs(simple_table):
    assert fd_holds(simple_table, ["Country", "Gender"], "Continent")


def test_fd_closure(simple_table):
    closure = fd_closure(simple_table, ["Country"], exclude=["Salary"])
    assert closure == ["Continent"]


def test_fd_closure_excludes_outcome():
    table = Table.from_columns({"g": ["a", "b"], "w": ["x", "y"], "o": [1.0, 2.0]})
    closure = fd_closure(table, ["g"], exclude=["o"])
    assert "o" not in closure
    assert "w" in closure


def test_fd_with_missing_values_consistent():
    table = Table.from_columns({"g": ["a", "a"], "w": [None, None]})
    assert fd_holds(table, ["g"], "w")


def test_fd_violated_by_missing_vs_value():
    table = Table.from_columns({"g": ["a", "a"], "w": [None, "x"]})
    assert not fd_holds(table, ["g"], "w")


def test_grouping_attribute_partition(simple_table):
    grouping, treatment = grouping_attribute_partition(simple_table, ["Country"],
                                                       "Salary")
    assert grouping == ["Continent"]
    assert "Country" not in treatment
    assert "Salary" not in treatment
    assert "Continent" not in treatment
    assert set(treatment) == {"Gender", "Age", "Role", "Education"}


def test_partition_no_fds():
    table = Table.from_columns({
        "purpose": ["car", "car", "tv"],
        "age": [20, 30, 40],
        "risk": [0.0, 1.0, 1.0],
    })
    grouping, treatment = grouping_attribute_partition(table, ["purpose"], "risk")
    assert grouping == []
    assert treatment == ["age"]


# --------------------------------------------------------------------------- reference


def _fd_holds_row_loop(table, lhs, rhs) -> bool:
    """The per-row dictionary loop ``fd_holds`` used to be; kept as its oracle."""
    if rhs in lhs:
        return True
    lhs_columns = [table.column(a).values for a in lhs]
    rhs_column = table.column(rhs).values
    seen = {}
    for i in range(table.n_rows):
        key = tuple(col[i] for col in lhs_columns)
        value = rhs_column[i]
        if key in seen:
            both_nan = seen[key] != seen[key] and value != value
            if seen[key] != value and not both_nan:
                return False
        else:
            seen[key] = value
    return True


_categorical = st.sampled_from(["a", "b", None])
_numeric = st.sampled_from([0.0, 1.0, -0.0, float("nan")])


@st.composite
def _fd_tables(draw):
    """Few rows over tiny domains, so dependencies hold about as often as not."""
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.booleans(), min_size=2, max_size=4))
    columns = []
    for i, numeric in enumerate(kinds):
        values = draw(st.lists(_numeric if numeric else _categorical,
                               min_size=n, max_size=n))
        columns.append(Column(f"c{i}", values, numeric=numeric))
    if draw(st.booleans()):  # a column determined by the first one
        source = columns[0]
        columns.append(Column("derived", [repr(v) for v in source.values],
                              numeric=False))
    return Table(columns)


@settings(max_examples=300, deadline=None)
@given(table=_fd_tables(), data=st.data())
def test_vectorised_fd_holds_equals_the_row_loop(table, data):
    attributes = list(table.attributes)
    lhs = data.draw(st.lists(st.sampled_from(attributes), min_size=1,
                             max_size=3, unique=True))
    for rhs in attributes:
        assert fd_holds(table, lhs, rhs) == _fd_holds_row_loop(table, lhs, rhs), \
            (lhs, rhs)
    outcome = attributes[-1]
    grouping, treatment = grouping_attribute_partition(table, lhs, outcome)
    assert grouping == [a for a in attributes
                        if a not in lhs and a != outcome
                        and _fd_holds_row_loop(table, lhs, a)]
    assert treatment == [a for a in attributes
                         if a not in {*grouping, *lhs, outcome}]
