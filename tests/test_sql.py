"""Unit tests for the query layer: parsing, validation, and view materialisation."""

import numpy as np
import pytest

from repro.dataframe import Pattern
from repro.sql import (
    AggregateView,
    GroupByAvgQuery,
    normalize_literal,
    normalize_query,
    parse_query,
)


class TestQueryConstruction:
    def test_single_group_by_string(self):
        query = GroupByAvgQuery(group_by="Country", average="Salary")
        assert query.group_by == ("Country",)

    def test_average_cannot_be_group_by(self):
        with pytest.raises(ValueError):
            GroupByAvgQuery(group_by=["Salary"], average="Salary")

    def test_empty_group_by_rejected(self):
        with pytest.raises(ValueError):
            GroupByAvgQuery(group_by=[], average="Salary")

    def test_validate_unknown_attribute(self, simple_table):
        query = GroupByAvgQuery(group_by="Missing", average="Salary")
        with pytest.raises(KeyError):
            query.validate(simple_table)

    def test_validate_non_numeric_average(self, simple_table):
        query = GroupByAvgQuery(group_by="Country", average="Gender")
        with pytest.raises(TypeError):
            query.validate(simple_table)

    def test_to_sql_round_trips_through_parser(self):
        query = GroupByAvgQuery(group_by=["Country"], average="Salary",
                                where=Pattern.of(("Age", ">", 25)), table_name="SO")
        reparsed = parse_query(query.to_sql())
        assert reparsed.group_by == query.group_by
        assert reparsed.average == query.average
        assert len(reparsed.where) == 1


class TestParser:
    def test_basic_query(self):
        query = parse_query("SELECT Country, AVG(Salary) FROM SO GROUP BY Country")
        assert query.group_by == ("Country",)
        assert query.average == "Salary"
        assert query.table_name == "SO"

    def test_lowercase_keywords(self):
        query = parse_query("select g, avg(y) from t group by g")
        assert query.average == "y"

    def test_multiple_group_by(self):
        query = parse_query("SELECT a, b, AVG(y) FROM t GROUP BY a, b")
        assert query.group_by == ("a", "b")

    def test_where_clause(self):
        query = parse_query(
            "SELECT g, AVG(y) FROM t WHERE age > 30 AND country = 'US' GROUP BY g")
        assert len(query.where) == 2
        values = {p.attribute: p.value for p in query.where}
        assert values["age"] == 30
        assert values["country"] == "US"

    def test_trailing_semicolon(self):
        assert parse_query("SELECT g, AVG(y) FROM t GROUP BY g;").average == "y"

    def test_missing_avg_rejected(self):
        with pytest.raises(ValueError):
            parse_query("SELECT g, SUM(y) FROM t GROUP BY g")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_query("DELETE FROM t")

    def test_duplicate_group_by_rejected(self):
        with pytest.raises(ValueError, match="duplicate GROUP BY.*g"):
            parse_query("SELECT g, AVG(y) FROM t GROUP BY g, g")

    def test_negative_literal(self):
        query = parse_query("SELECT g, AVG(y) FROM t WHERE delta > -5 GROUP BY g")
        assert query.where.predicates[0].value == -5

    def test_parenthesized_literals(self):
        query = parse_query(
            "SELECT g, AVG(y) FROM t WHERE a = (30) AND b <= ((-2.5)) GROUP BY g")
        values = {p.attribute: p.value for p in query.where}
        assert values["a"] == 30 and isinstance(values["a"], int)
        assert values["b"] == -2.5

    def test_bad_condition_reports_offending_text(self):
        with pytest.raises(ValueError, match=r"age >>"):
            parse_query("SELECT g, AVG(y) FROM t WHERE age >> 30 GROUP BY g")

    def test_empty_parenthesized_literal_reports_condition(self):
        with pytest.raises(ValueError, match=r"a = \(\)"):
            parse_query("SELECT g, AVG(y) FROM t WHERE a = () GROUP BY g")


class TestNormalization:
    def test_group_by_order_canonicalised(self):
        query = parse_query("SELECT b, a, AVG(y) FROM t GROUP BY b, a")
        assert normalize_query(query).group_by == ("a", "b")

    def test_idempotent_returns_same_object(self):
        query = parse_query("SELECT a, b, AVG(y) FROM t GROUP BY a, b")
        assert normalize_query(query) is query

    def test_integral_float_literal_collapsed(self):
        query = parse_query("SELECT g, AVG(y) FROM t WHERE age > 30.0 GROUP BY g")
        normalized = normalize_query(query)
        value = normalized.where.predicates[0].value
        assert value == 30 and isinstance(value, int)

    def test_numpy_str_literal_keeps_trailing_nuls(self):
        # As column encoding unwraps it, so the literal finds its value.
        value = normalize_literal(np.str_("a\x00"))
        assert value == "a\x00" and type(value) is str

    def test_fingerprint_equivalent_spellings_agree(self):
        a = parse_query("SELECT b, a, AVG(y) FROM t WHERE age > 30.0 GROUP BY b, a")
        b = parse_query("SELECT a, b, AVG(y) FROM s WHERE age > (30) GROUP BY a, b")
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_distinguishes_queries(self):
        a = parse_query("SELECT g, AVG(y) FROM t GROUP BY g")
        b = parse_query("SELECT g, AVG(z) FROM t GROUP BY g")
        c = parse_query("SELECT g, AVG(y) FROM t WHERE y > 1 GROUP BY g")
        assert len({a.fingerprint, b.fingerprint,
                    c.fingerprint}) == 3

    def test_fingerprint_distinguishes_value_types(self):
        a = parse_query("SELECT g, AVG(y) FROM t WHERE a = '30' GROUP BY g")
        b = parse_query("SELECT g, AVG(y) FROM t WHERE a = 30 GROUP BY g")
        assert a.fingerprint != b.fingerprint


class TestAggregateView:
    def test_groups_and_averages(self, small_view):
        assert small_view.m == 3
        us = small_view.group(("US",))
        assert us.average == pytest.approx(131.5)
        assert us.size == 2

    def test_group_keys_sorted(self, small_view):
        assert small_view.group_keys() == [("China",), ("India",), ("US",)]

    def test_rows_of_group_and_group_table(self, small_view):
        rows = small_view.rows_of_group(("India",))
        assert len(rows) == 2
        sub = small_view.group_table(("India",))
        assert set(sub.column("Country").values) == {"India"}

    def test_covered_groups_full_coverage(self, small_view):
        covered = small_view.covered_groups(Pattern.of(("Continent", "=", "Asia")))
        assert covered == frozenset({("India",), ("China",)})

    def test_covered_groups_requires_all_tuples(self, small_view):
        # Gender=Male does not hold for every tuple of any country.
        covered = small_view.covered_groups(Pattern.of(("Gender", "=", "Male")))
        assert covered == frozenset()

    def test_empty_pattern_covers_everything(self, small_view):
        assert small_view.covered_groups(Pattern()) == frozenset(small_view.group_keys())

    def test_coverage_fraction(self, small_view):
        assert small_view.coverage_fraction([("US",)]) == pytest.approx(1 / 3)

    def test_where_filter_applied(self, simple_table):
        query = GroupByAvgQuery(group_by="Country", average="Salary",
                                where=Pattern.of(("Continent", "=", "Asia")))
        view = AggregateView(simple_table, query)
        assert view.m == 2

    def test_as_rows(self, small_view):
        rows = small_view.as_rows()
        assert rows[0]["Country"] == "China"
        assert "avg_Salary" in rows[0]
