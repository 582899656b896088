"""The group-by-average query class of Section 4, and its canonical form.

``Q = SELECT A_gb, AVG(A_avg) FROM D WHERE phi GROUP BY A_gb``

The explanation service must recognise that two syntactically different
requests ask the same question, so it can serve one cached summary for both.
:func:`normalize_query` rewrites a query into its *canonical form*: group-by
attributes sorted, WHERE literals normalised (numpy scalars unwrapped,
integral floats collapsed to ``int``), and, because
:class:`~repro.dataframe.Pattern` sorts and deduplicates its predicates, a
canonical WHERE clause.  A query's keys are computed on that form:
:attr:`GroupByAvgQuery.fingerprint` keys the summary cache,
:attr:`GroupByAvgQuery.where_key` a data version's population memo, and
:attr:`GroupByAvgQuery.logical_plan` is the rendering ``repro plan`` prints.
The table name is in none of the keys (the served dataset is addressed
separately), and none depends on the process.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.dataframe import Pattern, Predicate, Table
from repro.dataframe.column import unwrap_scalar


@dataclass(frozen=True)
class GroupByAvgQuery:
    """A SQL query with group-by and average aggregate.

    Attributes
    ----------
    group_by:
        The categorical grouping attributes ``A_gb``.
    average:
        The numeric attribute aggregated with ``AVG`` (the causal outcome).
    where:
        Optional conjunctive selection predicate ``phi`` applied before grouping.
    table_name:
        Name of the relation the query ranges over (informational only).
    """

    group_by: tuple[str, ...]
    average: str
    where: Pattern = field(default_factory=Pattern)
    table_name: str = "D"

    def __init__(self, group_by: Sequence[str] | str, average: str,
                 where: Pattern | None = None, table_name: str = "D"):
        if isinstance(group_by, str):
            group_by = (group_by,)
        object.__setattr__(self, "group_by", tuple(group_by))
        object.__setattr__(self, "average", average)
        object.__setattr__(self, "where", where or Pattern())
        object.__setattr__(self, "table_name", table_name)
        if not self.group_by:
            raise ValueError("a group-by-average query needs at least one grouping attribute")
        if self.average in self.group_by:
            raise ValueError("the AVG attribute cannot also be a grouping attribute")

    def validate(self, table: Table) -> None:
        """Raise if the query references attributes missing from ``table``."""
        for attr in (*self.group_by, self.average):
            if attr not in table:
                raise KeyError(f"query references unknown attribute {attr!r}")
        if not table.is_numeric(self.average):
            raise TypeError(f"AVG attribute {self.average!r} must be numeric")
        for predicate in self.where:
            if predicate.attribute not in table:
                raise KeyError(
                    f"WHERE references unknown attribute {predicate.attribute!r}")

    def to_sql(self) -> str:
        """Render the query back to SQL text."""
        gb = ", ".join(self.group_by)
        sql = f"SELECT {gb}, AVG({self.average}) FROM {self.table_name}"
        if len(self.where):
            conditions = " AND ".join(
                f"{p.attribute} {p.op.value.replace('==', '=')} {_sql_literal(p.value)}"
                for p in self.where)
            sql += f" WHERE {conditions}"
        return sql + f" GROUP BY {gb}"

    # ------------------------------------------------------------------ keys

    @cached_property
    def where_key(self) -> tuple:
        """The canonical WHERE clause as a hashable, type-aware tuple
        (population-memo key): ``x = 1`` and ``x = '1'`` differ."""
        return tuple((p.attribute, p.op.value,
                      f"{type(p.value).__name__}:{p.value!r}")
                     for p in normalize_query(self).where)

    @cached_property
    def fingerprint(self) -> str:
        """A 16-hex-digit sha256 of the canonical query (summary-cache key).

        The encoding is the one persisted ``summaries.jsonl`` snapshots are
        keyed by, so changing a byte of it orphans every stored summary.
        """
        canonical = normalize_query(self)
        parts = [
            "gb=" + ",".join(canonical.group_by),
            "avg=" + canonical.average,
            "where=" + "&".join("".join(conjunct)
                                for conjunct in canonical.where_key),
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    @property
    def logical_plan(self) -> str:
        """The canonical query as a plan tree (``repro plan``)."""
        canonical = normalize_query(self)
        conjuncts = " AND ".join(map(repr, canonical.where)) or "TRUE"
        return "\n".join([
            f"Explain(k-summary of AVG({canonical.average}) heterogeneity)",
            f"  GroupBy(keys=[{', '.join(canonical.group_by)}], "
            f"avg={canonical.average})",
            f"    Filter({conjuncts})",
            f"      Scan({canonical.table_name})",
        ])


def normalize_literal(value):
    """Collapse equivalent literal spellings onto one canonical value.

    ``numpy`` scalars are unwrapped (:func:`~repro.dataframe.column.unwrap_scalar`,
    as column encoding does) and floats holding an integral value become
    ``int`` (``30.0`` → ``30``).  This is safe for evaluation: numeric
    predicate kernels compare through ``float(value)`` and categorical
    vocabulary lookups hash ``30`` and ``30.0`` identically.  Booleans are
    kept as-is (they are their own spelling).
    """
    value = unwrap_scalar(value)
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    return value


def normalize_query(query: GroupByAvgQuery) -> GroupByAvgQuery:
    """Return the canonical form of a query (idempotent: a canonical query
    is returned as is).

    Group-by attributes are sorted, WHERE literals are normalised, and the
    predicate order/deduplication is canonicalised by ``Pattern`` itself.
    """
    group_by = tuple(sorted(query.group_by))
    where = Pattern(Predicate(p.attribute, p.op, normalize_literal(p.value))
                    for p in query.where)
    # Predicate equality treats 30 == 30.0, so compare literal *spellings*
    # to decide whether anything actually changed.
    def spelling(pattern: Pattern) -> tuple:
        return tuple((p.attribute, p.op, repr(p.value)) for p in pattern)

    if group_by == query.group_by and spelling(where) == spelling(query.where):
        return query
    return GroupByAvgQuery(group_by=group_by, average=query.average,
                           where=where, table_name=query.table_name)


_QUERY_RE = re.compile(
    r"^\s*SELECT\s+(?P<select>.+?)\s+FROM\s+(?P<table>\w+)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?"
    r"\s+GROUP\s+BY\s+(?P<groupby>.+?)\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_AVG_RE = re.compile(r"AVG\s*\(\s*(?P<attr>\w+)\s*\)", re.IGNORECASE)
_CONDITION_RE = re.compile(
    r"^\s*(?P<attr>\w+)\s*(?P<op><=|>=|!=|<>|=|<|>)\s*(?P<value>.+?)\s*$")


def parse_query(sql: str) -> GroupByAvgQuery:
    """Parse SQL text of the form ``SELECT g, AVG(a) FROM t [WHERE ...] GROUP BY g``.

    Only the group-by-average fragment of Section 4 is supported; anything else
    raises ``ValueError``.
    """
    match = _QUERY_RE.match(sql)
    if not match:
        raise ValueError(f"cannot parse group-by-average query: {sql!r}")
    select_clause = match.group("select")
    avg_match = _AVG_RE.search(select_clause)
    if not avg_match:
        raise ValueError("query must contain an AVG(attribute) aggregate")
    average = avg_match.group("attr")
    group_by = [a.strip() for a in match.group("groupby").split(",") if a.strip()]
    duplicates = sorted({a for a in group_by if group_by.count(a) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate GROUP BY attribute(s) {', '.join(duplicates)} "
            f"in {match.group('groupby').strip()!r}")
    where = Pattern()
    if match.group("where"):
        predicates = []
        for raw in re.split(r"\s+AND\s+", match.group("where"), flags=re.IGNORECASE):
            cond = _CONDITION_RE.match(raw)
            if not cond:
                raise ValueError(f"cannot parse WHERE condition {raw.strip()!r}")
            if cond.group("value").lstrip()[:1] in {"<", ">", "=", "!"}:
                # `age >> 30` would otherwise parse as age > "> 30".
                raise ValueError(
                    f"malformed comparison in WHERE condition {raw.strip()!r}")
            try:
                value = _parse_literal(cond.group("value"))
            except ValueError as exc:
                raise ValueError(
                    f"bad literal in WHERE condition {raw.strip()!r}: {exc}") from exc
            predicates.append(Predicate(cond.group("attr"), cond.group("op"), value))
        where = Pattern(predicates)
    return GroupByAvgQuery(group_by=group_by, average=average, where=where,
                           table_name=match.group("table"))


def _parse_literal(text: str):
    text = text.strip()
    # Unwrap (possibly nested) balanced parentheses: `(30)`, `(-5)`, `((3.5))`.
    while len(text) >= 2 and text[0] == "(" and text[-1] == ")":
        inner = text[1:-1].strip()
        if not inner:
            raise ValueError("empty parenthesized literal")
        text = inner
    if (text.startswith("'") and text.endswith("'")) or \
            (text.startswith('"') and text.endswith('"')):
        return text[1:-1]
    try:
        value = float(text)
    except ValueError:
        return text
    return int(value) if value.is_integer() and "." not in text else value


def _sql_literal(value) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)
