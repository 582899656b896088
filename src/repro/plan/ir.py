"""The logical query-plan IR: ``Scan → Filter(conjuncts) → GroupBy → Explain``.

Every consumer of the paper's aggregate-view queries compiles into this one
representation: the SQL layer lowers a parsed
:class:`~repro.sql.query.GroupByAvgQuery` with :func:`lower_query`, the
serving engine keys its caches by :attr:`LogicalPlan.fingerprint`, and the
physical planner (:mod:`repro.plan.planner`) turns the filter node's
conjuncts into an ordered execution schedule.

The IR is *canonical by construction*: lowering normalises literals
(:func:`~repro.sql.normalize.normalize_literal`), sorts the group-by
attributes, and relies on :class:`~repro.dataframe.Pattern` to sort and
deduplicate conjuncts — two requests asking the same question lower to equal
plans with equal fingerprints, which is exactly the property the engine's
summary cache needs from a key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from repro.dataframe import Pattern, Predicate


@dataclass(frozen=True)
class ScanNode:
    """Leaf: read one relation (named for rendering only)."""

    table_name: str = "D"


@dataclass(frozen=True)
class FilterNode:
    """Conjunctive selection; ``conjuncts`` is canonical (sorted, deduped)."""

    conjuncts: tuple[Predicate, ...]
    child: ScanNode

    @property
    def pattern(self) -> Pattern:
        return Pattern(self.conjuncts)


@dataclass(frozen=True)
class GroupByNode:
    """Group by the (sorted) key attributes, averaging ``average``."""

    keys: tuple[str, ...]
    average: str
    child: FilterNode


@dataclass(frozen=True)
class ExplainNode:
    """Root: summarize the view's heterogeneity causally (Algorithm 1)."""

    child: GroupByNode


@dataclass(frozen=True)
class LogicalPlan:
    """One lowered query; hashable, canonical, and cheap to fingerprint."""

    root: ExplainNode = field(compare=True)

    # ------------------------------------------------------------------ accessors

    @property
    def group_by(self) -> tuple[str, ...]:
        return self.root.child.keys

    @property
    def average(self) -> str:
        return self.root.child.average

    @property
    def filter(self) -> Pattern:
        return self.root.child.child.pattern

    @property
    def conjuncts(self) -> tuple[Predicate, ...]:
        return self.root.child.child.conjuncts

    @property
    def table_name(self) -> str:
        return self.root.child.child.child.table_name

    # ------------------------------------------------------------------ keys

    @cached_property
    def where_key(self) -> tuple:
        """Hashable canonical form of the filter node (population-cache key)."""
        return tuple((p.attribute, p.op.value,
                      f"{type(p.value).__name__}:{p.value!r}")
                     for p in self.conjuncts)

    @cached_property
    def fingerprint(self) -> str:
        """A stable hex digest of the whole plan (summary/view-cache key).

        Independent of the table name (the served dataset is addressed
        separately) and of the process — no ``id()`` or hash-randomised
        content enters the digest.  The encoding matches the engine's
        pre-planner query fingerprints byte for byte, so summary-cache
        snapshots persisted by older builds restore against planned keys.
        """
        parts = [
            "gb=" + ",".join(self.group_by),
            "avg=" + self.average,
            "where=" + "&".join(
                f"{p.attribute}{p.op.value}{type(p.value).__name__}:{p.value!r}"
                for p in self.conjuncts),
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------ rendering

    def render(self) -> str:
        """Human-readable plan tree (``repro plan`` / ``explain_plan``)."""
        conjuncts = " AND ".join(repr(p) for p in self.conjuncts) or "TRUE"
        return "\n".join([
            f"Explain(k-summary of AVG({self.average}) heterogeneity)",
            f"  GroupBy(keys=[{', '.join(self.group_by)}], "
            f"avg={self.average})",
            f"    Filter({conjuncts})",
            f"      Scan({self.table_name})",
        ])


def lower_query(query) -> LogicalPlan:
    """Lower a :class:`~repro.sql.query.GroupByAvgQuery` into the plan IR.

    The query is canonicalised first (sorted group-by, normalised WHERE
    literals), so syntactically different spellings of one question lower to
    equal plans.
    """
    from repro.sql.normalize import normalize_query

    canonical = normalize_query(query)
    scan = ScanNode(table_name=canonical.table_name)
    where = FilterNode(conjuncts=tuple(canonical.where.predicates), child=scan)
    grouped = GroupByNode(keys=tuple(canonical.group_by),
                          average=canonical.average, child=where)
    return LogicalPlan(root=ExplainNode(child=grouped))
