"""Materialised aggregate views ``Q(D)`` and group-level bookkeeping.

A view filters its base table with one mask AND over its WHERE conjuncts
(a stored table first skips the shards its zone maps prove empty) and then
builds its groups through one
:class:`~repro.dataframe.GroupByIndex` over the filtered rows — the same
computation whether the base table lives in memory or on disk, so every
group average is bit-identical to the in-memory view's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.dataframe import Pattern, Table
from repro.plan.execute import planned_select_with_plan
from repro.sql.query import GroupByAvgQuery


@dataclass(frozen=True)
class GroupResult:
    """One answer tuple of the aggregate view: a group, its average, and its size."""

    key: tuple
    average: float
    size: int

    def label(self) -> str:
        """Unambiguous ``/``-joined rendering of the key.

        ``/`` (and ``\\``) occurring *inside* a key part is escaped so distinct
        keys such as ``("a/b", "c")`` and ``("a", "b/c")`` never collide on the
        same label.
        """
        return "/".join(
            str(k).replace("\\", "\\\\").replace("/", "\\/") for k in self.key
        )


class AggregateView:
    """The result ``Q(D)`` of evaluating a group-by-average query over a table.

    Besides the answer tuples, the view keeps the row indices contributing to
    each group, which the grouping-pattern coverage logic needs.
    """

    def __init__(self, table: Table, query: GroupByAvgQuery,
                 mask_cache=None):
        query.validate(table)
        self.query = query
        self.base_table = table
        # The WHERE clause is one mask AND over its conjuncts; a
        # storage-backed ShardedTable first skips whole shards via zone
        # maps, and a caller-supplied MaskCache (the serving engine's
        # per-dataset WHERE cache) amortises repeated predicates across
        # queries.  The executed ScanPlan — shard-skip counts, rows in and
        # out — is kept on ``scan_plan`` for ``explain_plan`` and telemetry.
        # The filtered rows are exactly ``table.select(where)``'s.
        self.scan_plan = None
        if query.where.is_empty():
            self.table = table
        else:
            self.table, self.scan_plan = planned_select_with_plan(
                table, query.where, mask_cache=mask_cache)
        #: The factorized :class:`~repro.dataframe.GroupByIndex` behind the
        #: view.  It also backs membership lists and the covered-groups test,
        #: and downstream layers (e.g. the optimizer's group-weighted
        #: coverage scoring) reuse its dense group ids and sizes instead of
        #: rebuilding them from the answer tuples.
        self.index = index = self.table.group_index(list(query.group_by))
        self._lazy_group_rows = None
        outcome_column = self.table.column(query.average)
        outcome = outcome_column.values.astype(np.float64) \
            if outcome_column.numeric else outcome_column.as_float()
        averages, _ = index.averages(outcome)
        self.groups: list[GroupResult] = [
            GroupResult(key=index.keys[g], average=float(averages[g]),
                        size=int(index.sizes[g]))
            for g in index.sorted_by_repr()
        ]
        self._group_index = {g.key: i for i, g in enumerate(self.groups)}

    # ------------------------------------------------------------------ accessors

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    @property
    def m(self) -> int:
        """Number of groups in the view (``m = |Q(D)|``)."""
        return len(self.groups)

    @property
    def _group_rows(self):
        if self._lazy_group_rows is None:
            self._lazy_group_rows = self.index.indices_by_key()
        return self._lazy_group_rows

    def group_keys(self) -> list[tuple]:
        return [g.key for g in self.groups]

    def group_weights(self) -> dict[tuple, float]:
        """Per-group tuple counts (``{group key: size}``).

        Consumers treat this as a mapping; they bring their own group order.
        """
        return {g.key: float(g.size) for g in self.groups}

    def group(self, key: tuple) -> GroupResult:
        return self.groups[self._group_index[key]]

    def rows_of_group(self, key: tuple) -> np.ndarray:
        """Row indices (into the filtered table) contributing to a group."""
        return self._group_rows[key]

    def group_table(self, key: tuple) -> Table:
        """The sub-table of tuples contributing to one group."""
        return self.table.take(self.rows_of_group(key))

    # ------------------------------------------------------------------ coverage

    def covered_groups(self, grouping_pattern: Pattern) -> frozenset:
        """Groups covered by a grouping pattern (Definition 4.4).

        A group is covered when every tuple contributing to it satisfies the
        pattern.  Because grouping-pattern attributes are functionally
        determined by the group-by attributes, checking a single representative
        tuple per group is sufficient; we nevertheless verify all tuples to stay
        faithful to the definition (and robust to FD violations in dirty data).
        """
        if grouping_pattern.is_empty():
            return frozenset(self.group_keys())
        mask = grouping_pattern.evaluate(self.table)
        fully_covered = self.index.all_true(mask)
        return frozenset(self.index.keys[g]
                         for g in np.flatnonzero(fully_covered))

    def coverage_fraction(self, covered: Iterable[tuple]) -> float:
        """Fraction of view groups contained in ``covered``."""
        covered = set(covered)
        return len(covered & set(self.group_keys())) / self.m if self.m else 0.0

    # ------------------------------------------------------------------ rendering

    def as_rows(self) -> list[dict]:
        """The view as a list of dictionaries (useful for printing/plotting)."""
        rows = []
        for g in self.groups:
            row = {attr: value for attr, value in zip(self.query.group_by, g.key)}
            row[f"avg_{self.query.average}"] = g.average
            row["count"] = g.size
            rows.append(row)
        return rows
