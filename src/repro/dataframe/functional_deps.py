"""Functional-dependency detection over table instances.

Grouping patterns (Definition 4.2) may only use attributes ``W`` such that the
functional dependency ``A_gb -> W`` holds in the database instance.  These
helpers detect the set of such attributes and perform the grouping/treatment
attribute partition described in Section 4.1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataframe.groupby import GroupByIndex
from repro.dataframe.table import Table


def fd_holds(table: Table, lhs: Sequence[str], rhs: str) -> bool:
    """Return True iff the functional dependency ``lhs -> rhs`` holds in ``table``.

    Every combination of ``lhs`` values must map to exactly one ``rhs`` value.
    Missing values on the right-hand side are treated as a regular value; a
    ``NaN`` on the left-hand side equals nothing, so its row is a group of its
    own (the grouping semantics of :class:`GroupByIndex`).
    """
    return rhs in lhs or _constant_within_groups(GroupByIndex(table, lhs),
                                                 table.column(rhs))


def _constant_within_groups(index: GroupByIndex, column) -> bool:
    """Does every row carry the value of its group's first row?"""
    values = column.values if column.numeric else column.codes
    return bool(np.array_equal(values, values[index.first_row[index.inverse]],
                               equal_nan=column.numeric))


def fd_closure(table: Table, group_by: Sequence[str],
               exclude: Sequence[str] = ()) -> list[str]:
    """Attributes ``W`` (other than the grouping attributes) with ``A_gb -> W``.

    These are the attributes eligible for grouping patterns.  ``exclude`` can
    be used to keep the outcome attribute out of consideration.  The rows are
    grouped by ``group_by`` once, whatever the number of attributes checked.
    """
    excluded = set(group_by) | set(exclude)
    index = GroupByIndex(table, group_by)
    return [attr for attr in table.attributes
            if attr not in excluded
            and _constant_within_groups(index, table.column(attr))]


def grouping_attribute_partition(table: Table, group_by: Sequence[str],
                                 outcome: str) -> tuple[list[str], list[str]]:
    """Partition attributes into grouping-eligible and treatment-eligible sets.

    Attributes functionally determined by the group-by attributes are eligible
    for grouping patterns; every other attribute (except the group-by attributes
    themselves and the outcome) is eligible for treatment patterns (Section 4.1).
    """
    grouping = fd_closure(table, group_by, exclude=[outcome])
    blocked = set(grouping) | set(group_by) | {outcome}
    treatment = [a for a in table.attributes if a not in blocked]
    return grouping, treatment
