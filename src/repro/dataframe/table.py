"""In-memory columnar table with the relational operations CauSumX needs."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.dataframe.column import Column
from repro.dataframe.groupby import GroupByIndex
from repro.dataframe.predicates import Pattern, Predicate


class Table:
    """A single-relation database instance over a fixed schema.

    The table is columnar: each attribute is a :class:`Column`.  All columns
    must have the same length.  Tables are treated as immutable by the
    algorithms (operations return new tables), though ``add_column`` is
    provided for construction convenience.
    """

    def __init__(self, columns: Sequence[Column] | Mapping[str, Iterable], name: str = "table"):
        if isinstance(columns, Mapping):
            columns = [Column(k, v) for k, v in columns.items()]
        columns = list(columns)
        if not columns:
            raise ValueError("a table needs at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise ValueError(f"columns have differing lengths: {sorted(lengths)}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        self.name = name
        self._columns: dict[str, Column] = {c.name: c for c in columns}
        self._n_rows = lengths.pop()

    # ------------------------------------------------------------------ construction

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping], schema: Sequence[str] | None = None,
                  name: str = "table") -> "Table":
        """Build a table from a sequence of row dictionaries."""
        if not rows:
            raise ValueError("cannot build a table from zero rows")
        if schema is None:
            schema = list(rows[0].keys())
        columns = [Column(attr, [row.get(attr) for row in rows]) for attr in schema]
        return cls(columns, name=name)

    @classmethod
    def from_columns(cls, data: Mapping[str, Iterable], name: str = "table") -> "Table":
        return cls(data, name=name)

    # ------------------------------------------------------------------ dunder / accessors

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table({self.name!r}, rows={self.n_rows}, cols={self.n_cols})"

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._columns

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.attributes != other.attributes:
            return False
        return all(self._columns[a] == other._columns[a] for a in self.attributes)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_cols(self) -> int:
        return len(self._columns)

    @property
    def attributes(self) -> tuple:
        """Schema attribute names, in insertion order."""
        return tuple(self._columns)

    def column(self, attribute: str) -> Column:
        if attribute not in self._columns:
            raise KeyError(f"unknown attribute {attribute!r}; "
                           f"schema is {list(self._columns)}")
        return self._columns[attribute]

    def columns(self) -> list[Column]:
        return list(self._columns.values())

    def is_numeric(self, attribute: str) -> bool:
        return self.column(attribute).numeric

    def domain(self, attribute: str) -> list:
        """The active domain (sorted distinct values) of an attribute."""
        return self.column(attribute).unique()

    def row(self, index: int) -> dict:
        return {name: col.values[index] for name, col in self._columns.items()}

    def iter_rows(self):
        for i in range(self.n_rows):
            yield self.row(i)

    def to_rows(self) -> list[dict]:
        return list(self.iter_rows())

    def head(self, n: int = 5) -> list[dict]:
        return [self.row(i) for i in range(min(n, self.n_rows))]

    # ------------------------------------------------------------------ mutation (construction only)

    def add_column(self, column: Column) -> None:
        """Add a column in-place.  Intended for dataset-construction code only."""
        if len(column) != self.n_rows:
            raise ValueError("column length does not match table")
        if column.name in self._columns:
            raise ValueError(f"column {column.name!r} already exists")
        self._columns[column.name] = column

    # ------------------------------------------------------------------ relational ops

    def select(self, condition) -> "Table":
        """Return the sub-table of rows satisfying ``condition``.

        ``condition`` may be a :class:`Pattern`, a :class:`Predicate`, or a
        boolean numpy mask.
        """
        mask = self._as_mask(condition)
        return self.take(np.nonzero(mask)[0])

    def take(self, indices) -> "Table":
        """Return a new table with only the given row indices."""
        indices = np.asarray(indices)
        cols = [c.take(indices) for c in self._columns.values()]
        return Table(cols, name=self.name)

    def project(self, attributes: Sequence[str]) -> "Table":
        """Return a new table containing only the given attributes."""
        return Table([self.column(a) for a in attributes], name=self.name)

    def drop(self, attributes: Sequence[str]) -> "Table":
        keep = [a for a in self.attributes if a not in set(attributes)]
        return self.project(keep)

    def mask(self, condition) -> np.ndarray:
        """Boolean mask for a pattern/predicate/mask condition."""
        return self._as_mask(condition)

    def _as_mask(self, condition) -> np.ndarray:
        if isinstance(condition, (Pattern, Predicate)):
            return condition.evaluate(self)
        mask = np.asarray(condition, dtype=bool)
        if mask.shape != (self.n_rows,):
            raise ValueError("mask has wrong shape")
        return mask

    # ------------------------------------------------------------------ aggregation

    def groupby_avg(self, group_attrs: Sequence[str], avg_attr: str,
                    where: Pattern | None = None) -> list[tuple]:
        """Evaluate ``SELECT group_attrs, AVG(avg_attr) ... GROUP BY group_attrs``.

        Returns a list of ``(group_key, average, count)`` tuples sorted by the
        group key, where ``group_key`` is a tuple of the grouping values.
        Rows with a missing outcome are ignored for the average but still count
        toward group membership.
        """
        base = self if where is None or where.is_empty() else self.select(where)
        outcome = base.column(avg_attr).values.astype(np.float64) \
            if base.column(avg_attr).numeric else base.column(avg_attr).as_float()
        index = base.group_index(group_attrs)
        averages, _ = index.averages(outcome)
        return [(index.keys[g], float(averages[g]), int(index.sizes[g]))
                for g in index.sorted_by_repr()]

    def group_index(self, group_attrs: Sequence[str]) -> GroupByIndex:
        """Factorized group index over the given attributes (composite group ids)."""
        return GroupByIndex(self, list(group_attrs))

    def group_indices(self, group_attrs: Sequence[str]) -> dict[tuple, np.ndarray]:
        """Map each group key to the array of row indices belonging to it."""
        return self.group_index(group_attrs).indices_by_key()

    def avg(self, attribute: str) -> float:
        values = self.column(attribute).values
        if not self.column(attribute).numeric:
            raise TypeError(f"attribute {attribute!r} is not numeric")
        valid = values[~np.isnan(values)]
        return float(valid.mean()) if valid.size else float("nan")

    def value_counts(self, attribute: str) -> dict:
        return self.column(attribute).value_counts()

    # ------------------------------------------------------------------ sampling

    def sample(self, n: int, seed: int | None = None, replace: bool = False) -> "Table":
        """Random sample of ``n`` rows (without replacement unless asked)."""
        if n >= self.n_rows and not replace:
            return self
        rng = np.random.default_rng(seed)
        indices = rng.choice(self.n_rows, size=n, replace=replace)
        return self.take(np.sort(indices))

    def shuffle(self, seed: int | None = None) -> "Table":
        rng = np.random.default_rng(seed)
        return self.take(rng.permutation(self.n_rows))

    # ------------------------------------------------------------------ schema statistics

    def max_domain_size(self) -> int:
        """Maximum number of distinct values across attributes (Table 3 statistic)."""
        return max(len(self.domain(a)) for a in self.attributes)

    def describe(self) -> dict:
        """Summary statistics used for Table 3."""
        return {
            "name": self.name,
            "tuples": self.n_rows,
            "attributes": self.n_cols,
            "max_values_per_attribute": self.max_domain_size(),
        }

    def concat(self, other: "Table") -> "Table":
        """Vertically concatenate two tables with identical schemas.

        Categorical columns merge their vocabularies (:meth:`Column.concat`)
        instead of re-factorizing the combined raw values — no hashing or
        sorting of the existing rows — and whenever one side's vocabulary
        subsumes the other's, that side's codes are preserved verbatim.
        Every column is still copied into a new array, so appending a small
        batch to a large table costs O(total rows), not O(batch).  The result
        is indistinguishable from building the table from the combined rows
        from scratch (same vocabularies, same codes).
        """
        if self.attributes != other.attributes:
            raise ValueError("schemas differ")
        cols = [self.column(attr).concat(other.column(attr))
                for attr in self.attributes]
        return Table(cols, name=self.name)
