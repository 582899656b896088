"""Simple predicates and conjunctive patterns over tables (Definition 4.1)."""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np


class Op(str, enum.Enum):
    """Comparison operators allowed in simple predicates."""

    EQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="

    @classmethod
    def parse(cls, text: str) -> "Op":
        text = text.strip()
        aliases = {"=": cls.EQ, "==": cls.EQ, "!=": cls.NE, "<>": cls.NE,
                   "<": cls.LT, ">": cls.GT, "<=": cls.LE, ">=": cls.GE}
        if text not in aliases:
            raise ValueError(f"unknown operator {text!r}")
        return aliases[text]


class Predicate:
    """A simple predicate ``attribute op value``."""

    __slots__ = ("attribute", "op", "value")

    def __init__(self, attribute: str, op: Op | str, value):
        self.attribute = attribute
        self.op = op if isinstance(op, Op) else Op.parse(op)
        self.value = value

    # ------------------------------------------------------------------ dunder

    def __repr__(self) -> str:
        return f"{self.attribute} {self.op.value} {self.value!r}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return (self.attribute, self.op, self.value) == (
            other.attribute, other.op, other.value)

    def __hash__(self) -> int:
        return hash((self.attribute, self.op, self.value))

    def __lt__(self, other: "Predicate") -> bool:
        return (self.attribute, self.op.value, repr(self.value)) < (
            other.attribute, other.op.value, repr(other.value))

    # ------------------------------------------------------------------ eval

    def evaluate(self, table) -> np.ndarray:
        """Return a boolean mask of rows of ``table`` satisfying this predicate.

        Missing values never satisfy a predicate.  Both column kinds evaluate
        as pure numpy kernels: numeric columns compare the float storage
        directly; categorical columns compare dictionary codes — equality is a
        single ``codes == code`` comparison, and ordered operators evaluate
        once per *vocabulary entry* (not per row) and fancy-index the result.
        """
        column = table.column(self.attribute)
        if column.numeric:
            return self._evaluate_values(column.values)
        return self._evaluate_codes(column.codes, column)

    def evaluate_at(self, table, indices: np.ndarray) -> np.ndarray:
        """Evaluate over a candidate subset: ``evaluate(table)[indices]``.

        :meth:`~repro.dataframe.MaskCache.extended` calls this to complete
        an inherited mask over appended rows.  The kernels are the same as
        :meth:`evaluate`, applied to the fancy-indexed storage — the result
        is exactly the full mask restricted to ``indices``.
        """
        column = table.column(self.attribute)
        if column.numeric:
            return self._evaluate_values(column.values[indices])
        return self._evaluate_codes(column.codes[indices], column)

    def _evaluate_values(self, values: np.ndarray) -> np.ndarray:
        target = float(self.value)
        valid = ~np.isnan(values)
        with np.errstate(invalid="ignore"):
            comparison = _numeric_compare(values, self.op, target)
        return comparison & valid

    def _evaluate_codes(self, codes: np.ndarray, column) -> np.ndarray:
        if self.op is Op.EQ:
            code = column.vocab_code(self.value)
            if code is None:  # value absent from the vocabulary: nothing matches
                return np.zeros(len(codes), dtype=bool)
            return codes == code
        if self.op is Op.NE:
            code = column.vocab_code(self.value)
            valid = codes >= 0
            if code is None:  # every non-missing value differs
                return valid
            return (codes != code) & valid
        # Ordered comparison: decide once per *present* vocabulary value, then
        # broadcast to rows through the code array.  Only present values are
        # compared so a sliced column whose inherited parent vocabulary holds
        # un-orderable absent values behaves like the per-row evaluation did.
        # The sentinel slot stays False so missing values never match.
        vocab = column.vocab
        satisfied = np.zeros(len(vocab) + 1, dtype=bool)
        for code in np.unique(codes):
            if code >= 0:
                satisfied[code] = _ordered_compare(vocab[code], self.op, self.value)
        return satisfied[codes]

    def evaluate_value(self, value) -> bool:
        """Evaluate the predicate against a single scalar value.

        Booleans follow the numeric path, matching column storage: a column of
        ``bool`` values is numeric (``True``/``False`` stored as 1.0/0.0), so
        scalar evaluation compares them as floats too and
        ``evaluate_value(row[a])`` always agrees with ``evaluate(table)``.
        """
        if value is None:
            return False
        if isinstance(value, float) and np.isnan(value):
            return False
        if isinstance(value, (bool, int, float, np.integer, np.floating)):
            try:
                target = float(self.value)
            except (TypeError, ValueError):
                # Non-numeric target: a numeric-kind scalar can only live in a
                # mixed-type categorical column, where the column kernel
                # compares by generic equality — do the same here.
                pass
            else:
                return bool(_numeric_compare(np.asarray([float(value)]),
                                             self.op, target)[0])
        if self.op is Op.EQ:
            return value == self.value
        if self.op is Op.NE:
            return value != self.value
        return _ordered_compare(value, self.op, self.value)


class Pattern:
    """A conjunction of simple predicates (Definition 4.1).

    The empty pattern is allowed and matches every tuple.
    """

    __slots__ = ("predicates",)

    def __init__(self, predicates: Iterable[Predicate] = ()):
        preds = tuple(sorted(predicates))
        seen = set()
        unique = []
        for p in preds:
            if p not in seen:
                seen.add(p)
                unique.append(p)
        self.predicates = tuple(unique)

    # ------------------------------------------------------------------ construction

    @classmethod
    def of(cls, *specs) -> "Pattern":
        """Build a pattern from ``(attribute, op, value)`` triples or Predicates."""
        preds = []
        for spec in specs:
            if isinstance(spec, Predicate):
                preds.append(spec)
            else:
                attribute, op, value = spec
                preds.append(Predicate(attribute, op, value))
        return cls(preds)

    @classmethod
    def equalities(cls, assignment: dict) -> "Pattern":
        """Build a conjunctive equality pattern from ``{attribute: value}``."""
        return cls(Predicate(a, Op.EQ, v) for a, v in sorted(assignment.items()))

    def extend(self, predicate: Predicate) -> "Pattern":
        return Pattern(self.predicates + (predicate,))

    # ------------------------------------------------------------------ dunder

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self):
        return iter(self.predicates)

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.predicates == other.predicates

    def __hash__(self) -> int:
        return hash(self.predicates)

    def __repr__(self) -> str:
        if not self.predicates:
            return "Pattern(TRUE)"
        return " AND ".join(repr(p) for p in self.predicates)

    # ------------------------------------------------------------------ properties

    @property
    def attributes(self) -> tuple:
        """Attributes mentioned by the pattern, in sorted order."""
        return tuple(sorted({p.attribute for p in self.predicates}))

    def is_empty(self) -> bool:
        return not self.predicates

    # ------------------------------------------------------------------ eval

    def evaluate(self, table) -> np.ndarray:
        """Boolean mask of rows satisfying every predicate of the conjunction."""
        mask = np.ones(table.n_rows, dtype=bool)
        for predicate in self.predicates:
            mask &= predicate.evaluate(table)
        return mask

    def evaluate_row(self, row: dict) -> bool:
        """Evaluate against a single row given as ``{attribute: value}``."""
        return all(p.evaluate_value(row.get(p.attribute)) for p in self.predicates)

    def support(self, table) -> int:
        """Number of tuples of ``table`` satisfying the pattern."""
        return int(self.evaluate(table).sum())

    def conflicts_with(self, other: "Pattern") -> bool:
        """True if two equality patterns assign different values to an attribute."""
        mine = {p.attribute: p.value for p in self.predicates if p.op is Op.EQ}
        for p in other.predicates:
            if p.op is Op.EQ and p.attribute in mine and mine[p.attribute] != p.value:
                return True
        return False


def _numeric_compare(values: np.ndarray, op: Op, target: float) -> np.ndarray:
    if op is Op.EQ:
        return values == target
    if op is Op.NE:
        return values != target
    if op is Op.LT:
        return values < target
    if op is Op.GT:
        return values > target
    if op is Op.LE:
        return values <= target
    return values >= target


def _ordered_compare(value, op: Op, target) -> bool:
    if op is Op.LT:
        return value < target
    if op is Op.GT:
        return value > target
    if op is Op.LE:
        return value <= target
    if op is Op.GE:
        return value >= target
    raise ValueError(f"unsupported ordered comparison {op}")
