"""Explanation tables (El Gebaly et al., VLDB 2014) — information-gain pattern selection.

An explanation table is a small list of patterns that best summarises the
distribution of a binary outcome.  Patterns are chosen greedily to maximise the
information gain of the outcome given the pattern partition, which is the core
idea of the original algorithm (we do not reproduce its sampling machinery —
dataset sizes here do not need it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.common import Rule, binarize_outcome
from repro.dataframe import Pattern, Table
from repro.mining.lattice import PatternLattice
from repro.sql import AggregateView


def _entropy(positive: float, total: float) -> float:
    if total <= 0:
        return 0.0
    p = positive / total
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))


@dataclass
class ExplanationTable:
    """Greedy information-gain explanation table for a binary (or binarised) outcome.

    Parameters
    ----------
    n_patterns:
        Number of patterns in the table (analogous to CauSumX's ``k``).
    max_length:
        Maximum number of predicates per pattern.
    max_values / numeric_bins:
        Candidate-generation limits (mirroring the treatment lattice).
    """

    n_patterns: int = 5
    max_length: int = 2
    max_values: int = 15
    numeric_bins: int = 3
    rules: list[Rule] = field(default_factory=list)

    def fit(self, table: Table, outcome: str, attributes=None) -> "ExplanationTable":
        """Build the explanation table for ``outcome`` over ``attributes``."""
        if table.is_numeric(outcome) and set(table.domain(outcome)) - {0.0, 1.0}:
            table, outcome = binarize_outcome(table, outcome)
        attributes = [a for a in (attributes or table.attributes) if a != outcome]
        outcome_values = table.column(outcome).values.astype(np.float64)
        valid = ~np.isnan(outcome_values)
        outcome_values = np.where(valid, outcome_values, 0.0)

        candidates = self._candidates(table, attributes)
        overall_entropy = _entropy(float(outcome_values[valid].sum()),
                                   float(valid.sum()))
        chosen: list[Rule] = []
        used: set[Pattern] = set()
        explained = np.zeros(table.n_rows, dtype=bool)
        for _ in range(self.n_patterns):
            best = None
            best_gain = -math.inf
            for pattern in candidates:
                if pattern in used:
                    continue
                mask = pattern.evaluate(table) & valid
                inside = int(mask.sum())
                if inside == 0:
                    continue
                outside = int(valid.sum()) - inside
                gain = overall_entropy
                gain -= (inside / valid.sum()) * _entropy(
                    float(outcome_values[mask].sum()), inside)
                gain -= (outside / valid.sum()) * _entropy(
                    float(outcome_values[valid & ~mask].sum()), outside)
                # Prefer patterns explaining not-yet-covered tuples (diversity),
                # as the original algorithm does through residual updating.
                novelty = 1.0 + float((mask & ~explained).sum()) / table.n_rows
                gain *= novelty
                if gain > best_gain:
                    best_gain = gain
                    best = (pattern, mask, inside)
            if best is None:
                break
            pattern, mask, inside = best
            used.add(pattern)
            explained |= mask
            confidence = float(outcome_values[mask].mean()) if inside else 0.0
            chosen.append(Rule(pattern, prediction=round(confidence),
                               support=inside, confidence=confidence))
        self.rules = chosen
        return self

    def _candidates(self, table: Table, attributes) -> list[Pattern]:
        lattice = PatternLattice(table, list(attributes),
                                 max_values_per_attribute=self.max_values,
                                 numeric_bins=self.numeric_bins)
        level = lattice.level_one()
        candidates = list(level)
        depth = 1
        while depth < self.max_length:
            level = lattice.next_level(level)
            candidates.extend(level)
            depth += 1
        return candidates

    def predict(self, table: Table) -> np.ndarray:
        """Predict the binary outcome using the first matching rule (default 0)."""
        predictions = np.zeros(table.n_rows)
        assigned = np.zeros(table.n_rows, dtype=bool)
        for rule in self.rules:
            mask = rule.pattern.evaluate(table) & ~assigned
            predictions[mask] = rule.prediction
            assigned |= mask
        return predictions


@dataclass
class ExplanationTableG:
    """Explanation-Table-G: one explanation table per CauSumX grouping pattern."""

    n_patterns: int = 3
    max_length: int = 2
    tables: dict = field(default_factory=dict)

    def fit(self, view: AggregateView, grouping_patterns, outcome: str,
            attributes=None) -> "ExplanationTableG":
        """Fit one explanation table per grouping pattern's sub-population."""
        self.tables = {}
        for grouping in grouping_patterns:
            sub = view.table.select(grouping.pattern)
            if sub.n_rows < 5:
                continue
            fitted = ExplanationTable(n_patterns=self.n_patterns,
                                      max_length=self.max_length).fit(
                sub, outcome, attributes)
            self.tables[grouping.pattern] = fitted
        return self
