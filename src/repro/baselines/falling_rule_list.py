"""Falling Rule Lists (Chen & Rudin, AISTATS 2018) — FRL baseline.

A falling rule list is an *ordered* list of if-then rules whose positive-class
probabilities are monotonically non-increasing.  We implement the standard
greedy construction: repeatedly pick the unused antecedent with the highest
positive rate among the not-yet-covered tuples (subject to a minimum support),
which automatically yields the falling property up to estimation noise, then
enforce monotonicity by truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.common import Rule, binarize_outcome
from repro.dataframe import Table
from repro.mining.apriori import apriori
from repro.mining.lattice import PatternLattice


@dataclass
class FallingRuleList:
    """Greedy falling rule list for a binary (or binarised) outcome."""

    max_rules: int = 8
    min_support: float = 0.05
    max_length: int = 2
    rules: list[Rule] = field(default_factory=list)
    default_probability: float = 0.0

    def fit(self, table: Table, outcome: str, attributes=None) -> "FallingRuleList":
        if table.is_numeric(outcome) and set(table.domain(outcome)) - {0.0, 1.0}:
            table, outcome = binarize_outcome(table, outcome)
        attributes = [a for a in (attributes or table.attributes) if a != outcome]
        labels = table.column(outcome).values.astype(np.float64)
        labels = np.where(np.isnan(labels), 0.0, labels)

        frequent = apriori(table, attributes, min_support=self.min_support,
                           max_length=self.max_length, max_values_per_attribute=15)
        patterns = [f.pattern for f in frequent]
        if not patterns:
            patterns = PatternLattice(table, attributes,
                                      max_values_per_attribute=15).level_one()
        masks = {p: p.evaluate(table) for p in patterns}

        min_count = max(5, int(self.min_support * table.n_rows))
        remaining = np.ones(table.n_rows, dtype=bool)
        rules: list[Rule] = []
        previous_probability = 1.0
        while len(rules) < self.max_rules:
            best = None
            best_probability = -math.inf
            for pattern, mask in masks.items():
                if any(pattern == r.pattern for r in rules):
                    continue
                active = mask & remaining
                support = int(active.sum())
                if support < min_count:
                    continue
                probability = float(labels[active].mean())
                if probability > best_probability:
                    best_probability = probability
                    best = (pattern, active, support, probability)
            if best is None:
                break
            pattern, active, support, probability = best
            # Falling property: probabilities must not increase down the list.
            probability = min(probability, previous_probability)
            rules.append(Rule(pattern, prediction=round(probability),
                              support=support, confidence=probability))
            previous_probability = probability
            remaining &= ~active
            # Once the rule probability drops to the overall base rate the list
            # stops being informative.
            if probability <= float(labels.mean()):
                break
        self.rules = rules
        self.default_probability = float(labels[remaining].mean()) if remaining.any() else 0.0
        return self

    def predict_proba(self, table: Table) -> np.ndarray:
        """Positive-class probability from the first matching rule (or the default)."""
        probabilities = np.full(table.n_rows, self.default_probability)
        assigned = np.zeros(table.n_rows, dtype=bool)
        for rule in self.rules:
            mask = rule.pattern.evaluate(table) & ~assigned
            probabilities[mask] = rule.confidence
            assigned |= mask
        return probabilities

    def is_falling(self) -> bool:
        """Whether the rule-list probabilities are monotonically non-increasing."""
        confidences = [r.confidence for r in self.rules]
        return all(confidences[i] >= confidences[i + 1]
                   for i in range(len(confidences) - 1))
