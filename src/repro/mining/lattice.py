"""The treatment-pattern lattice traversed by Algorithm 2.

Nodes are conjunctive patterns over the treatment attributes; there is an edge
from ``P1`` to ``P2`` when ``P2`` extends ``P1`` by exactly one predicate.  The
lattice is generated level by level and only the nodes whose parents all
survived the previous level are materialised.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from repro.dataframe import Op, Pattern, Predicate, Table


class PatternLattice:
    """Level-wise generator of candidate treatment patterns.

    When a shared :class:`~repro.dataframe.MaskCache` is supplied, atomic
    predicates are evaluated through it (warming the cache for the estimator
    that shares it) and predicates whose full-table support is below
    ``min_support`` are pruned: a treatment that covers fewer than
    ``min_group_size`` tuples in the whole table can never satisfy the
    positivity check inside any sub-population, so pruning it cannot change
    any result.
    """

    def __init__(self, table: Table, attributes: Sequence[str],
                 max_values_per_attribute: int = 20, numeric_bins: int = 3,
                 mask_cache=None, min_support: int = 1, atom_cache: dict | None = None):
        self.table = table
        self.attributes = list(attributes)
        self.max_values_per_attribute = max_values_per_attribute
        self.numeric_bins = numeric_bins
        self.mask_cache = mask_cache
        self.min_support = min_support
        self.atom_cache = atom_cache

    # ------------------------------------------------------------------ level 1

    def atomic_predicates(self) -> list[Predicate]:
        """All single predicates ``A_i op a_j`` over the treatment attributes.

        Categorical attributes produce equality predicates over their most
        frequent values.  Numeric attributes with many distinct values produce
        threshold predicates (``<=`` / ``>``) at quantile cut points, mirroring
        the binned treatments used in the paper's experiments.

        With an ``atom_cache`` (a plain dict shared by the caller, typically
        via :class:`~repro.causal.CATEEstimator`), the enumerated atoms are
        memoized per generation parameters, so repeated lattices over the same
        table — one per (grouping pattern, direction) — enumerate them once.
        The enumeration is deterministic, so concurrent miners that race on a
        cold cache store identical values.
        """
        if self.atom_cache is not None:
            cache_key = (tuple(self.attributes), self.max_values_per_attribute,
                         self.numeric_bins,
                         self.min_support if self.mask_cache is not None else None)
            cached = self.atom_cache.get(cache_key)
            if cached is not None:
                return list(cached)
        candidates: list[tuple[Predicate, int | None]] = []
        for attribute in self.attributes:
            column = self.table.column(attribute)
            # Candidate values come straight from the dictionary-encoded
            # column: value_counts/unique are bincount/np.unique over the
            # cached codes, so no row rescan happens per attribute.
            counts = self.table.value_counts(attribute)
            if not counts:
                continue
            if column.numeric and len(counts) > self.max_values_per_attribute:
                candidates.extend(self._numeric_predicates(attribute))
            else:
                values = sorted(counts, key=lambda v: (-counts[v], repr(v)))
                values = values[:self.max_values_per_attribute]
                # An equality atom's support is exactly the value's count
                # (missing values satisfy neither), known without any mask.
                candidates.extend((Predicate(attribute, Op.EQ, v), counts[v])
                                  for v in values)
        if self.mask_cache is not None and self.min_support > 0:
            predicates = self._prune_by_support(candidates)
        else:
            predicates = [p for p, _ in candidates]
        if self.atom_cache is not None:
            self.atom_cache[cache_key] = tuple(predicates)
        return predicates

    def _prune_by_support(
            self, candidates: list[tuple[Predicate, int | None]]
    ) -> list[Predicate]:
        """Drop atoms whose full-table support is below ``min_support``.

        The supports computed *during enumeration* (value counts for
        equality atoms, one sorted pass for threshold atoms) decide
        directly: low-support atoms are deferred — pruned without ever
        evaluating their boolean masks — and surviving atoms' masks are left
        to be computed (and cached) on first real use.  The surviving atom
        list is exactly the atoms whose mask support reaches
        ``min_support``.
        """
        from repro.plan.planner import GLOBAL_PLANNER_STATS

        survivors = []
        deferred = 0
        for predicate, support in candidates:
            if support is None:  # no closed form: fall back to the mask
                support = self.mask_cache.support(predicate)
            if support >= self.min_support:
                survivors.append(predicate)
            else:
                deferred += 1
        GLOBAL_PLANNER_STATS.record_deferred_atoms(deferred)
        return survivors

    def _numeric_predicates(self, attribute: str
                            ) -> list[tuple[Predicate, int]]:
        """Threshold atoms at quantile cuts, with their exact supports.

        One sorted pass per attribute prices every cut: ``searchsorted``
        gives the row count at or below each threshold, so the support of
        both atoms of a cut is known without evaluating either mask.
        """
        values = self.table.column(attribute).values.astype(np.float64)
        values = values[~np.isnan(values)]
        if values.size == 0:
            return []
        quantiles = np.linspace(0, 1, self.numeric_bins + 1)[1:-1]
        cuts = sorted({round(float(np.quantile(values, q)), 6) for q in quantiles})
        ordered = np.sort(values)
        predicates = []
        for cut in cuts:
            at_or_below = int(np.searchsorted(ordered, cut, side="right"))
            predicates.append((Predicate(attribute, Op.LE, cut), at_or_below))
            predicates.append((Predicate(attribute, Op.GT, cut),
                               int(ordered.size) - at_or_below))
        return predicates

    def level_one(self) -> list[Pattern]:
        return [Pattern([p]) for p in self.atomic_predicates()]

    # ------------------------------------------------------------------ deeper levels

    @staticmethod
    def next_level(survivors: Iterable[Pattern]) -> list[Pattern]:
        """Generate all patterns one predicate longer whose parents all survived.

        ``survivors`` is the set of patterns of the current level that passed
        the CATE sign filter; a candidate of the next level is materialised only
        if *every* sub-pattern obtained by removing one predicate is a survivor
        (the paper's "all parents have a positive CATE" condition).
        """
        survivors = list(survivors)
        if not survivors:
            return []
        survivor_set = set(survivors)
        length = len(survivors[0].predicates)
        candidates: set[Pattern] = set()
        for p1, p2 in combinations(survivors, 2):
            union = set(p1.predicates) | set(p2.predicates)
            if len(union) != length + 1:
                continue
            attributes = [p.attribute for p in union]
            if len(set(attributes)) != len(attributes):
                continue  # conflicting predicates on the same attribute
            candidate = Pattern(union)
            if candidate in candidates:
                continue
            if all(Pattern(candidate.predicates[:i] + candidate.predicates[i + 1:])
                   in survivor_set for i in range(len(candidate.predicates))):
                candidates.add(candidate)
        return sorted(candidates, key=repr)

    @staticmethod
    def parents(pattern: Pattern) -> list[Pattern]:
        """Immediate parents of a pattern in the lattice."""
        preds = pattern.predicates
        return [Pattern(preds[:i] + preds[i + 1:]) for i in range(len(preds))]
