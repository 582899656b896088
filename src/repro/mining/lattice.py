"""The treatment-pattern lattice traversed by Algorithm 2.

Nodes are conjunctive patterns over the treatment attributes; there is an edge
from ``P1`` to ``P2`` when ``P2`` extends ``P1`` by exactly one predicate.  The
lattice is generated level by level and only the nodes whose parents all
survived the previous level are materialised.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.dataframe import Op, Pattern, Predicate, Table


class AtomSpace:
    """The atoms of one lattice, numbered by the rank of their ``repr``.

    A lattice node is an :class:`AtomSet`, and only nodes that leave a miner
    become a :class:`~repro.dataframe.Pattern`.  ``first_level`` is level one
    in enumeration order, repeats included: the arg-max breaks ties by it.
    Id-tuple order is the patterns' ``repr`` order unless the canonical
    predicate order disagrees with ``repr`` order or an atom's ``repr`` is
    another's followed by a space or control character; :meth:`join` then
    sorts by ``repr`` itself.
    """

    __slots__ = ("predicates", "first_level", "_attributes", "_repr_ordered")

    def __init__(self, predicates: Iterable[Predicate]):
        predicates = list(predicates)
        ranked = sorted(dict.fromkeys(predicates), key=repr)
        ids = {predicate: i for i, predicate in enumerate(ranked)}
        self.predicates = tuple(ranked)
        self.first_level = [AtomSet(self, (ids[p],)) for p in predicates]
        self._attributes = tuple(p.attribute for p in ranked)
        reprs = [repr(p) for p in ranked]
        self._repr_ordered = sorted(ranked) == ranked and all(
            a != b and not (b.startswith(a) and b[len(a)] <= " ")
            for a, b in zip(reprs, reprs[1:]))

    def join(self, level: Sequence[AtomSet]) -> list[AtomSet]:
        """Nodes one atom longer whose parents are all in ``level``.

        The F(k-1) x F(k-1) join of Agrawal & Srikant (VLDB 1994): sorted
        k-tuples sharing their first k-1 ids, with last atoms on different
        attributes, make a candidate, kept when every other k-subset is in
        ``level`` too.  Nodes not as long as ``level[0]`` or naming an
        attribute twice are no candidate's parent and are dropped first.
        """
        length = len(level[0].ids) if level else 0
        if not length:
            return []
        attribute = self._attributes
        survivors = sorted({node.ids for node in level if len(node.ids) == length
                            and len({attribute[i] for i in node.ids}) == length})
        known = set(survivors)
        candidates = []
        for prefix, group in groupby(survivors, key=lambda ids: ids[:-1]):
            tails = [ids[-1] for ids in group]
            for i, first in enumerate(tails):
                for second in tails[i + 1:]:
                    ids = prefix + (first, second)
                    if attribute[first] != attribute[second] and all(
                            ids[:j] + ids[j + 1:] in known
                            for j in range(length - 1)):
                        candidates.append(AtomSet(self, ids))
        if not self._repr_ordered:
            candidates.sort(key=lambda node: repr(node.pattern()))
        return candidates


class AtomSet(NamedTuple):
    """A lattice node: the sorted ids of its atoms in one space."""

    space: AtomSpace
    ids: tuple[int, ...]

    @property
    def attributes(self) -> tuple[str, ...]:
        """Sorted attributes of the node, as ``Pattern.attributes``."""
        return tuple(sorted({self.space._attributes[i] for i in self.ids}))

    def pattern(self) -> Pattern:
        return Pattern(self.space.predicates[i] for i in self.ids)

    def masks(self, memo: dict,
              mask: Callable[[Predicate], np.ndarray]) -> list[np.ndarray]:
        """``mask`` of each atom of the node, memoized in ``memo``.

        ``memo`` holds one list per space, indexed by atom id, so a caller
        that keeps it (a bound sub-population) computes each atom's mask once
        without hashing a predicate per lookup.
        """
        predicates = self.space.predicates
        masks = memo.get(self.space)
        if masks is None:
            masks = memo.setdefault(self.space, [None] * len(predicates))
        for i in self.ids:
            if masks[i] is None:
                masks[i] = mask(predicates[i])
        return [masks[i] for i in self.ids]


class PatternLattice:
    """Level-wise generator of candidate treatment patterns.

    Atomic predicates whose full-table support is below ``min_support``
    are pruned (the default 0 prunes nothing).  Enumeration knows every
    atom's support in closed form (value counts, a sorted pass), so no mask
    is evaluated here; the estimator computes the survivors' masks on first
    use.  The treatment miners pass the estimator's ``min_group_size``: a
    treatment that covers fewer tuples in the whole table can never satisfy
    the positivity check inside any sub-population, so pruning it cannot
    change any result.
    """

    def __init__(self, table: Table, attributes: Sequence[str],
                 max_values_per_attribute: int = 20, numeric_bins: int = 3,
                 min_support: int = 0, atom_cache: dict | None = None):
        self.table = table
        self.attributes = list(attributes)
        self.max_values_per_attribute = max_values_per_attribute
        self.numeric_bins = numeric_bins
        self.min_support = min_support
        self.atom_cache = atom_cache

    # ------------------------------------------------------------------ level 1

    def atomic_predicates(self) -> list[Predicate]:
        """All single predicates ``A_i op a_j`` over the treatment attributes.

        Categorical attributes produce equality predicates over their most
        frequent values.  Numeric attributes with many distinct values produce
        threshold predicates (``<=`` / ``>``) at quantile cut points, mirroring
        the binned treatments used in the paper's experiments.
        """
        atoms = self.atoms()
        return [atoms.predicates[i] for _, (i,) in atoms.first_level]

    def atoms(self) -> AtomSpace:
        """The :meth:`atomic_predicates`, numbered.

        With an ``atom_cache`` (a plain dict shared by the caller, typically
        via :class:`~repro.causal.CATEEstimator`), the space is memoized per
        generation parameters, so repeated lattices over the same table — one
        per (grouping pattern, direction) — enumerate the atoms once and share
        one space.  The enumeration is deterministic, so concurrent miners
        that race on a cold cache build equal spaces and keep the first.
        """
        if self.atom_cache is not None:
            cache_key = (tuple(self.attributes), self.max_values_per_attribute,
                         self.numeric_bins, self.min_support)
            cached = self.atom_cache.get(cache_key)
            if cached is not None:
                return cached
        candidates: list[tuple[Predicate, int]] = []
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
        if self.min_support > 0:
            atoms = AtomSpace(self._prune_by_support(candidates))
        else:
            atoms = AtomSpace(p for p, _ in candidates)
        if self.atom_cache is not None:
            atoms = self.atom_cache.setdefault(cache_key, atoms)
        return atoms

    def _prune_by_support(
            self, candidates: list[tuple[Predicate, int]]
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
        (the paper's "all parents have a positive CATE" condition).  The
        result is sorted by ``repr``.  The miners call :meth:`AtomSpace.join`
        on their nodes directly; this is the same join over patterns.
        """
        survivors = list(survivors)
        atoms = AtomSpace(p for pattern in survivors for p in pattern.predicates)
        index = {p: i for i, p in enumerate(atoms.predicates)}
        level = [AtomSet(atoms, tuple(sorted(index[p] for p in pattern)))
                 for pattern in survivors]
        return [node.pattern() for node in atoms.join(level)]

    @staticmethod
    def parents(pattern: Pattern) -> list[Pattern]:
        """Immediate parents of a pattern in the lattice."""
        preds = pattern.predicates
        return [Pattern(preds[:i] + preds[i + 1:]) for i in range(len(preds))]
