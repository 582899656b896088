"""Algorithm 1 — the CauSumX algorithm — and its Brute-Force / Greedy variants."""

from __future__ import annotations

import time
from itertools import combinations
from typing import Sequence

from repro.causal import CATEEstimator
from repro.core.config import CauSumXConfig
from repro.core.patterns import ExplanationPattern, ExplanationSummary
from repro.dataframe import Pattern, Table, grouping_attribute_partition
from repro.graph import CausalDAG
from repro.mining.grouping import (
    GroupingPattern,
    deduplicate_grouping_patterns,
    mine_grouping_patterns,
)
from repro.mining.treatments import (
    TreatmentCandidate,
    mine_top_treatment,
    treatment_atoms,
)
from repro.optimize import (
    CoverageILP,
    greedy_selection,
    randomized_rounding,
    solve_exact,
    solve_lp_relaxation,
)
from repro.sql import AggregateView, GroupByAvgQuery, parse_query


class CauSumX:
    """Summarized causal explanations for a group-by-average query.

    Parameters
    ----------
    table:
        The database instance ``D``.
    dag:
        Causal background knowledge as a causal DAG over the attributes.
    config:
        Algorithm configuration (defaults follow the paper: k=5, theta=0.75,
        Apriori threshold 0.1, LP-rounding last step).

    Example
    -------
    >>> summary = CauSumX(table, dag).explain(
    ...     "SELECT Country, AVG(Salary) FROM SO GROUP BY Country")
    >>> for pattern in summary:
    ...     print(pattern)
    """

    def __init__(self, table: Table, dag: CausalDAG | None = None,
                 config: CauSumXConfig | None = None):
        self.table = table
        self.dag = dag
        self.config = config or CauSumXConfig()

    # ------------------------------------------------------------------ public API

    def explain(self, query: GroupByAvgQuery | str,
                grouping_attributes: Sequence[str] | None = None,
                treatment_attributes: Sequence[str] | None = None,
                *, view: AggregateView | None = None,
                estimator: CATEEstimator | None = None,
                ) -> ExplanationSummary:
        """Run Algorithm 1 and return the explanation summary.

        ``grouping_attributes`` / ``treatment_attributes`` override the
        automatic FD-based partition of Section 4.1 when provided (the paper's
        case studies restrict the treatment attributes this way, e.g. to
        sensitive attributes only); the partition runs only when one is
        ``None``.  An explicit list loses the query's outcome.

        ``view`` / ``estimator`` are reuse hooks for long-lived callers (the
        ``repro.service`` engine): a pre-materialised :class:`AggregateView`
        of this table and query, and a :class:`CATEEstimator` over the view's
        (filtered) table.  Passing them skips re-materialisation and lets
        many queries share one mask cache / lattice-atom cache; results are
        identical to the self-built path.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if view is None:
            view = AggregateView(self.table, query)
        timings: dict[str, float] = {}

        # --- attribute partition (only for a list the caller left out) ---------
        if grouping_attributes is None or treatment_attributes is None:
            auto_grouping, auto_treatment = grouping_attribute_partition(
                view.table, list(query.group_by), query.average)
        outcome = query.average
        grouping_attrs = [a for a in grouping_attributes if a != outcome] \
            if grouping_attributes is not None else auto_grouping
        treatment_attrs = [a for a in treatment_attributes if a != outcome] \
            if treatment_attributes is not None else auto_treatment

        # --- step 1: grouping patterns (Section 5.1) -----------------------------
        start = time.perf_counter()
        groupings = self._mine_groupings(view, grouping_attrs)
        timings["grouping_patterns"] = time.perf_counter() - start

        # --- step 2: treatment patterns per grouping pattern (Section 5.2) -------
        start = time.perf_counter()
        if estimator is None:
            estimator = self._estimator(view)
        candidates = self._mine_candidates(estimator, groupings, treatment_attrs)
        timings["treatment_patterns"] = time.perf_counter() - start

        # --- step 3: LP / exact / greedy selection (Section 5.3) -----------------
        start = time.perf_counter()
        summary = self._select(view, candidates, timings)
        timings["selection"] = time.perf_counter() - start
        summary.timings = timings
        return summary

    # ------------------------------------------------------------------ step 1

    def _mine_groupings(self, view: AggregateView,
                        grouping_attrs: Sequence[str]) -> list[GroupingPattern]:
        cfg = self.config
        if cfg.grouping_mode == "apriori":
            return mine_grouping_patterns(
                view, grouping_attrs,
                min_support=cfg.apriori_threshold,
                max_length=cfg.max_grouping_length,
                include_singleton_groups=cfg.include_singleton_groups,
            )
        return self._exhaustive_groupings(view, grouping_attrs)

    def _exhaustive_groupings(self, view: AggregateView,
                              grouping_attrs: Sequence[str]) -> list[GroupingPattern]:
        """All conjunctive equality grouping patterns (Brute-Force variants)."""
        table = view.table
        max_length = self.config.max_grouping_length or len(grouping_attrs)
        candidates: list[GroupingPattern] = []
        attrs = list(grouping_attrs)
        for length in range(1, min(max_length, len(attrs)) + 1):
            for subset in combinations(attrs, length):
                candidates.extend(self._enumerate_assignments(view, table, subset))
        # Singleton per-group patterns so every group is coverable.
        for group in view.groups:
            assignment = dict(zip(view.query.group_by, group.key))
            pattern = Pattern.equalities(assignment)
            candidates.append(GroupingPattern(pattern, frozenset([group.key]),
                                              support=group.size))
        return deduplicate_grouping_patterns(candidates)

    @staticmethod
    def _enumerate_assignments(view: AggregateView, table: Table,
                               attributes: tuple) -> list[GroupingPattern]:
        domains = [table.domain(a) for a in attributes]

        def recurse(index: int, assignment: dict) -> list[GroupingPattern]:
            if index == len(attributes):
                pattern = Pattern.equalities(assignment)
                covered = view.covered_groups(pattern)
                if not covered:
                    return []
                return [GroupingPattern(pattern, covered, pattern.support(table))]
            results = []
            for value in domains[index]:
                assignment[attributes[index]] = value
                results.extend(recurse(index + 1, assignment))
            assignment.pop(attributes[index], None)
            return results

        return recurse(0, {})

    # ------------------------------------------------------------------ step 2

    def _estimator(self, view: AggregateView) -> CATEEstimator:
        return self.build_estimator(view.table, view.query.average, self.dag,
                                    self.config)

    @staticmethod
    def build_estimator(table: Table, outcome: str, dag: CausalDAG | None,
                        config: CauSumXConfig) -> CATEEstimator:
        """The estimator `explain` would build for this table/outcome/config.

        Shared with the serving engine so cached populations are constructed
        exactly like the one-shot path (results stay byte-identical).
        """
        return CATEEstimator(
            table, outcome, dag=dag,
            adjustment=config.adjustment,
            sample_size=config.sample_size,
            min_group_size=config.min_group_size,
            seed=config.seed,
        )

    def _mine_candidates(self, estimator: CATEEstimator,
                         groupings: Sequence[GroupingPattern],
                         treatment_attrs: Sequence[str]) -> list[ExplanationPattern]:
        """Mine the best treatments for every grouping pattern (step 2),
        in ``groupings`` order."""
        candidates = []
        for grouping in groupings:
            positive, negative = self._treatments_for(estimator, grouping,
                                                      treatment_attrs)
            candidate = ExplanationPattern(grouping, positive, negative)
            if candidate.has_treatment():
                candidates.append(candidate)
        return candidates

    def _treatments_for(self, estimator: CATEEstimator, grouping: GroupingPattern,
                        treatment_attrs: Sequence[str]
                        ) -> tuple[TreatmentCandidate | None, TreatmentCandidate | None]:
        cfg = self.config
        if cfg.treatment_mode == "exhaustive":
            return self._exhaustive_treatments(estimator, grouping, treatment_attrs)
        positive = negative = None
        if "+" in cfg.directions:
            positive = mine_top_treatment(estimator, grouping.pattern,
                                          treatment_attrs, "+", self.dag,
                                          cfg.treatment)
        if "-" in cfg.directions:
            negative = mine_top_treatment(estimator, grouping.pattern,
                                          treatment_attrs, "-", self.dag,
                                          cfg.treatment)
        return positive, negative

    def _exhaustive_treatments(self, estimator: CATEEstimator,
                               grouping: GroupingPattern,
                               treatment_attrs: Sequence[str]
                               ) -> tuple[TreatmentCandidate | None, TreatmentCandidate | None]:
        """Evaluate every lattice node up to the depth cap (Brute-Force variants)."""
        cfg = self.config
        atoms = treatment_atoms(estimator, treatment_attrs, cfg.treatment)
        level = atoms.first_level if atoms is not None else []
        best_positive: TreatmentCandidate | None = None
        best_negative: TreatmentCandidate | None = None
        depth = 0
        while level and depth < cfg.treatment.max_levels:
            valid = []
            estimates = estimator.estimate_many(level, grouping.pattern)
            for node, estimate in zip(level, estimates):
                if not estimate.is_valid():
                    continue
                valid.append(node)
                if estimate.p_value <= cfg.treatment.significance_level:
                    if estimate.value > 0 and (best_positive is None
                                               or estimate.value > best_positive.cate):
                        best_positive = TreatmentCandidate(node.pattern(), estimate)
                    if estimate.value < 0 and (best_negative is None
                                               or estimate.value < best_negative.cate):
                        best_negative = TreatmentCandidate(node.pattern(), estimate)
            level = atoms.join(valid)
            depth += 1
        positive = best_positive if "+" in cfg.directions else None
        negative = best_negative if "-" in cfg.directions else None
        return positive, negative

    # ------------------------------------------------------------------ step 3

    def _select(self, view: AggregateView, candidates: list[ExplanationPattern],
                timings: dict) -> ExplanationSummary:
        cfg = self.config
        problem = CoverageILP(
            weights=[c.explainability for c in candidates],
            coverage=[c.covered_groups for c in candidates],
            groups=view.group_keys(),
            k=cfg.k,
            theta=cfg.theta,
        )
        if cfg.solver == "greedy":
            selection = greedy_selection(problem)
        elif cfg.solver == "exact":
            selection = solve_exact(problem)
        else:
            lp = solve_lp_relaxation(problem)
            selection = randomized_rounding(problem, lp, seed=cfg.seed)

        if selection is None:
            chosen: list[ExplanationPattern] = []
            feasible = False
        else:
            chosen = [candidates[j] for j in selection.chosen]
            feasible = selection.feasible
        return ExplanationSummary(
            patterns=chosen,
            all_groups=tuple(view.group_keys()),
            k=cfg.k,
            theta=cfg.theta,
            timings=timings,
            n_candidates=len(candidates),
            feasible=feasible,
        )


# ---------------------------------------------------------------------- variants


def brute_force(table: Table, dag: CausalDAG | None = None,
                config: CauSumXConfig | None = None) -> CauSumX:
    """The Brute-Force baseline: exhaustive mining + exact ILP solution."""
    config = (config or CauSumXConfig()).with_overrides(
        grouping_mode="exhaustive", treatment_mode="exhaustive", solver="exact")
    return CauSumX(table, dag, config)


def brute_force_lp(table: Table, dag: CausalDAG | None = None,
                   config: CauSumXConfig | None = None) -> CauSumX:
    """Brute-Force-LP: exhaustive mining, LP-rounding last step."""
    config = (config or CauSumXConfig()).with_overrides(
        grouping_mode="exhaustive", treatment_mode="exhaustive", solver="lp_rounding")
    return CauSumX(table, dag, config)


def greedy_last_step(table: Table, dag: CausalDAG | None = None,
                     config: CauSumXConfig | None = None) -> CauSumX:
    """Greedy-Last-Step: CauSumX mining, greedy selection instead of the LP."""
    config = (config or CauSumXConfig()).with_overrides(solver="greedy")
    return CauSumX(table, dag, config)
