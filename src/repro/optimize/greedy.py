"""Greedy final-step selection used by the Greedy-Last-Step variant (Section 6).

The strategy iteratively selects the explanation pattern with the best
combination of explainability and marginal coverage gain, without any guarantee
of satisfying the coverage constraint.

The marginal-coverage computation is vectorized: pattern coverage is an
``(n_patterns, m)`` boolean incidence matrix over the view's group ids (the
same dense ids the dataframe layer's :class:`~repro.dataframe.GroupByIndex`
factorizes), and every round scores all candidates with one matrix-vector
product instead of a per-group Python set difference; the scores — and
therefore the selection — are identical to the historical set-based loop.
"""

from __future__ import annotations

import numpy as np

from repro.optimize.ilp import CoverageILP, Selection


def greedy_selection(problem: CoverageILP, coverage_weight: float = 1.0) -> Selection:
    """Greedy weighted max-cover selection of at most ``k`` patterns.

    Each step picks the unused pattern maximising
    ``weight + coverage_weight * marginal_coverage`` (after normalising both
    terms to comparable scales), skipping patterns whose covered-group set was
    already selected (incomparability constraint).  Ties go to the lowest
    pattern index, matching the original sequential scan.
    """
    n = problem.n_patterns
    weights = np.asarray(problem.weights, dtype=np.float64)
    max_weight = float(np.abs(weights).max()) if n else 1.0
    max_weight = max_weight or 1.0
    incidence = problem.coverage_matrix()
    denominator = max(problem.m, 1)  # the historical ``marginal / m``

    chosen: list[int] = []
    eligible = np.ones(n, dtype=bool)
    uncovered = np.ones(problem.m, dtype=bool)
    taken_coverages: set[frozenset] = set()

    while len(chosen) < problem.k and eligible.any():
        # In float64: ``bool @ bool`` would be a logical, not a count.
        gains = incidence @ uncovered.astype(np.float64)
        scores = weights / max_weight + coverage_weight * gains / denominator
        scores[~eligible] = -np.inf
        best_j = int(np.argmax(scores))  # first maximum, like the old scan
        if not np.isfinite(scores[best_j]):
            break
        chosen.append(best_j)
        eligible[best_j] = False
        uncovered &= ~incidence[best_j]
        taken_coverages.add(problem.coverage[best_j])
        # Incomparability: patterns repeating an already-taken coverage set
        # can never be selected any more.
        for j in np.nonzero(eligible)[0]:
            if problem.coverage[j] in taken_coverages:
                eligible[j] = False
    return problem.selection(chosen)
