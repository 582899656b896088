"""Randomized rounding of the LP relaxation (Appendix A, Proposition A.1).

The procedure interprets ``g_j / k`` as a probability distribution over the
candidate patterns and draws ``k`` patterns independently, which yields a
``(1 - 1/e)`` approximation to the coverage constraint and a ``1/k`` fraction of
the optimal objective in expectation.  As in the paper's implementation, we
repeat the draw a few times and keep the best feasible draw found.
"""

from __future__ import annotations

import numpy as np

from repro.optimize.ilp import CoverageILP, Selection
from repro.optimize.lp import LPSolution, solve_lp_relaxation


def randomized_rounding(problem: CoverageILP, lp_solution: LPSolution | None = None,
                        n_draws: int = 32, seed: int = 0) -> Selection | None:
    """Round the LP relaxation to an integral selection of at most ``k`` patterns.

    Returns ``None`` when the LP itself is infeasible (then the ILP is too).
    Among the repeated draws, a feasible selection with the highest objective is
    preferred; if no draw satisfies the coverage constraint, the draw covering
    the most groups is returned (marked infeasible in the result).
    """
    if lp_solution is None:
        lp_solution = solve_lp_relaxation(problem)
    if not lp_solution.feasible:
        return None
    if problem.n_patterns == 0 or problem.k == 0:
        empty = problem.selection(())
        return empty if empty.feasible else None

    rng = np.random.default_rng(seed)
    raw = np.clip(lp_solution.pattern_values, 0.0, None)
    probabilities = raw / problem.k
    leftover = max(0.0, 1.0 - probabilities.sum())
    # Distribute any remaining probability mass uniformly so that we always
    # draw k patterns even when the LP uses fewer than k fractional units.
    probabilities = probabilities + leftover / problem.n_patterns
    probabilities = probabilities / probabilities.sum()

    # One call takes the uniforms of ``n_draws`` successive k-draws in the
    # same order.  Both comparisons below are strict, so patterns drawn again
    # can never displace their first evaluation: skip them.  (Keyed in
    # first-drawn order, not as a set, because that order decides ties
    # between equal weights in ``_dedupe_conflicting``.)
    draws = rng.choice(problem.n_patterns, size=(n_draws, problem.k),
                       replace=True, p=probabilities)
    best_feasible: Selection | None = None
    best_any: Selection | None = None
    evaluated: set[tuple] = set()
    for drawn in draws.tolist():
        distinct = tuple(dict.fromkeys(drawn))
        if distinct in evaluated:
            continue
        evaluated.add(distinct)
        selection = problem.selection(_dedupe_conflicting(problem, distinct))
        if best_any is None or _rank(selection) > _rank(best_any):
            best_any = selection
        if selection.feasible and (best_feasible is None
                                   or selection.objective > best_feasible.objective):
            best_feasible = selection
    return best_feasible if best_feasible is not None else best_any


def _dedupe_conflicting(problem: CoverageILP, drawn) -> list[int]:
    """Drop duplicate patterns and patterns whose covered-group set was already taken.

    This enforces the incomparability constraint (Definition 4.5 item 3) on the
    sampled selection while keeping the highest-weight representative.
    """
    order = sorted(set(drawn), key=lambda j: -problem.weights[j])
    seen_coverages: set[frozenset] = set()
    kept = []
    for j in order:
        coverage = problem.coverage[j]
        if coverage in seen_coverages:
            continue
        seen_coverages.add(coverage)
        kept.append(j)
    return kept


def _rank(selection: Selection) -> tuple:
    return (len(selection.covered_groups), selection.objective)
