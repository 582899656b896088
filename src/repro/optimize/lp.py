"""LP relaxation of the coverage ILP, solved with scipy's HiGHS backend."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.optimize.ilp import CoverageILP


@dataclass(frozen=True)
class LPSolution:
    """Fractional solution of the LP relaxation."""

    pattern_values: np.ndarray  # g_j in [0, 1]
    group_values: np.ndarray    # t_i in [0, 1]
    objective: float
    feasible: bool


def solve_lp_relaxation(problem: CoverageILP) -> LPSolution:
    """Solve the LP relaxation of Figure 5.

    Infeasibility of the relaxation proves infeasibility of the ILP
    (Proposition A.1 case 1).

    When every candidate fits under the size constraint and has a positive
    weight, the constraint cannot bind and the optimum is known without a
    solver: take every pattern (``g = 1``), feasible iff together they cover
    enough groups.  A selective query reaches step 3 with a single candidate,
    where solver start-up would cost more than the mining before it.
    """
    if problem.n_patterns == 0:
        feasible = problem.required_groups == 0
        return LPSolution(np.zeros(0), np.zeros(problem.m), 0.0, feasible)
    if problem.n_patterns <= problem.k and min(problem.weights) > 0.0:
        covered = problem.covered_by(range(problem.n_patterns))
        if len(covered) < problem.required_groups:
            return _infeasible(problem)
        return LPSolution(
            pattern_values=np.ones(problem.n_patterns),
            group_values=np.asarray([float(g in covered)
                                     for g in problem.groups]),
            objective=float(sum(problem.weights)),
            feasible=True,
        )
    arrays = problem.lp_arrays()
    result = linprog(
        c=arrays["c"],
        A_ub=arrays["A_ub"],
        b_ub=arrays["b_ub"],
        bounds=arrays["bounds"],
        method="highs",
    )
    if not result.success:
        return _infeasible(problem)
    l = arrays["n_patterns"]
    values = np.clip(result.x, 0.0, 1.0)
    return LPSolution(
        pattern_values=values[:l],
        group_values=values[l:],
        objective=float(-result.fun),
        feasible=True,
    )


def _infeasible(problem: CoverageILP) -> LPSolution:
    return LPSolution(
        pattern_values=np.zeros(problem.n_patterns),
        group_values=np.zeros(problem.m),
        objective=0.0,
        feasible=False,
    )
