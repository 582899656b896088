"""The integer linear program of Figure 5.

Variables ``g_j`` select explanation patterns and ``t_i`` mark covered groups:

    max  sum_j g_j * w_j
    s.t. sum_j g_j <= k
         t_i <= sum_{j : group i covered by pattern j} g_j     for all i
         sum_i t_i >= theta * m
         t_i, g_j in {0, 1}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np


@dataclass(frozen=True)
class Selection:
    """The result of solving the selection problem: chosen pattern indices."""

    chosen: tuple[int, ...]
    objective: float
    covered_groups: frozenset
    feasible: bool

    @property
    def size(self) -> int:
        return len(self.chosen)


class CoverageILP:
    """The explanation-pattern selection problem (Definition 4.5 / Figure 5).

    Parameters
    ----------
    weights:
        Weight ``w_j`` of each candidate explanation pattern (its explainability,
        or |CATE+| + |CATE-| when both directions are used).
    coverage:
        For each candidate, the set of view groups it covers.
    groups:
        All groups of the view (the universe to be covered).
    k:
        Size constraint (maximum number of selected patterns).
    theta:
        Coverage constraint (fraction of groups that must be covered).
    """

    def __init__(self, weights: Sequence[float],
                 coverage: Sequence[frozenset],
                 groups: Sequence[Hashable], k: int, theta: float):
        if len(weights) != len(coverage):
            raise ValueError("weights and coverage must have the same length")
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        if k < 0:
            raise ValueError("k must be non-negative")
        self.weights = [float(w) for w in weights]
        self.groups = list(dict.fromkeys(groups))
        universe = set(self.groups)
        self.coverage = [frozenset(c) & universe for c in coverage]
        self.k = int(k)
        self.theta = float(theta)

    # ------------------------------------------------------------------ derived quantities

    @property
    def n_patterns(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.groups)

    def coverage_matrix(self) -> np.ndarray:
        """Boolean ``(n_patterns, m)`` incidence matrix of pattern coverage."""
        matrix = np.zeros((self.n_patterns, self.m), dtype=bool)
        position = {g: i for i, g in enumerate(self.groups)}
        for j, covered in enumerate(self.coverage):
            for g in covered:
                matrix[j, position[g]] = True
        return matrix

    @property
    def required_groups(self) -> int:
        """Minimum number of groups that must be covered (``ceil(theta * m)``)."""
        return int(np.ceil(self.theta * self.m - 1e-9))

    def covered_by(self, chosen: Sequence[int]) -> frozenset:
        covered: set = set()
        for j in chosen:
            covered |= self.coverage[j]
        return frozenset(covered)

    def objective_of(self, chosen: Sequence[int]) -> float:
        return float(sum(self.weights[j] for j in chosen))

    def is_feasible(self, chosen: Sequence[int]) -> bool:
        """Size + coverage + incomparability check for a concrete selection."""
        if len(chosen) > self.k:
            return False
        if len(self.covered_by(chosen)) < self.required_groups:
            return False
        seen_coverages = [self.coverage[j] for j in chosen]
        return len(set(seen_coverages)) == len(seen_coverages)

    def selection(self, chosen: Sequence[int]) -> Selection:
        chosen = tuple(sorted(dict.fromkeys(chosen)))
        return Selection(
            chosen=chosen,
            objective=self.objective_of(chosen),
            covered_groups=self.covered_by(chosen),
            feasible=self.is_feasible(chosen),
        )

    # ------------------------------------------------------------------ LP matrices

    def lp_arrays(self) -> dict:
        """Build the arrays of the LP relaxation for ``scipy.optimize.linprog``.

        Variable vector is ``[g_1..g_l, t_1..t_m]``; linprog minimises, so the
        objective is negated.
        """
        l, m = self.n_patterns, self.m
        n_vars = l + m
        c = np.zeros(n_vars)
        c[:l] = -np.asarray(self.weights)

        rows = []
        rhs = []
        # (1) sum_j g_j <= k
        size_row = np.zeros(n_vars)
        size_row[:l] = 1.0
        rows.append(size_row)
        rhs.append(float(self.k))
        # (2) t_i - sum_{j covers i} g_j <= 0
        group_index = {g: i for i, g in enumerate(self.groups)}
        for g, i in group_index.items():
            row = np.zeros(n_vars)
            row[l + i] = 1.0
            for j, covered in enumerate(self.coverage):
                if g in covered:
                    row[j] -= 1.0
            rows.append(row)
            rhs.append(0.0)
        # (3) -sum_i t_i <= -theta * m
        coverage_row = np.zeros(n_vars)
        coverage_row[l:] = -1.0
        rows.append(coverage_row)
        rhs.append(-float(self.required_groups))

        return {
            "c": c,
            "A_ub": np.vstack(rows),
            "b_ub": np.asarray(rhs),
            "bounds": [(0.0, 1.0)] * n_vars,
            "n_patterns": l,
            "n_groups": m,
        }
