"""Unit tests for the ILP model, LP relaxation, rounding, exact and greedy solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.optimize import (
    CoverageILP,
    greedy_selection,
    randomized_rounding,
    solve_exact,
    solve_lp_relaxation,
)
from repro.optimize.rounding import _dedupe_conflicting, _rank


class TestCoverageILP:
    def test_required_groups(self, coverage_problem):
        assert coverage_problem.m == 5
        assert coverage_problem.required_groups == 4  # ceil(0.8 * 5)

    def test_objective_and_coverage(self, coverage_problem):
        assert coverage_problem.objective_of([0, 1]) == pytest.approx(18.0)
        assert coverage_problem.covered_by([0, 1]) == frozenset(
            ["g1", "g2", "g3", "g4"])

    def test_feasibility_checks(self, coverage_problem):
        assert coverage_problem.is_feasible([0, 1])          # 4 groups covered
        assert not coverage_problem.is_feasible([0, 2])      # only 3 groups
        assert not coverage_problem.is_feasible([0, 1, 2])   # size > k

    def test_incomparability_enforced(self):
        problem = CoverageILP([1.0, 2.0], [frozenset(["g1"]), frozenset(["g1"])],
                              ["g1"], k=2, theta=1.0)
        assert not problem.is_feasible([0, 1])
        assert problem.is_feasible([1])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            CoverageILP([1.0], [], ["g1"], k=1, theta=0.5)
        with pytest.raises(ValueError):
            CoverageILP([1.0], [frozenset()], ["g1"], k=1, theta=1.5)
        with pytest.raises(ValueError):
            CoverageILP([1.0], [frozenset()], ["g1"], k=-1, theta=0.5)

    def test_coverage_clipped_to_universe(self):
        problem = CoverageILP([1.0], [frozenset(["g1", "not-a-group"])], ["g1"],
                              k=1, theta=1.0)
        assert problem.coverage[0] == frozenset(["g1"])

    def test_lp_arrays_shapes(self, coverage_problem):
        arrays = coverage_problem.lp_arrays()
        n_vars = coverage_problem.n_patterns + coverage_problem.m
        assert arrays["A_ub"].shape == (1 + coverage_problem.m + 1, n_vars)
        assert len(arrays["bounds"]) == n_vars


class TestLPRelaxation:
    def test_feasible_problem(self, coverage_problem):
        lp = solve_lp_relaxation(coverage_problem)
        assert lp.feasible
        # The LP objective upper-bounds every integral solution.
        exact = solve_exact(coverage_problem)
        assert lp.objective >= exact.objective - 1e-6

    def test_infeasible_problem(self):
        problem = CoverageILP([1.0], [frozenset(["g1"])], ["g1", "g2"], k=1, theta=1.0)
        lp = solve_lp_relaxation(problem)
        assert not lp.feasible

    def test_empty_candidates(self):
        problem = CoverageILP([], [], ["g1"], k=1, theta=1.0)
        lp = solve_lp_relaxation(problem)
        assert not lp.feasible


class TestRandomizedRounding:
    def test_returns_feasible_selection(self, coverage_problem):
        selection = randomized_rounding(coverage_problem, seed=0)
        assert selection is not None
        assert selection.feasible
        assert selection.size <= coverage_problem.k

    def test_infeasible_lp_returns_none(self):
        problem = CoverageILP([1.0], [frozenset(["g1"])], ["g1", "g2"], k=1, theta=1.0)
        assert randomized_rounding(problem) is None

    def test_deterministic_for_fixed_seed(self, coverage_problem):
        a = randomized_rounding(coverage_problem, seed=5)
        b = randomized_rounding(coverage_problem, seed=5)
        assert a.chosen == b.chosen

    def test_respects_incomparability(self):
        problem = CoverageILP([5.0, 4.0, 3.0],
                              [frozenset(["g1"]), frozenset(["g1"]), frozenset(["g2"])],
                              ["g1", "g2"], k=2, theta=1.0)
        selection = randomized_rounding(problem, seed=1)
        coverages = [problem.coverage[j] for j in selection.chosen]
        assert len(coverages) == len(set(coverages))


# The shipped step 3 answers without a solver when the size constraint cannot
# bind and takes all its draws in one call.  The references below are the
# solver on ``lp_arrays()`` and the one-draw-at-a-time loop; the shipped code
# must return *their* selection, not merely a valid one.


def _reference_lp(problem):
    """``(feasible, pattern_values)`` from HiGHS on the Figure 5 arrays."""
    if problem.n_patterns == 0:
        return problem.required_groups == 0, np.zeros(0)
    arrays = problem.lp_arrays()
    result = linprog(c=arrays["c"], A_ub=arrays["A_ub"], b_ub=arrays["b_ub"],
                     bounds=arrays["bounds"], method="highs")
    if not result.success:
        return False, np.zeros(problem.n_patterns)
    return True, np.clip(result.x, 0.0, 1.0)[:problem.n_patterns]


def _reference_rounding(problem, n_draws=32, seed=0):
    feasible, pattern_values = _reference_lp(problem)
    if not feasible:
        return None
    if problem.n_patterns == 0 or problem.k == 0:
        empty = problem.selection(())
        return empty if empty.feasible else None
    rng = np.random.default_rng(seed)
    probabilities = np.clip(pattern_values, 0.0, None) / problem.k
    leftover = max(0.0, 1.0 - probabilities.sum())
    probabilities = probabilities + leftover / problem.n_patterns
    probabilities = probabilities / probabilities.sum()
    best_feasible = best_any = None
    for _ in range(n_draws):
        drawn = rng.choice(problem.n_patterns, size=problem.k, replace=True,
                           p=probabilities)
        selection = problem.selection(
            _dedupe_conflicting(problem, [int(j) for j in drawn]))
        if best_any is None or _rank(selection) > _rank(best_any):
            best_any = selection
        if selection.feasible and (best_feasible is None or
                                   selection.objective > best_feasible.objective):
            best_feasible = selection
    return best_feasible if best_feasible is not None else best_any


@st.composite
def selection_problems(draw):
    """1–12 candidates over 1–12 groups, ``k`` below, at and above the count.

    Weights come from a small grid including zero and negatives (which must
    fall through to the solver) so ties are common, and coverage sets are
    drawn from a short pool so duplicates are common too.
    """
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    subsets = st.frozensets(st.integers(0, m - 1), max_size=m)
    pool = draw(st.lists(subsets, min_size=1, max_size=4))
    coverage = draw(st.lists(st.one_of(st.sampled_from(pool), subsets),
                             min_size=n, max_size=n))
    weights = draw(st.lists(
        st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                  st.floats(1e-9, 10.0)), min_size=n, max_size=n))
    k = draw(st.one_of(st.integers(1, 8), st.just(n)))
    theta = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    return CoverageILP(weights, coverage, list(range(m)), k, theta)


class TestSelectionIdentity:
    @given(problem=selection_problems())
    @settings(max_examples=150, deadline=None)
    def test_lp_agrees_with_solver(self, problem):
        feasible, pattern_values = _reference_lp(problem)
        lp = solve_lp_relaxation(problem)
        assert lp.feasible == feasible
        if feasible and problem.n_patterns <= problem.k:
            np.testing.assert_allclose(lp.pattern_values, pattern_values,
                                       rtol=0, atol=1e-9)

    @given(problem=selection_problems(), seed=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_rounding_returns_the_sequential_loops_selection(self, problem,
                                                             seed):
        assert randomized_rounding(problem, seed=seed) == \
            _reference_rounding(problem, seed=seed)

    def test_one_candidate_needs_no_solver(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("linprog called for a non-binding size "
                                 "constraint")
        problem = CoverageILP([3.0], [frozenset(["g1", "g2"])],
                              ["g1", "g2", "g3"], k=5, theta=0.5)
        expected = _reference_rounding(problem)
        monkeypatch.setattr("repro.optimize.lp.linprog", no_solver)
        lp = solve_lp_relaxation(problem)
        assert lp.feasible and lp.pattern_values.tolist() == [1.0]
        assert randomized_rounding(problem, lp) == expected
        assert expected.chosen == (0,) and expected.feasible

    def test_unreachable_coverage_is_none_without_solver(self, monkeypatch):
        problem = CoverageILP([1.0, 2.0], [frozenset(["g1"])] * 2,
                              ["g1", "g2"], k=2, theta=1.0)
        assert _reference_rounding(problem) is None
        monkeypatch.setattr("repro.optimize.lp.linprog", None)
        assert not solve_lp_relaxation(problem).feasible
        assert randomized_rounding(problem) is None

    @pytest.mark.parametrize("weights", [[0.0, 2.0], [-1.0, 2.0]])
    def test_non_positive_weight_goes_to_the_solver(self, weights,
                                                    monkeypatch):
        calls = []

        def counting(**kwargs):
            calls.append(1)
            return linprog(**kwargs)
        problem = CoverageILP(weights, [frozenset(["g1"]), frozenset(["g2"])],
                              ["g1", "g2"], k=3, theta=0.5)
        monkeypatch.setattr("repro.optimize.lp.linprog", counting)
        lp = solve_lp_relaxation(problem)
        assert calls == [1]
        assert lp.feasible == _reference_lp(problem)[0]

    def test_duplicate_coverage_keeps_the_heaviest(self):
        problem = CoverageILP(
            [1.0, 4.0, 2.0],
            [frozenset(["g1"]), frozenset(["g1"]), frozenset(["g2"])],
            ["g1", "g2"], k=3, theta=1.0)
        selection = randomized_rounding(problem, seed=0)
        assert selection == _reference_rounding(problem, seed=0)
        assert selection.chosen == (1, 2)


class TestExactSolver:
    def test_optimum_on_small_instance(self, coverage_problem):
        best = solve_exact(coverage_problem)
        # Optimal feasible pair is {0, 1}: weight 18, covers 4 groups.
        assert set(best.chosen) == {0, 1}
        assert best.objective == pytest.approx(18.0)

    def test_enumeration_agrees_with_branch_and_bound(self, coverage_problem):
        assert solve_exact(coverage_problem, "enumerate").objective == pytest.approx(
            solve_exact(coverage_problem, "branch_and_bound").objective)

    def test_infeasible_returns_none(self):
        problem = CoverageILP([1.0], [frozenset(["g1"])], ["g1", "g2"], k=1, theta=1.0)
        assert solve_exact(problem) is None

    def test_unknown_method_rejected(self, coverage_problem):
        with pytest.raises(ValueError):
            solve_exact(coverage_problem, "simulated-annealing")

    def test_exact_at_least_as_good_as_rounding(self, coverage_problem):
        exact = solve_exact(coverage_problem)
        rounded = randomized_rounding(coverage_problem, seed=0)
        assert exact.objective >= rounded.objective - 1e-9


class TestGreedy:
    def test_respects_size_constraint(self, coverage_problem):
        selection = greedy_selection(coverage_problem)
        assert selection.size <= coverage_problem.k

    def test_greedy_never_duplicates_coverage(self):
        problem = CoverageILP([5.0, 5.0, 1.0],
                              [frozenset(["g1"]), frozenset(["g1"]), frozenset(["g2"])],
                              ["g1", "g2"], k=3, theta=0.0)
        selection = greedy_selection(problem)
        coverages = [problem.coverage[j] for j in selection.chosen]
        assert len(coverages) == len(set(coverages))

    def test_greedy_may_miss_coverage_constraint(self):
        # Greedy prefers the heavy pattern and can end up below theta when k=1.
        problem = CoverageILP([100.0, 1.0, 1.0],
                              [frozenset(["g1"]),
                               frozenset(["g2"]),
                               frozenset(["g3"])],
                              ["g1", "g2", "g3"], k=1, theta=1.0)
        selection = greedy_selection(problem)
        assert not selection.feasible
        assert selection.chosen == (0,)

    def test_greedy_matches_set_based_reference(self):
        """The vectorized scorer reproduces the historical set-diff loop."""
        import itertools
        import random

        rng = random.Random(7)
        groups = [f"g{i}" for i in range(9)]
        for trial in range(20):
            n = rng.randint(1, 7)
            weights = [round(rng.uniform(0.0, 10.0), 3) for _ in range(n)]
            coverage = [frozenset(rng.sample(groups, rng.randint(0, 6)))
                        for _ in range(n)]
            problem = CoverageILP(weights, coverage, groups,
                                  k=rng.randint(1, 4), theta=0.5)
            expected = _reference_greedy(problem)
            assert greedy_selection(problem).chosen == expected, (trial, weights)

    def test_coverage_matrix(self):
        problem = CoverageILP([1.0], [frozenset(["g2"])], ["g1", "g2"],
                              k=1, theta=0.0)
        assert problem.coverage_matrix().tolist() == [[False, True]]


def _reference_greedy(problem):
    """The pre-vectorization greedy loop, kept verbatim as a test oracle."""
    chosen, covered, taken = [], set(), set()
    max_weight = max([abs(w) for w in problem.weights], default=1.0) or 1.0
    m = max(problem.m, 1)
    while len(chosen) < problem.k:
        best_j, best_score = None, float("-inf")
        for j in range(problem.n_patterns):
            if j in chosen or problem.coverage[j] in taken:
                continue
            marginal = len(problem.coverage[j] - covered)
            score = problem.weights[j] / max_weight + marginal / m
            if score > best_score:
                best_score, best_j = score, j
        if best_j is None:
            break
        chosen.append(best_j)
        covered |= problem.coverage[best_j]
        taken.add(problem.coverage[best_j])
    return tuple(sorted(chosen))
