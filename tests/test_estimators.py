"""Unit tests for ATE/CATE estimation with backdoor adjustment."""

import sys
import threading

import numpy as np
import pytest

from repro.causal import (
    CATEEstimator,
    EffectEstimate,
    estimate_ate,
    estimate_cate,
    naive_difference_in_means,
)
from repro.causal.ols import FactoredDesign
from repro.dataframe import Column, Pattern, Table
from repro.graph import CausalDAG
from repro.mining.treatments import TreatmentMinerConfig, mine_top_treatment
from repro.obs.registry import REGISTRY


class TestEffectEstimate:
    def test_validity(self):
        ok = EffectEstimate(1.0, 0.1, 0.01, 50, 50)
        assert ok.is_valid()
        assert ok.is_significant()
        assert ok.n_units == 100

    def test_undefined(self):
        bad = EffectEstimate.undefined(5, 0)
        assert not bad.is_valid()
        assert not bad.is_significant()


class TestNaive:
    def test_difference_in_means(self):
        outcome = np.array([1.0, 2.0, 5.0, 6.0])
        treated = np.array([False, False, True, True])
        estimate = naive_difference_in_means(outcome, treated)
        assert estimate.value == pytest.approx(4.0)
        assert estimate.estimator == "naive"

    def test_no_control_group(self):
        estimate = naive_difference_in_means(np.array([1.0, 2.0]),
                                             np.array([True, True]))
        assert not estimate.is_valid()

    def test_ignores_missing_outcomes(self):
        outcome = np.array([1.0, np.nan, 5.0, 7.0])
        treated = np.array([False, False, True, True])
        estimate = naive_difference_in_means(outcome, treated)
        assert estimate.value == pytest.approx(5.0)


class TestAdjustment:
    def test_adjusted_estimate_removes_confounding(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag)
        adjusted = estimator.estimate(Pattern.of(("T", "=", 1)))
        naive = naive_difference_in_means(
            confounded_table.column("Y").values,
            confounded_table.column("T").values == 1)
        assert adjusted.value == pytest.approx(5.0, abs=0.3)
        # The naive estimate is biased upward by the confounder Z.
        assert naive.value > adjusted.value + 0.3

    def test_cate_on_subpopulation(self, confounded_table, confounded_dag):
        effect = estimate_cate(confounded_table, Pattern.of(("T", "=", 1)), "Y",
                               subpopulation=Pattern.of(("G", "=", "even")),
                               dag=confounded_dag)
        assert effect.is_valid()
        assert effect.n_units <= 1000
        assert effect.value == pytest.approx(5.0, abs=0.5)

    def test_ate_helper(self, confounded_table, confounded_dag):
        effect = estimate_ate(confounded_table, Pattern.of(("T", "=", 1)), "Y",
                              dag=confounded_dag)
        assert effect.is_valid()

    def test_without_dag_no_adjustment(self, confounded_table):
        estimator = CATEEstimator(confounded_table, "Y", dag=None)
        assert estimator.adjustment_set(("T",)) == []

    def test_minimal_adjustment_strategy(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag,
                                  adjustment="minimal")
        assert estimator.adjustment_set(("T",)) == ["Z"]

    def test_unknown_adjustment_rejected(self, confounded_table):
        with pytest.raises(ValueError):
            CATEEstimator(confounded_table, "Y", adjustment="magic")

    def test_overlap_violation_returns_undefined(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag)
        # Every tuple satisfies Z >= 0, so there is no control group.
        estimate = estimator.estimate(Pattern.of(("Y", ">", -1e12)))
        assert not estimate.is_valid()

    def test_min_group_size_enforced(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag,
                                  min_group_size=10_000)
        estimate = estimator.estimate(Pattern.of(("T", "=", 1)))
        assert not estimate.is_valid()

    def test_sampling_estimate_close_to_full(self, confounded_table, confounded_dag):
        full = CATEEstimator(confounded_table, "Y", dag=confounded_dag)
        sampled = CATEEstimator(confounded_table, "Y", dag=confounded_dag,
                                sample_size=800, seed=1)
        t = Pattern.of(("T", "=", 1))
        assert sampled.estimate(t).value == pytest.approx(full.estimate(t).value,
                                                          abs=0.5)

    def test_missing_outcomes_are_dropped(self, confounded_dag):
        table = Table([
            Column("Z", [0, 0, 1, 1] * 25, numeric=False),
            Column("T", [0, 1] * 50, numeric=False),
            Column("Y", [float(i) if i % 3 else None for i in range(100)], numeric=True),
        ])
        estimator = CATEEstimator(table, "Y", dag=confounded_dag, min_group_size=5)
        estimate = estimator.estimate(Pattern.of(("T", "=", 1)))
        assert estimate.is_valid()
        assert estimate.n_units == 66

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_treatment_collinear_with_confounder_is_undefined_and_counted(
            self, confounded_dag, use_cache):
        """``T`` is a function of its confounder ``Z``: the effect is not
        identifiable, and ``pinv`` used to return a minimum-norm coefficient
        for it as if it were."""
        table = Table([
            Column("Z", [0, 1] * 50, numeric=False),
            Column("T", [0, 1] * 50, numeric=False),
            Column("Y", [float(i % 7) for i in range(100)], numeric=True),
        ])
        skipped = REGISTRY.counter("repro_causal_skipped_total",
                                   reason="collinear_treatment")
        before = skipped.value
        estimator = CATEEstimator(table, "Y", dag=confounded_dag,
                                  min_group_size=5, use_cache=use_cache)
        estimate = estimator.estimate(Pattern.of(("T", "=", 1)))
        assert not estimate.is_valid()
        assert (estimate.n_treated, estimate.n_control) == (50, 50)
        assert estimate.p_value == 1.0
        assert skipped.value == before + 1

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("poisoned", ["Y", "W"])
    def test_non_finite_value_is_undefined_and_counted(self, poisoned,
                                                       use_cache):
        """One ``inf`` in the outcome or in a numeric confounder makes every
        fit over those rows undefined and counted, never a silent NaN."""
        rng = np.random.default_rng(3)
        n = 120
        w = rng.normal(size=n)
        t = (rng.random(n) < 0.5).astype(int)
        y = 2.0 * t + w + rng.normal(size=n)
        (y if poisoned == "Y" else w)[7] = np.inf
        table = Table([
            Column("W", [float(v) for v in w], numeric=True),
            Column("T", [int(v) for v in t], numeric=False),
            Column("Y", [float(v) for v in y], numeric=True),
        ])
        dag = CausalDAG.from_dict({"T": ["W"], "Y": ["T", "W"], "W": []})
        skipped = REGISTRY.counter("repro_causal_skipped_total",
                                   reason="non_finite")
        before = skipped.value
        estimator = CATEEstimator(table, "Y", dag=dag, min_group_size=5,
                                  use_cache=use_cache)
        estimates = estimator.estimate_many([Pattern.of(("T", "=", 1)),
                                             Pattern.of(("T", "=", 0))])
        for estimate in estimates:
            assert not estimate.is_valid()
            assert estimate.n_treated + estimate.n_control == n
        assert skipped.value == before + 2

    def test_estimate_many(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag)
        results = estimator.estimate_many([Pattern.of(("T", "=", 1)),
                                           Pattern.of(("T", "=", 0))])
        assert len(results) == 2
        # Treating "T=0" flips the sign of the effect.
        assert results[0].value == pytest.approx(-results[1].value, rel=0.2)


def _bits(estimate: EffectEstimate) -> tuple:
    return (estimate.value.hex(), estimate.std_error.hex(),
            estimate.p_value.hex(), estimate.n_treated, estimate.n_control)


class TestOneSolvePerCandidate:
    SUBPOPULATION = Pattern.equalities({"Continent": "Europe"})
    TREATMENTS = [Pattern.equalities(assignment) for assignment in (
        {"Gender": "Male"}, {"Gender": "Female"}, {"Education": "PhD"},
        {"Education": "M.S."}, {"Student": "Yes"},
        {"Student": "Yes", "Gender": "Male"}, {"Role": "Data Scientist"},
        {"Education": "B.Sc.", "Gender": "Female"})]

    def test_estimate_depends_on_its_own_candidate_alone(self, so_bundle):
        """Bit-identical alone, inside a batch, inside the reversed batch,
        memoised or not, and from two threads racing on one binding."""
        def estimator(use_cache=True):
            return CATEEstimator(so_bundle.table, "Salary", dag=so_bundle.dag,
                                 use_cache=use_cache)

        position = 5
        target = self.TREATMENTS[position]
        seen = {"alone": estimator().estimate(target, self.SUBPOPULATION)}
        assert seen["alone"].is_valid()
        for use_cache in (True, False):
            seen[f"batch/{use_cache}"] = estimator(use_cache).estimate_many(
                self.TREATMENTS, self.SUBPOPULATION)[position]
            seen[f"reversed/{use_cache}"] = estimator(use_cache).estimate_many(
                self.TREATMENTS[::-1], self.SUBPOPULATION)[-1 - position]
            seen[f"alone/{use_cache}"] = estimator(use_cache).estimate(
                target, self.SUBPOPULATION)

        shared = estimator()
        barrier = threading.Barrier(2)
        results: dict[int, list] = {}

        def race(order: int) -> None:
            barrier.wait(timeout=30)
            bound = shared.bind(self.SUBPOPULATION)
            batch = self.TREATMENTS[::order]
            results[order] = [bound.estimate(t) for t in batch][::order]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=race, args=(order,))
                       for order in (1, -1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        seen["thread/forward"] = results[1][position]
        seen["thread/backward"] = results[-1][position]
        assert [_bits(a) for a in results[1]] == [_bits(b) for b in results[-1]]

        assert {_bits(estimate) for estimate in seen.values()} == \
            {_bits(seen["alone"])}, seen

    def test_second_direction_solves_no_level_one_atom_again(self, so_bundle,
                                                             monkeypatch):
        """``+`` and ``-`` search the same level-one atoms on one binding; the
        binding's memo answers the second search without a solve."""
        solves = []
        solve = FactoredDesign.solve
        monkeypatch.setattr(
            FactoredDesign, "solve",
            lambda design, rows: solves.append(len(rows)) or solve(design, rows))
        estimator = CATEEstimator(so_bundle.table, "Salary", dag=so_bundle.dag)
        config = TreatmentMinerConfig(max_levels=1, min_group_size=10,
                                      max_values_per_attribute=8)
        attributes = ["Gender", "Education", "Student", "Role"]
        mine_top_treatment(estimator, self.SUBPOPULATION, attributes, "+",
                           so_bundle.dag, config)
        first = len(solves)
        assert first > 0
        mine_top_treatment(estimator, self.SUBPOPULATION, attributes, "-",
                           so_bundle.dag, config)
        assert len(solves) == first
