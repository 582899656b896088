"""Tests for the shared pattern-evaluation engine (mask cache + bound estimation)."""

import gc
import weakref

import numpy as np
import pytest

from repro.causal import CATEEstimator
from repro.core import CauSumX, CauSumXConfig, render_summary
from repro.dataframe import MaskCache, Op, Pattern, Predicate, Table
from repro.mining.lattice import PatternLattice
from repro.mining.treatments import TreatmentMinerConfig, mine_top_treatment
from repro.sql import AggregateView, parse_query


@pytest.fixture
def cache(simple_table) -> MaskCache:
    return MaskCache(simple_table)


class TestMaskCache:
    def test_predicate_mask_matches_direct_evaluation(self, simple_table, cache):
        for predicate in (Predicate("Country", Op.EQ, "US"),
                          Predicate("Age", Op.GT, 28),
                          Predicate("Gender", Op.NE, "Male")):
            np.testing.assert_array_equal(cache.predicate_mask(predicate),
                                          predicate.evaluate(simple_table))

    def test_hit_miss_accounting(self, cache):
        predicate = Predicate("Country", Op.EQ, "US")
        assert cache.stats().requests == 0
        cache.predicate_mask(predicate)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 1, 1)
        cache.predicate_mask(predicate)
        cache.predicate_mask(Predicate("Country", Op.EQ, "US"))  # same key, new object
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (2, 1, 1)
        assert stats.bytes > 0
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_repeated_lookup_returns_same_readonly_array(self, cache):
        predicate = Predicate("Continent", Op.EQ, "Asia")
        first = cache.predicate_mask(predicate)
        second = cache.predicate_mask(predicate)
        assert first is second
        with pytest.raises(ValueError):
            first[0] = False

    def test_pattern_mask_is_and_of_predicates(self, simple_table, cache):
        pattern = Pattern.of(("Continent", "==", "Asia"), ("Gender", "==", "Female"),
                             ("Age", "<=", 30))
        np.testing.assert_array_equal(cache.pattern_mask(pattern),
                                      pattern.evaluate(simple_table))
        # All three predicates were cached individually by the composition.
        assert cache.stats().entries == 3
        np.testing.assert_array_equal(cache.pattern_mask(pattern),
                                      pattern.evaluate(simple_table))
        assert cache.stats().hits >= 3

    def test_empty_pattern_matches_everything(self, simple_table, cache):
        assert cache.pattern_mask(Pattern()).all()
        assert cache.support(Pattern()) == simple_table.n_rows

    def test_support_and_indices(self, simple_table, cache):
        pattern = Pattern.of(("Continent", "==", "Asia"))
        assert cache.support(pattern) == pattern.support(simple_table)
        np.testing.assert_array_equal(cache.indices(pattern),
                                      np.nonzero(pattern.evaluate(simple_table))[0])

    def test_clear_resets_everything(self, cache):
        cache.predicate_mask(Predicate("Country", Op.EQ, "US"))
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries, stats.bytes) == (0, 0, 0, 0)

    def test_random_patterns_against_direct_evaluation(self, so_bundle):
        rng = np.random.default_rng(11)
        table = so_bundle.table
        cache = MaskCache(table)
        attrs = ["Country", "Gender", "Education", "Student", "Role"]
        for _ in range(25):
            chosen = rng.choice(attrs, size=rng.integers(1, 4), replace=False)
            assignment = {a: table.domain(a)[rng.integers(len(table.domain(a)))]
                          for a in chosen}
            pattern = Pattern.equalities(assignment)
            np.testing.assert_array_equal(cache.pattern_mask(pattern),
                                          pattern.evaluate(table))


class TestLatticePruning:
    def test_zero_and_low_support_atoms_pruned(self):
        table = Table.from_columns({
            "t": ["a"] * 30 + ["b"] * 30 + ["rare"],
            "y": [float(i) for i in range(61)],
        })
        unpruned = PatternLattice(table, ["t"]).atomic_predicates()
        pruned = PatternLattice(table, ["t"], mask_cache=MaskCache(table),
                                min_support=10).atomic_predicates()
        assert {p.value for p in unpruned} == {"a", "b", "rare"}
        assert {p.value for p in pruned} == {"a", "b"}


def _assert_same_estimate(left, right):
    for field in ("value", "std_error", "p_value"):
        l, r = getattr(left, field), getattr(right, field)
        assert (l == r) or (np.isnan(l) and np.isnan(r)), (field, left, right)
    assert left.n_treated == right.n_treated
    assert left.n_control == right.n_control


class TestBoundEstimation:
    def test_cached_estimates_equal_uncached(self, so_bundle):
        treatments = [Pattern.equalities({"Gender": "Male"}),
                      Pattern.equalities({"Education": "PhD"}),
                      Pattern.equalities({"Student": "Yes", "Gender": "Male"})]
        subpops = [None, Pattern.equalities({"Continent": "Europe"}),
                   Pattern.equalities({"GDP": "High"})]
        for sample_size in (None, 300):
            cached = CATEEstimator(so_bundle.table, "Salary", dag=so_bundle.dag,
                                   sample_size=sample_size, use_cache=True)
            plain = CATEEstimator(so_bundle.table, "Salary", dag=so_bundle.dag,
                                  sample_size=sample_size, use_cache=False)
            for subpop in subpops:
                for a, b in zip(cached.estimate_many(treatments, subpop),
                                plain.estimate_many(treatments, subpop)):
                    _assert_same_estimate(a, b)

    def test_missing_outcome_rows_handled_identically(self):
        rng = np.random.default_rng(3)
        n = 200
        table = Table.from_columns({
            "g": [str(v) for v in rng.integers(0, 2, n)],
            "t": [str(v) for v in rng.integers(0, 3, n)],
            "y": [float(v) if v > 0.2 else None for v in rng.random(n)],
        })
        treatment = Pattern.of(("t", "==", "1"))
        subpop = Pattern.of(("g", "==", "0"))
        cached = CATEEstimator(table, "y", min_group_size=2, use_cache=True)
        plain = CATEEstimator(table, "y", min_group_size=2, use_cache=False)
        _assert_same_estimate(cached.estimate(treatment, subpop),
                              plain.estimate(treatment, subpop))

    def test_bind_is_memoized(self, so_bundle):
        estimator = CATEEstimator(so_bundle.table, "Salary", use_cache=True)
        subpop = Pattern.equalities({"Continent": "Asia"})
        assert estimator.bind(subpop) is estimator.bind(subpop)
        assert estimator.bind(None) is estimator.bind(Pattern())

    def test_bound_cache_is_lru(self, so_bundle):
        estimator = CATEEstimator(so_bundle.table, "Salary", use_cache=True,
                                  bound_cache_size=2)
        first = estimator.bind(Pattern.equalities({"Continent": "Asia"}))
        estimator.bind(Pattern.equalities({"Continent": "Europe"}))
        estimator.bind(Pattern.equalities({"GDP": "High"}))  # evicts the oldest
        assert estimator.bind(Pattern.equalities({"Continent": "Asia"})) is not first

    def test_dropped_estimator_is_freed_without_the_cyclic_collector(
            self, so_bundle):
        """Engine-style explain, then drop: refcounting alone reclaims the
        estimator, its filtered table and the view (evicted populations hold
        MBs of masks and design buffers; waiting for a full gc pass showed up
        as server RSS)."""
        config = CauSumXConfig(
            k=3, theta=0.5, apriori_threshold=0.1, sample_size=None,
            min_group_size=5,
            treatment=TreatmentMinerConfig(max_levels=1, min_group_size=5,
                                           max_values_per_attribute=6))
        query = ("SELECT Country, AVG(Salary) FROM SO "
                 "WHERE Gender = 'Male' GROUP BY Country")
        algorithm = CauSumX(so_bundle.table, so_bundle.dag, config)
        gc.collect()
        gc.disable()
        try:
            view = AggregateView(so_bundle.table, parse_query(query))
            estimator = CauSumX.build_estimator(view.table, "Salary",
                                                so_bundle.dag, config)
            summary = algorithm.explain(
                query, grouping_attributes=so_bundle.grouping_attributes,
                treatment_attributes=so_bundle.treatment_attributes,
                view=view, estimator=estimator)
            assert summary.patterns
            refs = [weakref.ref(estimator), weakref.ref(view.table),
                    weakref.ref(view)]
            del view, estimator
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_mine_top_treatment_same_result_with_and_without_cache(self, so_bundle):
        config = TreatmentMinerConfig(max_levels=2, min_group_size=10,
                                      max_values_per_attribute=8)
        grouping = Pattern.equalities({"Continent": "Europe"})
        results = {}
        for use_cache in (False, True):
            estimator = CATEEstimator(so_bundle.table, "Salary", dag=so_bundle.dag,
                                      use_cache=use_cache)
            results[use_cache] = mine_top_treatment(
                estimator, grouping, ["Gender", "Education", "Student"],
                "+", so_bundle.dag, config)
        assert (results[True] is None) == (results[False] is None)
        if results[True] is not None:
            assert results[True].pattern == results[False].pattern
            _assert_same_estimate(results[True].estimate, results[False].estimate)


class TestExplainInvariance:
    @pytest.fixture(scope="class")
    def small_bundle(self):
        from repro.datasets import make_stackoverflow

        return make_stackoverflow(n=500, seed=5)

    @pytest.fixture(scope="class")
    def invariance_config(self) -> CauSumXConfig:
        return CauSumXConfig(
            k=3, theta=0.75, apriori_threshold=0.1, sample_size=None,
            min_group_size=10,
            treatment=TreatmentMinerConfig(max_levels=2, min_group_size=10,
                                           significance_level=0.05,
                                           max_values_per_attribute=6),
        )

    def _explain(self, bundle, config):
        return CauSumX(bundle.table, bundle.dag, config).explain(
            bundle.query,
            grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=["Gender", "Education", "Student", "Role"])

    @staticmethod
    def _signature(summary):
        return [(repr(p.grouping_pattern),
                 repr(p.positive.pattern) if p.positive else None,
                 p.positive.cate if p.positive else None,
                 repr(p.negative.pattern) if p.negative else None,
                 p.negative.cate if p.negative else None)
                for p in summary]

    def test_summary_invariant_under_cache(self, small_bundle,
                                           invariance_config):
        reference = self._explain(small_bundle,
                                  invariance_config.with_overrides(use_mask_cache=False))
        summary = self._explain(small_bundle,
                                invariance_config.with_overrides(use_mask_cache=True))
        assert self._signature(summary) == self._signature(reference)
        assert render_summary(summary) == render_summary(reference)
