"""Unit tests for the treatment-pattern lattice and Algorithm 2."""

import pytest

from repro.causal import CATEEstimator
from repro.dataframe import Pattern
from repro.mining import PatternLattice, TreatmentMinerConfig, mine_top_treatment
from repro.sql import AggregateView


class TestPatternLattice:
    def test_atomic_predicates_categorical(self, simple_table):
        lattice = PatternLattice(simple_table, ["Gender", "Education"])
        atoms = lattice.atomic_predicates()
        attributes = {p.attribute for p in atoms}
        assert attributes == {"Gender", "Education"}
        assert all(p.op.value == "==" for p in atoms)

    def test_numeric_attribute_becomes_threshold_predicates(self, so_bundle):
        lattice = PatternLattice(so_bundle.table, ["Salary"],
                                 max_values_per_attribute=5, numeric_bins=3)
        atoms = lattice.atomic_predicates()
        assert atoms
        assert all(p.op.value in ("<=", ">") for p in atoms)

    def test_max_values_per_attribute_cap(self, so_bundle):
        lattice = PatternLattice(so_bundle.table, ["Country"],
                                 max_values_per_attribute=3)
        assert len(lattice.level_one()) == 3

    def test_next_level_requires_all_parents(self):
        p_a = Pattern.of(("a", "=", 1))
        p_b = Pattern.of(("b", "=", 1))
        p_c = Pattern.of(("c", "=", 1))
        children = PatternLattice.next_level([p_a, p_b, p_c])
        assert Pattern.of(("a", "=", 1), ("b", "=", 1)) in children
        # With only two survivors, their join is the only child.
        children = PatternLattice.next_level([p_a, p_b])
        assert children == [Pattern.of(("a", "=", 1), ("b", "=", 1))]

    def test_next_level_skips_conflicting_values(self):
        p1 = Pattern.of(("a", "=", 1))
        p2 = Pattern.of(("a", "=", 2))
        assert PatternLattice.next_level([p1, p2]) == []

    def test_next_level_empty_input(self):
        assert PatternLattice.next_level([]) == []

    def test_parents_enumeration(self):
        pattern = Pattern.of(("a", "=", 1), ("b", "=", 2))
        parents = PatternLattice.parents(pattern)
        assert Pattern.of(("a", "=", 1)) in parents
        assert Pattern.of(("b", "=", 2)) in parents


class TestAlgorithm2:
    @pytest.fixture
    def estimator(self, synthetic_bundle):
        return CATEEstimator(synthetic_bundle.table, "O", dag=synthetic_bundle.dag,
                             min_group_size=5)

    @pytest.fixture
    def config(self):
        return TreatmentMinerConfig(max_levels=3, min_group_size=5,
                                    significance_level=1.0, keep_fraction=0.6)

    def test_positive_direction_finds_positive_cate(self, estimator, synthetic_bundle, config):
        best = mine_top_treatment(estimator, Pattern(), synthetic_bundle.treatment_attributes,
                                  "+", synthetic_bundle.dag, config)
        assert best is not None
        assert best.cate > 0

    def test_negative_direction_finds_negative_cate(self, estimator, synthetic_bundle, config):
        best = mine_top_treatment(estimator, Pattern(), synthetic_bundle.treatment_attributes,
                                  "-", synthetic_bundle.dag, config)
        assert best is not None
        assert best.cate < 0

    def test_ground_truth_direction_of_t1(self, estimator, synthetic_bundle, config):
        """T1 enters the outcome positively, so T1=5 must have a positive CATE."""
        estimate = estimator.estimate(Pattern.of(("T1", "=", 5)))
        assert estimate.value > 0
        estimate = estimator.estimate(Pattern.of(("T2", "=", 5)))
        assert estimate.value < 0  # T2 enters negatively

    def test_best_positive_uses_high_odd_low_even_values(self, estimator,
                                                         synthetic_bundle, config):
        best = mine_top_treatment(estimator, Pattern(), synthetic_bundle.treatment_attributes,
                                  "+", synthetic_bundle.dag, config)
        signs = synthetic_bundle.ground_truth["signs"]
        for predicate in best.pattern:
            value = float(predicate.value)
            if signs[predicate.attribute] > 0:
                assert value >= 4
            else:
                assert value <= 2

    def test_invalid_direction_rejected(self, estimator, synthetic_bundle):
        with pytest.raises(ValueError):
            mine_top_treatment(estimator, Pattern(), synthetic_bundle.treatment_attributes,
                               "*", synthetic_bundle.dag)

    def test_attribute_pruning_uses_dag(self, synthetic_bundle, config):
        """Attributes with no causal path to O are pruned when the DAG says so."""
        estimator = CATEEstimator(synthetic_bundle.table, "O",
                                  dag=synthetic_bundle.dag, min_group_size=5)
        best = mine_top_treatment(estimator, Pattern(),
                                  [*synthetic_bundle.treatment_attributes, "G1"],
                                  "+", synthetic_bundle.dag, config)
        assert best is not None
        assert "G1" not in best.pattern.attributes

    def test_significance_filter_can_reject_everything(self, estimator, synthetic_bundle):
        config = TreatmentMinerConfig(significance_level=1e-300, min_group_size=5)
        best = mine_top_treatment(estimator, Pattern(),
                                  synthetic_bundle.treatment_attributes, "+",
                                  synthetic_bundle.dag, config)
        assert best is None

    def test_mine_both_directions(self, estimator, synthetic_bundle, config):
        positive, negative = (
            mine_top_treatment(estimator, Pattern(),
                               synthetic_bundle.treatment_attributes, direction,
                               synthetic_bundle.dag, config)
            for direction in "+-")
        assert positive.cate > 0 > negative.cate

    def test_grouping_pattern_restricts_subpopulation(self, synthetic_bundle, config):
        estimator = CATEEstimator(synthetic_bundle.table, "O",
                                  dag=synthetic_bundle.dag, min_group_size=5)
        grouping = Pattern.of(("G1", "=", "bucket0"))
        best = mine_top_treatment(estimator, grouping,
                                  synthetic_bundle.treatment_attributes, "+",
                                  synthetic_bundle.dag, config)
        assert best is not None
        # The estimate's unit count cannot exceed the sub-population size.
        sub_size = grouping.support(synthetic_bundle.table)
        assert best.estimate.n_units <= sub_size
