"""Integration tests: the full CauSumX pipeline and its variants."""

import pytest

from repro.core import CauSumX, brute_force, brute_force_lp, greedy_last_step
from repro.core import causumx
from repro.dataframe import grouping_attribute_partition
from repro.datasets import make_accidents, make_german, make_synthetic


class TestCauSumXOnStackOverflow:
    @pytest.fixture(scope="class")
    def summary(self, so_bundle, fast_config):
        algorithm = CauSumX(so_bundle.table, so_bundle.dag, fast_config)
        return algorithm.explain(so_bundle.query,
                                 grouping_attributes=so_bundle.grouping_attributes,
                                 treatment_attributes=so_bundle.treatment_attributes)

    def test_respects_size_constraint(self, summary, fast_config):
        assert 1 <= len(summary) <= fast_config.k

    def test_satisfies_coverage_constraint(self, summary, fast_config):
        assert summary.coverage >= fast_config.theta

    def test_incomparability(self, summary):
        coverages = [p.covered_groups for p in summary]
        assert len(coverages) == len(set(coverages))

    def test_each_pattern_has_a_treatment(self, summary):
        assert all(p.has_treatment() for p in summary)

    def test_grouping_patterns_use_fd_attributes(self, summary, so_bundle):
        allowed = set(so_bundle.grouping_attributes)
        for pattern in summary:
            assert set(pattern.grouping_pattern.attributes) <= allowed

    def test_treatment_patterns_use_treatment_attributes(self, summary, so_bundle):
        allowed = set(so_bundle.treatment_attributes)
        for pattern in summary:
            if pattern.positive:
                assert set(pattern.positive.pattern.attributes) <= allowed
            if pattern.negative:
                assert set(pattern.negative.pattern.attributes) <= allowed

    def test_positive_negative_signs(self, summary):
        for pattern in summary:
            if pattern.positive:
                assert pattern.positive.cate > 0
            if pattern.negative:
                assert pattern.negative.cate < 0

    def test_timings_recorded(self, summary):
        assert set(summary.timings) == {"grouping_patterns", "treatment_patterns",
                                        "selection"}
        assert all(v >= 0 for v in summary.timings.values())

    def test_qualitative_drivers_match_generator(self, summary):
        """Students / under-25 should appear among negative drivers somewhere."""
        negative_text = " ".join(repr(p.negative.pattern) for p in summary
                                 if p.negative is not None)
        assert ("Student" in negative_text) or ("Under 25" in negative_text) \
            or ("No degree" in negative_text) or ("55+" in negative_text)

    def test_sql_string_interface(self, so_bundle, fast_config):
        algorithm = CauSumX(so_bundle.table, so_bundle.dag, fast_config)
        summary = algorithm.explain(
            "SELECT Country, AVG(Salary) FROM SO GROUP BY Country",
            grouping_attributes=so_bundle.grouping_attributes,
            treatment_attributes=["Role", "Student"])
        assert len(summary) >= 1


class TestVariants:
    @pytest.fixture(scope="class")
    def bundle(self):
        return make_synthetic(n=300, n_grouping=2, n_treatment=2, seed=11)

    @pytest.fixture(scope="class")
    def tuned(self, bundle, fast_config):
        return fast_config.with_overrides(k=2, theta=0.5)

    def test_brute_force_runs_and_is_feasible(self, bundle, tuned):
        summary = brute_force(bundle.table, bundle.dag, tuned).explain(
            bundle.query, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert summary.feasible
        assert summary.coverage >= tuned.theta

    def test_brute_force_lp_runs(self, bundle, tuned):
        summary = brute_force_lp(bundle.table, bundle.dag, tuned).explain(
            bundle.query, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert len(summary) <= tuned.k

    def test_greedy_last_step_runs(self, bundle, tuned):
        summary = greedy_last_step(bundle.table, bundle.dag, tuned).explain(
            bundle.query, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert len(summary) <= tuned.k

    def test_brute_force_objective_at_least_causumx(self, bundle, tuned):
        """Brute-Force optimises exactly, so its objective dominates CauSumX's."""
        causumx = CauSumX(bundle.table, bundle.dag, tuned).explain(
            bundle.query, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        exact = brute_force(bundle.table, bundle.dag, tuned).explain(
            bundle.query, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert exact.total_explainability >= causumx.total_explainability - 1e-6 \
            or not causumx.feasible


class TestGermanNoFDs:
    def test_singleton_grouping_patterns_used(self, fast_config):
        bundle = make_german(n=500, seed=2)
        config = fast_config.with_overrides(k=4, theta=0.4,
                                            include_singleton_groups=True)
        summary = CauSumX(bundle.table, bundle.dag, config).explain(
            bundle.query, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert len(summary) >= 1
        # Every grouping pattern covers exactly one purpose (no FDs available).
        assert all(len(p.covered_groups) == 1 for p in summary)


class TestAutomaticAttributePartition:
    def test_explain_without_explicit_attribute_lists(self, so_bundle, fast_config):
        """The FD-based partition of Section 4.1 is applied automatically."""
        config = fast_config.with_overrides(k=2, theta=0.5)
        algorithm = CauSumX(so_bundle.table, so_bundle.dag, config)
        summary = algorithm.explain(so_bundle.query)
        assert len(summary) >= 1
        for pattern in summary:
            # Grouping attributes must be functionally determined by Country.
            assert "Country" not in pattern.grouping_pattern.attributes
            assert "Salary" not in pattern.grouping_pattern.attributes

    @pytest.mark.parametrize("given", [(True, True), (True, False),
                                       (False, True), (False, False)])
    def test_partition_runs_only_for_a_missing_list(self, so_bundle, fast_config,
                                                     monkeypatch, given):
        """Explicit lists overrule the partition, so it is not computed."""
        calls = []

        def partition(*args):
            calls.append(args)
            if all(given):
                raise AssertionError("partition computed for explicit lists")
            return grouping_attribute_partition(*args)

        monkeypatch.setattr(causumx, "grouping_attribute_partition", partition)
        give_grouping, give_treatment = given
        CauSumX(so_bundle.table, so_bundle.dag,
                fast_config.with_overrides(k=2, theta=0.5)).explain(
            so_bundle.query,
            grouping_attributes=so_bundle.grouping_attributes
            if give_grouping else None,
            treatment_attributes=so_bundle.treatment_attributes
            if give_treatment else None)
        assert len(calls) == (0 if all(given) else 1)


class TestOutcomeIsNeverATreatment:
    def test_explicit_lists_drop_the_outcome(self):
        """Listing the averaged attribute must not mine ``Severity = v`` as a
        treatment for mean Severity (a CATE of about ±1 by construction)."""
        bundle = make_accidents(n=3000, seed=0)
        sql = ("SELECT Weather, AVG(Severity) FROM accidents "
               "GROUP BY Weather")
        algorithm = CauSumX(bundle.table, bundle.dag)
        summary = algorithm.explain(sql, ["Region", "Severity"], ["Severity"])
        for pattern in summary:
            assert "Severity" not in pattern.grouping_pattern.attributes
            assert not pattern.has_treatment()
        with_outcome = algorithm.explain(
            sql, ["Region"], ["Severity", "RoadType", "Daylight"])
        without = algorithm.explain(sql, ["Region"], ["RoadType", "Daylight"])
        assert repr(with_outcome.patterns) == repr(without.patterns)
