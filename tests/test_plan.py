"""Tests for the unified query-plan IR (``repro.plan``) — ISSUE 5.

The load-bearing property is *semantic transparency*: planned execution
(conjunct reordering, short-circuit AND, statistics-based shard skips,
stats-deferred lattice atoms) must return exactly what the pre-planner
oracle paths return, on every table shape the paper's workload can produce —
all-missing columns, single-value columns, NaN histogram boundaries, empty
WHERE clauses included.  The oracle stays reachable through
``repro.plan.oracle_mode``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CauSumX, CauSumXConfig, summary_to_dict
from repro.dataframe import MaskCache, Op, Pattern, Predicate, Table
from repro.datasets import load_dataset
from repro.mining.lattice import PatternLattice
from repro.mining.treatments import TreatmentMinerConfig
from repro.plan import (
    CategoricalColumnStats,
    NumericColumnStats,
    lower_query,
    merge_column_stats,
    oracle_mode,
    plan_scan,
    planned_select,
    planned_select_with_plan,
    planner_enabled,
    stats_from_dict,
    stats_to_dict,
    table_stats,
)
from repro.service import ExplanationEngine
from repro.service.server import handle_request
from repro.sql import AggregateView, parse_query, query_fingerprint
from repro.storage import DatasetStore, StoredDataset


@pytest.fixture
def store(tmp_path):
    return DatasetStore.init(tmp_path / "store")


def _skewed_table(n: int = 2000, seed: int = 0) -> Table:
    """Columns with very different selectivities under the test predicates."""
    rng = np.random.default_rng(seed)
    return Table.from_columns({
        "broad": [["x", "y"][i] for i in rng.integers(0, 2, n)],
        "narrow": [f"v{i}" for i in rng.integers(0, 50, n)],
        "num": np.where(rng.random(n) < 0.1, np.nan,
                        rng.normal(0, 10, n)),
    }, name="skewed")


# ---------------------------------------------------------------------- IR


class TestLogicalPlan:
    def test_lowering_structure(self):
        query = parse_query("SELECT b, a, AVG(y) FROM T "
                            "WHERE c = 'x' AND d > 3 GROUP BY b, a")
        plan = lower_query(query)
        assert plan.group_by == ("a", "b")          # canonical: sorted
        assert plan.average == "y"
        assert plan.table_name == "T"
        assert [p.attribute for p in plan.conjuncts] == ["c", "d"]
        rendered = plan.render()
        assert "Explain" in rendered and "GroupBy" in rendered
        assert "Filter" in rendered and "Scan(T)" in rendered

    def test_equivalent_spellings_share_a_plan(self):
        a = parse_query("SELECT g, h, AVG(y) FROM T "
                        "WHERE x = 1 AND z = 'u' GROUP BY g, h")
        b = parse_query("SELECT h, g, AVG(y) FROM T "
                        "WHERE z = 'u' AND x = 1.0 GROUP BY h, g")
        assert lower_query(a) == lower_query(b)
        assert lower_query(a).fingerprint == lower_query(b).fingerprint

    def test_fingerprint_is_the_query_fingerprint(self):
        query = parse_query("SELECT g, AVG(y) FROM T WHERE x > 2 GROUP BY g")
        assert lower_query(query).fingerprint == query_fingerprint(query)

    def test_fingerprint_distinguishes_filters(self):
        base = "SELECT g, AVG(y) FROM T {} GROUP BY g"
        plans = {lower_query(parse_query(base.format(w))).fingerprint
                 for w in ("", "WHERE x = 1", "WHERE x = '1'", "WHERE x > 1")}
        assert len(plans) == 4

    def test_where_key_hashable_and_type_aware(self):
        one = lower_query(parse_query(
            "SELECT g, AVG(y) FROM T WHERE x = 1 GROUP BY g"))
        other = lower_query(parse_query(
            "SELECT g, AVG(y) FROM T WHERE x = '1' GROUP BY g"))
        assert hash(one.where_key) != hash(other.where_key) or \
            one.where_key != other.where_key


# ---------------------------------------------------------------------- statistics


class TestColumnStats:
    def test_numeric_histogram_excludes_missing(self):
        stats = NumericColumnStats.from_values(
            np.array([1.0, 2.0, np.nan, 3.0, np.nan]))
        assert stats.n == 5 and stats.n_missing == 2
        assert stats.minimum == 1.0 and stats.maximum == 3.0
        assert sum(stats.counts) == 3

    def test_all_missing_numeric(self):
        stats = NumericColumnStats.from_values(np.array([np.nan, np.nan]))
        assert stats.minimum is None
        assert stats.selectivity(Op.LE, 10.0) == 0.0

    def test_single_value_column_estimates_high(self):
        stats = NumericColumnStats.from_values(np.full(100, 7.0))
        assert stats.selectivity(Op.EQ, 7.0) == pytest.approx(1.0)
        assert stats.selectivity(Op.EQ, 8.0) == 0.0
        assert stats.selectivity(Op.GE, 7.0) == pytest.approx(1.0)

    def test_selectivity_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        stats = NumericColumnStats.from_values(rng.normal(0, 1, 5000))
        previous = 0.0
        for x in np.linspace(-4, 4, 30):
            sel = stats.selectivity(Op.LE, float(x))
            assert 0.0 <= sel <= 1.0
            assert sel >= previous - 1e-12
            previous = sel

    def test_nan_target_matches_nothing(self):
        stats = NumericColumnStats.from_values(np.arange(10.0))
        assert stats.selectivity(Op.LE, float("nan")) == 0.0

    def test_categorical_full_counts_are_exact(self):
        codes = np.array([0, 0, 1, 2, 2, 2, -1], dtype=np.int32)
        stats = CategoricalColumnStats.from_codes(codes)
        assert stats.exact and stats.n_missing == 1
        assert stats.exact_rows_for_code(2) == 3
        assert stats.exact_rows_for_code(5) == 0   # absent code: provably zero

    def test_categorical_top_k_keeps_other_mass(self):
        codes = np.repeat(np.arange(10, dtype=np.int32), 5)
        stats = CategoricalColumnStats.from_codes(codes, top_k=3)
        assert not stats.exact
        assert len(stats.counts) == 3 and stats.other == 35
        assert stats.exact_rows_for_code(9) is None  # not provable any more

    def test_manifest_codec_round_trip(self):
        numeric = NumericColumnStats.from_values(np.array([1.0, 4.0, 9.0]))
        cat = CategoricalColumnStats.from_codes(
            np.array([0, 1, 1, -1], dtype=np.int32))
        for stats in (numeric, cat):
            assert stats_from_dict(stats_to_dict(stats)) == stats
        assert stats_from_dict(None) is None
        assert stats_from_dict({}) is None

    def test_merge_matches_combined_build(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(0, 1, 400), rng.normal(3, 1, 300)
        merged = merge_column_stats([NumericColumnStats.from_values(a),
                                     NumericColumnStats.from_values(b)])
        combined = NumericColumnStats.from_values(np.concatenate([a, b]))
        assert merged.n == combined.n and merged.minimum == combined.minimum
        for x in (-1.0, 0.5, 2.0, 3.5):
            assert merged.selectivity(Op.LE, x) == pytest.approx(
                combined.selectivity(Op.LE, x), abs=0.05)

    def test_shard_stats_may_match_is_conservative(self):
        codes = np.array([0, 0, 1, -1], dtype=np.int32)
        spec = stats_to_dict(CategoricalColumnStats.from_codes(codes))
        from repro.plan import shard_stats_may_match

        vocab = ["x", "y", "z"]
        assert shard_stats_may_match(spec, Predicate("c", Op.EQ, "x"), vocab)
        assert not shard_stats_may_match(spec, Predicate("c", Op.EQ, "z"),
                                         vocab)  # count provably zero
        assert not shard_stats_may_match(spec, Predicate("c", Op.EQ, "nope"),
                                         vocab)  # absent from the vocabulary
        assert shard_stats_may_match(None, Predicate("c", Op.EQ, "z"), vocab)
        assert shard_stats_may_match({}, Predicate("c", Op.EQ, "z"), vocab)

    def test_legacy_manifest_estimates_conservatively_without_decoding(
            self, store):
        table = _skewed_table(n=400, seed=9)
        dataset = store.import_table("legacy", table, shard_rows=100)
        # Simulate a pre-planner manifest: strip the committed statistics.
        for shard in dataset.manifest.shards:
            shard.column_stats = {}
        loaded = dataset.load_table()
        stats = table_stats(loaded)
        pred = Predicate("narrow", Op.EQ, "v7")
        assert stats.column("narrow") is None
        assert stats.selectivity(pred) == 1.0      # conservative, and...
        assert not any(column.materialized         # ...no shard was decoded
                       for column in loaded.columns())
        with oracle_mode():
            expected = dataset.load_table().select(Pattern([pred]))
        assert loaded.select(Pattern([pred])) == expected

    def test_exact_support_from_table_stats(self):
        table = Table.from_columns({"c": ["a"] * 7 + ["b"] * 3 + [None]})
        stats = table_stats(table)
        assert stats.exact_support(Predicate("c", Op.EQ, "a")) == 7
        assert stats.exact_support(Predicate("c", Op.NE, "a")) == 3
        assert stats.exact_support(Predicate("c", Op.EQ, "zz")) == 0
        # Missing rows satisfy neither EQ nor NE.
        assert stats.exact_support(Predicate("c", Op.NE, "zz")) == 10


# ---------------------------------------------------------------------- planner


class TestPlanner:
    def test_most_selective_cheap_predicate_first(self):
        table = _skewed_table()
        pattern = Pattern.of(("broad", "==", "x"), ("narrow", "==", "v7"),
                             ("num", "<=", 25.0))
        plan = plan_scan(table, pattern)
        assert plan.reordered
        assert plan.conjuncts[0].predicate.attribute == "narrow"
        ranks = [c.rank for c in plan.conjuncts]
        assert ranks == sorted(ranks)

    def test_planning_is_deterministic(self):
        table = _skewed_table()
        pattern = Pattern.of(("broad", "==", "x"), ("num", ">", 0.0))
        first = [repr(c.predicate) for c in plan_scan(table, pattern).conjuncts]
        second = [repr(c.predicate) for c in plan_scan(table, pattern).conjuncts]
        assert first == second

    def test_executor_records_actuals(self):
        table = _skewed_table()
        pattern = Pattern.of(("broad", "==", "x"), ("narrow", "==", "v7"))
        _, plan = planned_select_with_plan(table, pattern)
        for conjunct in plan.conjuncts:
            assert conjunct.actual_selectivity is not None
            assert 0.0 <= conjunct.actual_selectivity <= 1.0
        assert plan.rows_in == table.n_rows
        assert plan.rows_out == int(pattern.evaluate(table).sum())


# ---------------------------------------------------------------------- planned == oracle


def _random_table(rng, n: int) -> Table:
    cats = ["a", "b", "c", None]
    return Table.from_columns({
        "cat": [cats[i] for i in rng.integers(0, len(cats), n)],
        "num": np.where(rng.random(n) < 0.25, np.nan,
                        rng.integers(-4, 5, n).astype(float)),
        "single": ["only"] * n,
        "allmiss": [None] * n,
    }, name="random")


def _random_pattern(data, rng, table) -> Pattern:
    predicates = []
    for _ in range(data.draw(st.integers(0, 3), label="n_predicates")):
        kind = data.draw(st.sampled_from(
            ["cat", "num", "single", "allmiss", "num_boundary"]))
        if kind == "cat":
            predicates.append(Predicate(
                "cat", data.draw(st.sampled_from([Op.EQ, Op.NE])),
                data.draw(st.sampled_from(["a", "b", "c", "zz"]))))
        elif kind == "single":
            predicates.append(Predicate(
                "single", data.draw(st.sampled_from([Op.EQ, Op.NE])),
                data.draw(st.sampled_from(["only", "other"]))))
        elif kind == "allmiss":
            predicates.append(Predicate(
                "allmiss", data.draw(st.sampled_from(list(Op))), "a"))
        else:
            column = table.column("num")
            # An all-NaN draw makes the column categorical (no type info);
            # numeric targets still parity-test fine against it.
            values = column.values if column.numeric else np.array([])
            present = values[~np.isnan(values)] if values.size else values
            if kind == "num_boundary" and present.size:
                # Exact data values: histogram bucket edges, min, and max.
                target = float(data.draw(st.sampled_from(
                    sorted({float(v) for v in present}))))
            else:
                target = data.draw(st.sampled_from(
                    [-4.5, -1.0, 0.0, 2.5, 4.0, float("nan")]))
            predicates.append(Predicate(
                "num", data.draw(st.sampled_from(list(Op))), target))
    return Pattern(predicates)


class TestPlannedEqualsOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_planned_select_equals_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(1, 80)))
        pattern = _random_pattern(data, rng, table)
        planned = planned_select(table, pattern)
        with oracle_mode():
            oracle = table.select(pattern)
        assert planned == oracle

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_mask_cache_routing_equals_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(1, 60)))
        pattern = _random_pattern(data, rng, table)
        cache = MaskCache(table)
        first = planned_select(table, pattern, mask_cache=cache)
        second = planned_select(table, pattern, mask_cache=cache)  # warm
        with oracle_mode():
            oracle = table.select(pattern)
        assert first == oracle and second == oracle

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_sharded_planned_select_equals_oracle(self, data):
        import tempfile

        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(5, 80)))
        pattern = _random_pattern(data, rng, table)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(
                f"{tmp}/d", "d", table,
                shard_rows=data.draw(st.integers(3, 30)))
            planned = dataset.load_table().select(pattern)
            with oracle_mode():
                oracle = dataset.load_table().select(pattern)
            assert planned == oracle

    def test_aggregate_view_equals_oracle_view(self):
        bundle = load_dataset("stackoverflow", n=800, seed=0)
        query = parse_query(
            "SELECT Country, AVG(Salary) FROM SO "
            "WHERE Gender = 'Male' AND Continent != 'Asia' GROUP BY Country")
        planned = AggregateView(bundle.table, query)
        with oracle_mode():
            oracle = AggregateView(bundle.table, query)
        assert planned.groups == oracle.groups
        assert planned.table == oracle.table
        assert planned.scan_plan is not None and oracle.scan_plan is None

    def test_stackoverflow_summary_byte_identical_to_oracle(self):
        bundle = load_dataset("stackoverflow", n=600, seed=0)
        config = CauSumXConfig(
            k=3, theta=0.6, sample_size=None, min_group_size=10,
            treatment=TreatmentMinerConfig(max_levels=1, min_group_size=10,
                                           max_values_per_attribute=6))
        query = ("SELECT Country, AVG(Salary) FROM SO "
                 "WHERE Continent != 'Oceania' GROUP BY Country")

        def run():
            return CauSumX(bundle.table, bundle.dag, config).explain(
                query, grouping_attributes=bundle.grouping_attributes,
                treatment_attributes=bundle.treatment_attributes)

        planned = summary_to_dict(run())
        with oracle_mode():
            oracle = summary_to_dict(run())
        planned.pop("timings", None), oracle.pop("timings", None)
        assert planned == oracle


# ---------------------------------------------------------------------- lattice


class TestLatticeStatsDeferral:
    def _table(self) -> Table:
        rng = np.random.default_rng(7)
        n = 300
        return Table.from_columns({
            "t": ["rare" if i % 30 == 0 else "hi" for i in range(n)],
            "many": rng.normal(0, 1, n),
            "y": rng.normal(0, 1, n),
        })

    def test_atoms_identical_to_oracle(self):
        table = self._table()
        kwargs = dict(max_values_per_attribute=5, numeric_bins=3,
                      min_support=15)
        planned = PatternLattice(table, ["t", "many"],
                                 mask_cache=MaskCache(table),
                                 **kwargs).atomic_predicates()
        with oracle_mode():
            oracle = PatternLattice(table, ["t", "many"],
                                    mask_cache=MaskCache(table),
                                    **kwargs).atomic_predicates()
        assert planned == oracle
        assert all(p.evaluate(table).sum() >= 15 for p in planned)

    def test_low_support_atoms_deferred_without_mask_evaluation(self):
        table = self._table()
        cache = MaskCache(table)
        atoms = PatternLattice(table, ["t"], mask_cache=cache,
                               min_support=15).atomic_predicates()
        assert {p.value for p in atoms} == {"hi"}   # "rare" deferred
        assert len(cache) == 0                      # and no mask was built


# ---------------------------------------------------------------------- staleness


class TestStatsFreshnessAfterAppend:
    def test_appended_shard_carries_fresh_statistics(self, store):
        table = Table.from_columns({
            "a": ["hot"] * 90 + ["cold"] * 10,
            "b": [f"u{i % 4}" for i in range(100)],
            "y": [float(i) for i in range(100)],
        })
        dataset = store.import_table("d", table, shard_rows=50)
        appended = Table.from_columns({
            "a": ["cold"] * 200,
            "b": ["u9"] * 200,
            "y": [0.0] * 200,
        })
        dataset.append(appended)
        shard = dataset.manifest.shards[-1]
        assert set(shard.column_stats) == {"a", "b", "y"}
        merged = dataset.load_table().plan_column_stats("a")
        # Merged estimates include the appended distribution: 'cold' went
        # from 10/100 rows to 210/300.
        loaded = dataset.load_table()
        code = loaded.column("a").vocab_code("cold")
        assert merged.counts[code] == 210

    def test_plan_order_adapts_to_distribution_shift(self, store):
        # Initially: a='rare' is highly selective, b='common' is not.
        table = Table.from_columns({
            "a": ["rare"] * 5 + ["base"] * 495,
            "b": ["common"] * 400 + ["other"] * 100,
            "y": [float(i) for i in range(500)],
        })
        dataset = store.import_table("shift", table, shard_rows=100)
        pattern = Pattern.of(("a", "==", "rare"), ("b", "==", "common"))
        loaded = dataset.load_table()
        before = plan_scan(loaded, pattern, stats=table_stats(loaded))
        assert before.conjuncts[0].predicate.attribute == "a"

        # Distribution shift: 'rare' floods in, 'common' disappears.
        dataset.append(Table.from_columns({
            "a": ["rare"] * 2000,
            "b": ["other"] * 2000,
            "y": [0.0] * 2000,
        }))
        dataset.reload()
        reloaded = dataset.load_table()
        after = plan_scan(reloaded, pattern, stats=table_stats(reloaded))
        assert after.conjuncts[0].predicate.attribute == "b"
        # And the planned scan still matches the oracle on the new data.
        with oracle_mode():
            oracle = dataset.load_table().select(pattern)
        assert reloaded.select(pattern) == oracle

    def test_engine_append_refreshes_in_memory_estimates(self):
        engine = ExplanationEngine()
        table = Table.from_columns({
            "g": [f"g{i % 3}" for i in range(300)],
            "a": ["rare"] * 3 + ["base"] * 297,
            "y": [float(i % 7) for i in range(300)],
        })
        engine.register_dataset("d", table)
        sql = "SELECT g, AVG(y) FROM d WHERE a = 'rare' GROUP BY g"
        first = engine.explain_plan("d", sql)
        est_before = first["scan"]["conjuncts"][0]["estimated_selectivity"]
        engine.append_rows("d", Table.from_columns({
            "g": ["g0"] * 700, "a": ["rare"] * 700, "y": [1.0] * 700}))
        second = engine.explain_plan("d", sql)
        est_after = second["scan"]["conjuncts"][0]["estimated_selectivity"]
        assert second["version"] == first["version"] + 1
        assert est_after > est_before  # estimates rebuilt on the new version


# ---------------------------------------------------------------------- compaction


class TestCompaction:
    def test_merges_undersized_shards_and_preserves_rows(self, store):
        table = _skewed_table(n=900, seed=2)
        dataset = store.import_table("c", table, shard_rows=90)
        assert len(dataset.manifest.shards) == 10
        result = dataset.compact(shard_rows=450)
        assert result["shards_after"] == 2
        assert result["version"] == 1
        dataset.verify()  # fresh fingerprints hold
        reloaded = dataset.load_table()
        assert reloaded.n_rows == table.n_rows
        assert reloaded.select(Pattern()) == table.select(Pattern())
        for shard in dataset.manifest.shards:
            assert shard.zone_maps and shard.column_stats

    def test_right_sized_shards_left_untouched(self, store):
        table = _skewed_table(n=600, seed=3)
        dataset = store.import_table("c", table, shard_rows=200)
        fingerprints = [s.fingerprint for s in dataset.manifest.shards]
        result = dataset.compact()  # every shard is already at the target
        assert result["rewritten"] == 0
        assert [s.fingerprint for s in dataset.manifest.shards] == fingerprints
        assert result["version"] == 0  # no-op: no version churn

    def test_cluster_by_improves_pruning(self, store):
        rng = np.random.default_rng(4)
        n = 2000
        table = Table.from_columns({
            "tenant": [f"t{i}" for i in rng.integers(0, 8, n)],
            "y": rng.normal(0, 1, n),
        })
        dataset = store.import_table("c", table, shard_rows=250)
        pattern = Pattern.of(("tenant", "==", "t3"))
        unclustered = dataset.load_table()
        with oracle_mode():
            expected = unclustered.select(pattern)
        result = dataset.compact(cluster_by="tenant", shard_rows=250)
        assert result["cluster_by"] == "tenant"
        dataset.reload()
        clustered = dataset.load_table()
        selected = clustered.select(pattern)
        assert selected.n_rows == expected.n_rows
        assert sorted(selected.column("y").values.tolist()) == \
            sorted(expected.column("y").values.tolist())
        stats = clustered.scan_stats()
        assert stats["shards_skipped"] >= 5  # zone maps now prove most shards

    def test_cluster_by_unknown_attribute_rejected(self, store):
        dataset = store.import_table("c", _skewed_table(n=50), shard_rows=10)
        from repro.storage import StorageError

        with pytest.raises(StorageError):
            dataset.compact(cluster_by="nope")

    def test_non_positive_sizes_rejected(self, store):
        dataset = store.import_table("c", _skewed_table(n=50), shard_rows=10)
        from repro.storage import StorageError

        with pytest.raises(StorageError, match="shard_rows"):
            dataset.compact(shard_rows=0)
        with pytest.raises(StorageError, match="min_rows"):
            dataset.compact(min_rows=-1)

    def test_append_after_compact_never_reuses_shard_names(self, store):
        table = _skewed_table(n=400, seed=5)
        dataset = store.import_table("c", table, shard_rows=50)
        dataset.compact(shard_rows=400)
        batch = _skewed_table(n=40, seed=6)
        dataset.append(batch)
        names = [s.shard_id for s in dataset.manifest.shards]
        assert len(names) == len(set(names))
        dataset.verify()
        assert dataset.load_table().n_rows == 440

    def test_store_level_compact_and_cli(self, store, capsys):
        from repro.cli import main

        table = _skewed_table(n=300, seed=7)
        store.import_table("c", table, shard_rows=30)
        code = main(["store", "compact", str(store.root), "c",
                     "--shard-rows", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compacted 'c'" in out and "-> 2" in out


# ---------------------------------------------------------------------- engine & ops


class TestEngineIntegration:
    @pytest.fixture
    def engine(self):
        engine = ExplanationEngine()
        bundle = load_dataset("stackoverflow", n=400, seed=0)
        engine.register_dataset("so", bundle.table, dag=bundle.dag,
                                grouping_attributes=bundle.grouping_attributes,
                                treatment_attributes=bundle.treatment_attributes)
        return engine

    def test_explain_plan_reports_estimates_and_actuals(self, engine):
        report = engine.explain_plan(
            "so", "SELECT Country, AVG(Salary) FROM SO "
                  "WHERE Gender = 'Male' AND Continent != 'Asia' "
                  "GROUP BY Country")
        assert report["planner_enabled"] is planner_enabled()
        assert "Scan(" in report["logical_plan"]
        conjuncts = report["scan"]["conjuncts"]
        assert len(conjuncts) == 2
        for conjunct in conjuncts:
            assert 0.0 <= conjunct["estimated_selectivity"] <= 1.0
            assert conjunct["actual_selectivity"] is not None
        assert report["rows"]["filtered"] <= report["rows"]["table"]

    def test_explain_plan_reexecutes_views_cached_under_oracle_mode(
            self, engine):
        sql = ("SELECT Country, AVG(Salary) FROM SO "
               "WHERE Gender = 'Male' GROUP BY Country")
        with oracle_mode():
            engine.explain_plan("so", sql)  # caches a plan-less oracle view
        report = engine.explain_plan("so", sql)
        assert report["planner_enabled"] is True
        assert report["scan"] is not None  # re-executed, not served stale
        assert report["scan"]["conjuncts"][0]["actual_selectivity"] is not None

    def test_explain_plan_op_over_the_protocol(self, engine):
        response = handle_request(
            engine, "so",
            '{"op": "explain_plan", "query": "SELECT Country, AVG(Salary) '
            "FROM SO WHERE Gender = 'Male' GROUP BY Country\", \"id\": 4}")
        assert response["ok"] and response["id"] == 4
        assert response["result"]["scan"]["conjuncts"]

    def test_stats_surface_planner_section(self, engine):
        engine.explain_plan(
            "so", "SELECT Country, AVG(Salary) FROM SO "
                  "WHERE Gender = 'Male' GROUP BY Country")
        planner = engine.stats()["planner"]
        assert planner["enabled"] is True
        assert planner["plans"] >= 1
        assert "shards_zone_map_skipped" in planner
        assert "so" in planner["where_mask_caches"]

    def test_where_mask_cache_shared_across_queries(self, engine):
        for group_by in ("Country", "Continent"):
            engine.explain_plan(
                "so", f"SELECT {group_by}, AVG(Salary) FROM SO "
                      "WHERE Gender = 'Male' GROUP BY " + group_by)
        caches = engine.stats()["planner"]["where_mask_caches"]
        assert caches["so"]["hits"] >= 1  # second query reused the mask

    def test_plan_fingerprints_dedupe_spellings(self, engine):
        spellings = [
            "SELECT Country, AVG(Salary) FROM SO "
            "WHERE Gender = 'Male' AND Student = 'No' GROUP BY Country",
            "SELECT Country, AVG(Salary) FROM SO "
            "WHERE Student = 'No' AND Gender = 'Male' GROUP BY Country",
        ]
        first = engine.explain("so", spellings[0])
        second = engine.explain("so", spellings[1])
        assert first is second            # one cached summary for both
        assert engine.computations == 1


class TestPlanCLI:
    def test_plan_command_prints_schedule(self, capsys):
        from repro.cli import main

        code = main(["plan", "--dataset", "stackoverflow", "--n", "300",
                     "--query",
                     "SELECT Country, AVG(Salary) FROM SO "
                     "WHERE Gender = 'Male' AND Continent != 'Asia' "
                     "GROUP BY Country"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Explain" in out and "scan (" in out and "est=" in out

    def test_plan_command_against_store(self, store, capsys):
        from repro.cli import main

        store.import_table("t", _skewed_table(n=200, seed=8), shard_rows=50)
        code = main(["plan", "--store", str(store.root),
                     "--query", "SELECT broad, AVG(num) FROM t "
                                "WHERE narrow = 'v7' GROUP BY broad"])
        assert code == 0
        assert "shards:" in capsys.readouterr().out
