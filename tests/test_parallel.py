"""Tests for per-shard execution over stored datasets.

The load-bearing property is that a :class:`ShardedTable` — a sharded scan,
a planned scan, a lazy column decode, an aggregate view, a whole
explanation — answers exactly like the in-memory table it was written from.
On top of that, clustered compaction commits per-shard group-by partials
that answer no-WHERE group-bys from the manifest without opening a single
shard archive, and concurrent select/append/compact stays lock-order safe.
"""

from __future__ import annotations

import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lockwatch
from repro.dataframe import MaskCache, Op, Pattern, Predicate, Table
from repro.parallel import GLOBAL_PARALLEL_STATS, map_morsels
from repro.plan import GLOBAL_PLANNER_STATS, oracle_mode
from repro.service import ExplanationEngine
from repro.sql import AggregateView, parse_query
from repro.storage import DatasetStore, StoredDataset


def _people(n: int, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    countries = ["US", "DE", "FR", "JP", None]
    roles = ["eng", "mgr", "ops"]
    return Table.from_columns({
        "Country": [countries[i] for i in rng.integers(0, len(countries), n)],
        "Role": [roles[i] for i in rng.integers(0, len(roles), n)],
        "Age": np.where(rng.random(n) < 0.1, np.nan,
                        rng.integers(20, 70, n).astype(float)),
        # Integer-valued outcome: partial sums are exact in float64, so
        # partial-served averages can be compared with == against the
        # legacy whole-table group scan.
        "Salary": rng.integers(30, 200, n).astype(float),
        "allmiss": [None] * n,
    }, name="people")


# ------------------------------------------------------------- per-shard loop


class TestMorselPool:
    def test_map_morsels_preserves_input_order(self):
        assert map_morsels(lambda x: x * x, range(20)) == \
            [x * x for x in range(20)]

    def test_exceptions_propagate_in_input_order(self):
        def explode(x):
            if x % 3 == 1:
                raise ValueError(f"boom {x}")
            return x

        with pytest.raises(ValueError, match="boom 1"):
            map_morsels(explode, range(12))

    def test_stats_accounting(self):
        GLOBAL_PARALLEL_STATS.reset()
        map_morsels(lambda x: x, range(4))
        map_morsels(lambda x: x, range(5))
        snapshot = GLOBAL_PARALLEL_STATS.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["morsels"] == 9


# ------------------------------------------------------ sharded == in-memory


def _random_table(rng, n: int) -> Table:
    cats = ["a", "b", "c", None]
    return Table.from_columns({
        "cat": [cats[i] for i in rng.integers(0, len(cats), n)],
        "num": np.where(rng.random(n) < 0.25, np.nan,
                        rng.integers(-4, 5, n).astype(float)),
        "allmiss": [None] * n,
    }, name="random")


def _random_pattern(data) -> Pattern:
    predicates = []
    for _ in range(data.draw(st.integers(0, 3), label="n_predicates")):
        kind = data.draw(st.sampled_from(["cat", "num", "allmiss", "nomatch"]))
        if kind == "cat":
            predicates.append(Predicate(
                "cat", data.draw(st.sampled_from([Op.EQ, Op.NE])),
                data.draw(st.sampled_from(["a", "b", "zz"]))))
        elif kind == "allmiss":
            predicates.append(Predicate(
                "allmiss", data.draw(st.sampled_from(list(Op))), "a"))
        elif kind == "nomatch":
            # Empty-survivor case: no shard can match, every shard skips.
            predicates.append(Predicate("cat", Op.EQ, "absent-everywhere"))
        else:
            predicates.append(Predicate(
                "num", data.draw(st.sampled_from(list(Op))),
                data.draw(st.sampled_from([-4.5, 0.0, 2.5, float("nan")]))))
    return Pattern(predicates)


class TestWorkerInvariance:
    """A :class:`ShardedTable` answers exactly like the in-memory table."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_sharded_select_identical_across_widths(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(5, 80)))
        pattern = _random_pattern(data)
        # shard_rows >= n gives the single-shard case.
        shard_rows = data.draw(st.integers(3, 100), label="shard_rows")
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=shard_rows)
            planned = dataset.load_table().select(pattern)
            with oracle_mode():
                oracle = dataset.load_table().select(pattern)
        assert planned == oracle
        assert oracle == table.select(pattern)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_lazy_column_decode_identical_across_widths(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(10, 60)))
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=7)
            assert dataset.load_table() == table

    def test_view_identical_across_widths(self):
        table = _people(400)
        query = parse_query("SELECT Country, AVG(Salary) FROM people "
                            "GROUP BY Country")
        in_memory = AggregateView(table, query)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=37)
            view = AggregateView(dataset.load_table(), query)
            assert view.served_from_partials
            assert view.groups == in_memory.groups
            assert view.group_weights() == in_memory.group_weights()


class TestMiningWidthInvariance:
    """Mining over a sharded table serializes byte-identically to mining
    over the in-memory table it was written from."""

    @staticmethod
    def _sharded(tmp, bundle):
        return StoredDataset.create(f"{tmp}/d", "d", bundle.table,
                                    shard_rows=97).load_table()

    def test_explain_summary_identical_across_widths(self, so_bundle,
                                                     fast_config):
        import json

        from repro.core import CauSumX, summary_to_dict

        query = parse_query("SELECT Country, AVG(Salary) FROM SO "
                            "GROUP BY Country")

        def payload(table):
            summary = CauSumX(table, so_bundle.dag, fast_config).explain(
                query,
                grouping_attributes=so_bundle.grouping_attributes,
                treatment_attributes=so_bundle.treatment_attributes)
            result = summary_to_dict(summary)
            result.pop("timings", None)
            return json.dumps(result, sort_keys=True, default=str)

        with tempfile.TemporaryDirectory() as tmp:
            sharded = payload(self._sharded(tmp, so_bundle))
        assert sharded == payload(so_bundle.table)

    def test_estimate_many_identical_across_widths(self, so_bundle):
        import dataclasses
        import json

        from repro.causal import CATEEstimator

        def canon(table):
            estimator = CATEEstimator(table, "Salary", dag=so_bundle.dag,
                                      min_group_size=5)
            estimates = estimator.estimate_many(treatments, subpopulation)
            # json keeps NaN as a literal, so undefined estimates compare
            # equal (dataclass == would fail on NaN != NaN).
            return json.dumps([dataclasses.asdict(e) for e in estimates],
                              sort_keys=True, default=str)

        table = so_bundle.table
        treatments = [Pattern.of((attr, "==", value))
                      for attr in so_bundle.treatment_attributes
                      for value in table.domain(attr)[:3]]
        subpopulation = Pattern.of(("Country", "==", table.domain("Country")[0]))
        with tempfile.TemporaryDirectory() as tmp:
            sharded = canon(self._sharded(tmp, so_bundle))
        assert sharded == canon(table)


# ------------------------------------------------------------- store-code memo


class TestStoreCodeMemo:
    def test_repeated_predicates_hit_the_memo(self):
        table = _people(300)
        pattern = Pattern.of(("Country", "==", "US"), ("Role", "!=", "mgr"))
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=50)
            loaded = dataset.load_table()
            cache = MaskCache(loaded)
            before = GLOBAL_PLANNER_STATS.snapshot()
            cold, _ = loaded.plan_shard_select(pattern, mask_cache=cache)
            mid = GLOBAL_PLANNER_STATS.snapshot()
            warm, _ = loaded.plan_shard_select(pattern, mask_cache=cache)
            after = GLOBAL_PLANNER_STATS.snapshot()
        assert cold == warm
        cold_lookups = mid["store_code_lookups"] - before["store_code_lookups"]
        cold_cached = mid["store_code_cached"] - before["store_code_cached"]
        warm_lookups = after["store_code_lookups"] - mid["store_code_lookups"]
        warm_cached = after["store_code_cached"] - mid["store_code_cached"]
        assert cold_lookups == 2 and cold_cached == 0
        assert warm_lookups == 2 and warm_cached == 2

    def test_memo_disabled_without_cache(self):
        table = _people(100)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=30)
            loaded = dataset.load_table()
            before = GLOBAL_PLANNER_STATS.snapshot()
            loaded.plan_shard_select(Predicate("Country", Op.EQ, "US"))
            loaded.plan_shard_select(Predicate("Country", Op.EQ, "US"))
            after = GLOBAL_PLANNER_STATS.snapshot()
        assert after["store_code_lookups"] - \
            before["store_code_lookups"] == 2
        assert after["store_code_cached"] == before["store_code_cached"]


# ------------------------------------------------------------------- partials


class TestGroupByPartials:
    def test_clustered_compaction_serves_from_manifest(self):
        table = _people(500)
        query = parse_query("SELECT Country, AVG(Salary) FROM people "
                            "GROUP BY Country")
        in_memory = AggregateView(table, query)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=60)
            result = store.compact("people", cluster_by="Country")
            assert result["partial_groups"] > 0
            loaded = store.dataset("people").load_table()
            view = AggregateView(loaded, query)
            assert view.served_from_partials
            assert view.groups == in_memory.groups
            scan = loaded.scan_stats()
            # The whole answer came from manifest arithmetic: no shard
            # archive was ever opened, no row was read.
            assert scan["partials_served"] == 1
            assert scan["shards_open"] == 0

    def test_numeric_cluster_key_commits_no_partials(self):
        table = _people(200)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=50)
            result = store.compact("people", cluster_by="Salary")
            assert result["partial_groups"] == 0
            loaded = store.dataset("people").load_table()
            assert loaded._manifest.shards[0].group_partials is None

    def test_runtime_partials_match_manifest_partials(self):
        table = _people(300, seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=40)
            runtime = store.dataset("people").load_table() \
                .shard_groupby_partials(("Country",), "Salary")
            store.compact("people", cluster_by="Country")
            committed = store.dataset("people").load_table() \
                .shard_groupby_partials(("Country",), "Salary")
        # Clustering reorders rows, hence groups; the merged per-group
        # quantities are identical.
        assert sorted(runtime, key=repr) == sorted(committed, key=repr)

    def test_partials_refuse_inapplicable_queries(self):
        table = _people(100)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=30)
            loaded = dataset.load_table()
            assert loaded.shard_groupby_partials(("Age",), "Salary") is None
            assert loaded.shard_groupby_partials(("Country",), "Role") is None
            assert loaded.shard_groupby_partials((), "Salary") is None

    def test_where_clause_bypasses_partials(self):
        table = _people(200)
        query = parse_query("SELECT Country, AVG(Salary) FROM people "
                            "WHERE Role = 'eng' GROUP BY Country")
        in_memory = AggregateView(table, query)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=30)
            view = AggregateView(dataset.load_table(), query)
            assert not view.served_from_partials
            assert view.groups == in_memory.groups

    def test_engine_stats_surface_parallel_counters(self):
        stats = ExplanationEngine().stats()
        assert set(stats["parallel"]) == {"batches", "morsels",
                                          "partials_served"}


# ------------------------------------------------------------------ lockwatch


@pytest.fixture()
def watch():
    """Enabled lockwatch with a clean registry; always restored."""
    registry = lockwatch.enable()
    registry.reset()
    yield registry
    registry.reset()
    lockwatch.disable()


class TestConcurrencyLockOrder:
    def test_concurrent_select_append_compact_acyclic(self, watch, tmp_path):
        table = _people(240, seed=5)
        dataset = StoredDataset.create(tmp_path / "d", "d", table,
                                       shard_rows=40)
        pattern = Pattern.of(("Country", "==", "US"))
        batch = _people(40, seed=6)
        errors: list[BaseException] = []
        start = threading.Barrier(3)

        def scan():
            try:
                start.wait(timeout=30)
                for _ in range(5):
                    loaded = dataset.load_table()
                    loaded.select(pattern)
                    loaded.shard_groupby_partials(("Country",), "Salary")
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def append():
            try:
                start.wait(timeout=30)
                for _ in range(3):
                    dataset.append(batch)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def compact():
            try:
                start.wait(timeout=30)
                for _ in range(2):
                    dataset.compact(cluster_by="Country")
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=fn)
                   for fn in (scan, append, compact)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        watch.assert_acyclic()
        assert watch.violations == []
