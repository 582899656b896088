"""Tests for per-shard execution over stored datasets.

The load-bearing property is that a :class:`ShardedTable` — a sharded scan,
a planned scan, a lazy column decode, an aggregate view, a whole
explanation — answers exactly like the in-memory table it was written from,
bit for bit, with non-integer outcomes and after clustered compaction too.
Concurrent select/append/compact stays lock-order safe.
"""

from __future__ import annotations

import json
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lockwatch
from repro.core import CauSumX, summary_to_dict
from repro.dataframe import Op, Pattern, Predicate, Table
from repro.graph import CausalDAG
from repro.parallel import GLOBAL_PARALLEL_STATS, map_morsels
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
        # A non-integer outcome: float sums depend on the order they are
        # taken in, so only a group-by that sums exactly as the in-memory
        # view does compares equal bit for bit.
        "Salary": rng.normal(100, 30, n),
        "allmiss": [None] * n,
    }, name="people")


def _payload(summary) -> str:
    """A summary as canonical JSON, its run-dependent timings dropped."""
    result = summary_to_dict(summary)
    result.pop("timings", None)
    return json.dumps(result, sort_keys=True, default=str)


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
                "cat", data.draw(st.sampled_from(list(Op))),
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
            loaded = dataset.load_table()
            planned = loaded.select(pattern)
            full_masks = Table.select(loaded, pattern)  # no shard skipped
        assert planned == full_masks == table.select(pattern)

    @pytest.mark.parametrize("op", list(Op))
    def test_nan_literal_scan_matches_in_memory(self, op):
        # `x != NaN` holds for every present value; zone maps must not
        # prune it as unsatisfiable.
        table = _random_table(np.random.default_rng(0), 9)
        pattern = Pattern([Predicate("num", op, float("nan"))])
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=3)
            loaded = dataset.load_table()
            planned = loaded.select(pattern)
            full_masks = Table.select(loaded, pattern)  # no shard skipped
        assert planned == full_masks == table.select(pattern)

    def test_store_codes_resolved_once_per_scan(self, monkeypatch):
        from repro.storage import dataset as dataset_module

        lookups = []
        real = dataset_module.store_code
        monkeypatch.setattr(dataset_module, "store_code",
                            lambda value, vocab: lookups.append(value)
                            or real(value, vocab))
        table = _people(300)
        pattern = Pattern.of(("Country", "==", "US"), ("Role", "!=", "mgr"))
        with tempfile.TemporaryDirectory() as tmp:
            loaded = StoredDataset.create(f"{tmp}/d", "d", table,
                                          shard_rows=50).load_table()
            selected, plan = loaded.plan_shard_select(pattern)
        assert sorted(lookups) == ["US", "mgr"]  # not once per shard
        assert plan.shards_total == 6
        assert selected == table.select(pattern)

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
            assert _bits(view) == _bits(in_memory)
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
        query = parse_query("SELECT Country, AVG(Salary) FROM SO "
                            "GROUP BY Country")

        def payload(table):
            return _payload(CauSumX(table, so_bundle.dag, fast_config).explain(
                query,
                grouping_attributes=so_bundle.grouping_attributes,
                treatment_attributes=so_bundle.treatment_attributes))

        with tempfile.TemporaryDirectory() as tmp:
            sharded = payload(self._sharded(tmp, so_bundle))
        assert sharded == payload(so_bundle.table)

    def test_estimate_many_identical_across_widths(self, so_bundle):
        import dataclasses

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


# ------------------------------------------------------------------- group-by


def _bits(view: AggregateView) -> list:
    """The view's answer tuples with each average as its exact bits."""
    return [(g.key, g.average.hex(), g.size) for g in view.groups]


def _legacy_partials(shard: Table) -> dict:
    """A shard's ``group_partials`` manifest entry as older versions wrote
    it for a Country-clustered shard: per group, the row count plus each
    numeric column's valid count and sum."""
    index = shard.group_index(["Country"])
    rows_by_group = index.group_indices()
    outcomes = {}
    for attribute in ("Age", "Salary"):
        values = shard.column(attribute).values
        valid = [values[rows][~np.isnan(values[rows])] for rows in rows_by_group]
        outcomes[attribute] = {"valid": [int(v.size) for v in valid],
                               "sum": [float(v.sum()) for v in valid]}
    return {"by": "Country", "keys": [key[0] for key in index.keys],
            "sizes": [int(rows.size) for rows in rows_by_group],
            "outcomes": outcomes}


class TestGroupByPartials:
    """A no-WHERE group-by over a multi-shard store builds its groups from
    the rows, exactly as in memory: no per-shard partial aggregates are
    computed, committed, or read."""

    QUERY = "SELECT Country, AVG(Salary) FROM people GROUP BY Country"

    def test_unclustered_view_bit_identical_to_in_memory(self):
        table = _people(5000)
        in_memory = AggregateView(table, parse_query(self.QUERY))
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=37)
            view = AggregateView(dataset.load_table(),
                                 parse_query(self.QUERY))
            assert _bits(view) == _bits(in_memory)

    def test_clustered_view_bit_identical_to_in_memory(self):
        table = _people(5000)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=37)
            result = store.compact("people", cluster_by="Country")
            assert "partial_groups" not in result
            loaded = store.dataset("people").load_table()
            view = AggregateView(loaded, parse_query(self.QUERY))
            # Clustering reorders the rows; the reference is the in-memory
            # view over the rows in their stored order.
            in_memory = AggregateView(Table.select(loaded, Pattern()),
                                      parse_query(self.QUERY))
            assert _bits(view) == _bits(in_memory)

    def test_manifest_with_legacy_partials_opens_and_drops_them(
            self, fast_config):
        table = _people(2000, seed=4)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=37)
            store.compact("people", cluster_by="Country")
            # Rewrite the manifest as an older version committed it: every
            # shard carries group-by partials for the cluster key.
            stored = store.dataset("people")
            loaded = stored.load_table()
            path = stored.directory / "MANIFEST.json"
            spec = json.loads(path.read_text())
            start = 0
            for shard in spec["shards"]:
                stop = start + shard["n_rows"]
                shard["group_partials"] = _legacy_partials(
                    loaded.take(np.arange(start, stop)))
                start = stop
            path.write_text(json.dumps(spec))

            reopened = StoredDataset(stored.directory)
            rows = Table.select(reopened.load_table(), Pattern())
            view = AggregateView(reopened.load_table(),
                                 parse_query(self.QUERY))
            assert _bits(view) == _bits(
                AggregateView(rows, parse_query(self.QUERY)))

            dag = CausalDAG(edges=[("Country", "Salary"), ("Role", "Salary"),
                                   ("Age", "Salary")])
            store.register_entry("people", dag=dag, config=fast_config,
                                 grouping_attributes=["Country"],
                                 treatment_attributes=["Role", "Age"])
            engine = ExplanationEngine.from_store(DatasetStore(store.root))
            served = engine.explain("people", self.QUERY)
            reference = CauSumX(rows, dag, fast_config).explain(
                self.QUERY, grouping_attributes=["Country"],
                treatment_attributes=["Role", "Age"])
            assert _payload(served) == _payload(reference)

            # The next commit rewrites every shard entry without the key.
            reopened.append(_people(10, seed=5))
            committed = json.loads(path.read_text())
            assert not any("group_partials" in shard
                           for shard in committed["shards"])

    def test_numeric_cluster_key_commits_no_partials(self):
        table = _people(200)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=50)
            result = store.compact("people", cluster_by="Salary")
            assert "partial_groups" not in result
            manifest = json.loads(
                (store.dataset("people").directory / "MANIFEST.json")
                .read_text())
            assert not any("group_partials" in shard
                           for shard in manifest["shards"])

    def test_where_clause_bypasses_partials(self):
        table = _people(200)
        query = parse_query("SELECT Country, AVG(Salary) FROM people "
                            "WHERE Role = 'eng' GROUP BY Country")
        in_memory = AggregateView(table, query)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=30)
            view = AggregateView(dataset.load_table(), query)
            assert _bits(view) == _bits(in_memory)

    def test_engine_stats_surface_parallel_counters(self):
        stats = ExplanationEngine().stats()
        assert set(stats["parallel"]) == {"batches", "morsels"}


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
                    AggregateView(loaded, parse_query(
                        "SELECT Country, AVG(Salary) FROM d GROUP BY Country"))
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
