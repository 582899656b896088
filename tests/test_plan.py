"""Tests for query planning: a canonical query's keys and plan rendering,
and the WHERE scan (``repro.plan``).

The load-bearing property is *semantic transparency*: a WHERE scan (zone-map
shard skips, one mask AND, mask-cache routing) and the lattice's deferred
atoms must return exactly what the plain in-memory references return, on
every table shape the paper's workload can produce — all-missing columns,
single-value columns, NaN literals, ordered comparisons, empty WHERE clauses
included.  Scans compare against the in-memory ``Table.select``, views
against one built from its rows, and lattice atoms against a support filter
written here.
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
from repro.plan import planned_select_with_plan
from repro.service import ExplanationEngine
from repro.service.server import handle_request
from repro.sql import AggregateView, GroupByAvgQuery, normalize_query, parse_query
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


# ---------------------------------------------------------------------- keys


class TestLogicalPlan:
    """A query's keys and plan text are those of its canonical form."""

    def test_lowering_structure(self):
        query = parse_query("SELECT b, a, AVG(y) FROM T "
                            "WHERE d > 3 AND c = 'x' GROUP BY b, a")
        canonical = normalize_query(query)
        assert canonical.group_by == ("a", "b")          # canonical: sorted
        assert canonical.average == "y"
        assert canonical.table_name == "T"
        assert [p.attribute for p in canonical.where] == ["c", "d"]
        assert query.logical_plan == canonical.logical_plan == "\n".join([
            "Explain(k-summary of AVG(y) heterogeneity)",
            "  GroupBy(keys=[a, b], avg=y)",
            "    Filter(c == 'x' AND d > 3)",
            "      Scan(T)"])
        assert "Filter(TRUE)" in parse_query(
            "SELECT g, AVG(y) FROM T GROUP BY g").logical_plan

    def test_equivalent_spellings_share_a_plan(self):
        a = parse_query("SELECT g, h, AVG(y) FROM T "
                        "WHERE x = 1 AND z = 'u' GROUP BY g, h")
        b = parse_query("SELECT h, g, AVG(y) FROM T "
                        "WHERE z = 'u' AND x = 1.0 GROUP BY h, g")
        assert normalize_query(a) == normalize_query(b)
        assert a.fingerprint == b.fingerprint
        assert a.where_key == b.where_key
        assert a.logical_plan == b.logical_plan

    def test_fingerprint_is_the_query_fingerprint(self):
        query = parse_query("SELECT g, AVG(y) FROM T WHERE x > 2.0 GROUP BY g")
        canonical = normalize_query(query)
        assert canonical is not query
        assert query.fingerprint == canonical.fingerprint
        assert query.where_key == canonical.where_key == (("x", ">", "int:2"),)

    @pytest.mark.parametrize("query,fingerprint", [
        # Recorded before the keys moved onto the query: persisted
        # summaries.jsonl snapshots are keyed by these bytes.
        ("SELECT Country, AVG(Salary) FROM SO GROUP BY Country",
         "18da7e8e1e47952c"),
        ("SELECT Role, Country, AVG(Salary) FROM SO WHERE Gender = 'Male' "
         "GROUP BY Role, Country", "70fd23890a30901b"),
        ("SELECT Country, AVG(Salary) FROM SO WHERE Salary > 30000.0 "
         "GROUP BY Country", "b4432f37d70c64e2"),
        ("SELECT Country, AVG(Salary) FROM SO WHERE Salary <= 90000 "
         "AND Salary > 2.5 GROUP BY Country", "93a05a008836f84a"),
        (GroupByAvgQuery(("b", "a"), "y", Pattern([
            Predicate("x", "==", np.float64(3.0)),
            Predicate("z", "==", np.str_("u"))])), "59b512a14356ccfb"),
        (GroupByAvgQuery("g", "y", Pattern([Predicate("x", ">", True)])),
         "9ec0049266d6f9d8"),
    ])
    def test_fingerprints_are_pinned(self, query, fingerprint):
        if isinstance(query, str):
            query = parse_query(query)
        assert query.fingerprint == fingerprint

    def test_fingerprint_distinguishes_filters(self):
        base = "SELECT g, AVG(y) FROM T {} GROUP BY g"
        plans = {parse_query(base.format(w)).fingerprint
                 for w in ("", "WHERE x = 1", "WHERE x = '1'", "WHERE x > 1")}
        assert len(plans) == 4

    def test_where_key_hashable_and_type_aware(self):
        one = parse_query("SELECT g, AVG(y) FROM T WHERE x = 1 GROUP BY g")
        other = parse_query("SELECT g, AVG(y) FROM T WHERE x = '1' GROUP BY g")
        assert one.where_key == (("x", "==", "int:1"),)
        assert other.where_key == (("x", "==", "str:'1'"),)
        assert len({one.where_key, other.where_key}) == 2


# ---------------------------------------------------------------------- planner


class TestPlanner:
    def test_executor_records_actuals(self):
        table = _skewed_table()
        pattern = Pattern.of(("broad", "==", "x"), ("narrow", "==", "v7"))
        filtered, plan = planned_select_with_plan(table, pattern)
        assert filtered == table.select(pattern)
        assert plan.rows_in == table.n_rows
        assert plan.rows_out == int(pattern.evaluate(table).sum())
        assert plan.to_dict() == {
            "shards": {"total": 0, "zone_map_skipped": 0, "scanned": 0},
            "rows_in": table.n_rows, "rows_out": plan.rows_out}


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
            ["cat", "num", "single", "allmiss", "num_boundary", "nomatch"]))
        if kind == "cat":
            predicates.append(Predicate(
                "cat", data.draw(st.sampled_from(list(Op))),
                data.draw(st.sampled_from(["a", "b", "c", "zz"]))))
        elif kind == "nomatch":
            # Every shard's zone map proves this conjunct empty.
            predicates.append(Predicate("cat", Op.EQ, "absent-everywhere"))
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
                # Exact data values, zone-map minima and maxima among them.
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
        planned, plan = planned_select_with_plan(table, pattern)
        assert planned == table.select(pattern)
        assert plan.rows_out == planned.n_rows

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_mask_cache_routing_equals_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(1, 60)))
        pattern = _random_pattern(data, rng, table)
        cache = MaskCache(table)
        first, _ = planned_select_with_plan(table, pattern, mask_cache=cache)
        second, _ = planned_select_with_plan(table, pattern,
                                             mask_cache=cache)  # warm
        oracle = table.select(pattern)
        assert first == oracle and second == oracle

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_sharded_planned_select_equals_oracle(self, data):
        import tempfile

        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(5, 80)))
        pattern = _random_pattern(data, rng, table)
        # shard_rows >= n gives the single-shard case.
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(
                f"{tmp}/d", "d", table,
                shard_rows=data.draw(st.integers(3, 100)))
            loaded = dataset.load_table()
            planned, plan = planned_select_with_plan(loaded, pattern)
            assert planned == table.select(pattern)
            assert plan.shards_total == loaded.n_shards
            assert plan.shards_zone_map_skipped + plan.shards_scanned == \
                loaded.n_shards
            assert plan.rows_out == planned.n_rows

    def test_aggregate_view_equals_oracle_view(self):
        bundle = load_dataset("stackoverflow", n=800, seed=0)
        salary = bundle.table.column("Salary").values
        assert np.any(salary != np.round(salary))  # a float outcome
        query = parse_query(
            "SELECT Country, AVG(Salary) FROM SO "
            "WHERE Gender = 'Male' AND Continent != 'Asia' GROUP BY Country")
        planned = AggregateView(bundle.table, query)
        # The reference view: the WHERE clause as full masks, grouped with
        # no clause left to plan.
        filtered = bundle.table.select(query.where)
        oracle = AggregateView(
            filtered, parse_query("SELECT Country, AVG(Salary) FROM SO "
                                  "GROUP BY Country"))
        assert [(g.key, g.average.hex(), g.size) for g in planned.groups] == \
            [(g.key, g.average.hex(), g.size) for g in oracle.groups]
        assert planned.table == oracle.table == filtered
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

        def oracle_run():
            # The reference: WHERE evaluated up front as full masks, the
            # explain then runs over the filtered table with no clause left.
            filtered = bundle.table.select(Pattern.of(
                ("Continent", "!=", "Oceania")))
            return CauSumX(filtered, bundle.dag, config).explain(
                "SELECT Country, AVG(Salary) FROM SO GROUP BY Country",
                grouping_attributes=bundle.grouping_attributes,
                treatment_attributes=bundle.treatment_attributes)

        planned = summary_to_dict(run())
        oracle = summary_to_dict(oracle_run())
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
        # The reference: every atom enumerated without a support floor,
        # kept when its evaluated mask reaches the floor.
        kwargs["min_support"] = 0
        everything = PatternLattice(table, ["t", "many"],
                                    mask_cache=MaskCache(table),
                                    **kwargs).atomic_predicates()
        oracle = [p for p in everything if p.evaluate(table).sum() >= 15]
        assert planned == oracle
        assert len(oracle) < len(everything)  # the floor dropped something

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
        """An appended shard commits its own zone maps, and a scan skips
        by them."""
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
        assert set(shard.zone_maps) == {"a", "b", "y"}
        vocab = dataset.manifest.vocabs["b"]
        assert shard.zone_maps["b"]["codes"] == [vocab.index("u9")]
        assert shard.zone_maps["y"]["min"] == shard.zone_maps["y"]["max"] == 0
        loaded = dataset.load_table()
        pattern = Pattern.of(("b", "==", "u9"))
        selected, plan = planned_select_with_plan(loaded, pattern)
        assert selected == Table.select(loaded, pattern)
        assert selected.n_rows == 200
        assert (plan.shards_zone_map_skipped, plan.shards_scanned) == (2, 1)

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
            assert set(shard.zone_maps) == set(table.attributes)

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
        expected = table.select(pattern)
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

    def test_non_positive_sizes_rejected_on_empty_dataset(self, store):
        empty = _skewed_table(n=50).take(np.arange(0))
        dataset = store.import_table("c", empty)
        assert dataset.manifest.shards == []
        from repro.storage import StorageError

        with pytest.raises(StorageError, match="shard_rows"):
            dataset.compact(shard_rows=0)
        with pytest.raises(StorageError, match="min_rows"):
            dataset.compact(min_rows=-5)
        assert dataset.compact()["shards_after"] == 0  # valid: still a no-op

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

    def test_explain_plan_reports_shards_and_rows(self, engine):
        report = engine.explain_plan(
            "so", "SELECT Country, AVG(Salary) FROM SO "
                  "WHERE Gender = 'Male' AND Continent != 'Asia' "
                  "GROUP BY Country")
        assert "planner_enabled" not in report
        assert "Scan(" in report["logical_plan"]
        scan = report["scan"]
        assert set(scan) == {"shards", "rows_in", "rows_out"}  # no conjuncts
        assert scan["shards"] == {"total": 0, "zone_map_skipped": 0,
                                  "scanned": 0}
        assert scan["rows_in"] == report["rows"]["table"]
        assert scan["rows_out"] == report["rows"]["filtered"]
        assert report["rows"]["filtered"] < report["rows"]["table"]

    def test_explain_plan_op_over_the_protocol(self, engine):
        response = handle_request(
            engine, "so",
            '{"op": "explain_plan", "query": "SELECT Country, AVG(Salary) '
            "FROM SO WHERE Gender = 'Male' GROUP BY Country\", \"id\": 4}")
        assert response["ok"] and response["id"] == 4
        assert response["result"]["scan"]["rows_out"] > 0

    def test_stats_surface_planner_section(self, engine):
        engine.explain_plan(
            "so", "SELECT Country, AVG(Salary) FROM SO "
                  "WHERE Gender = 'Male' GROUP BY Country")
        planner = engine.stats()["planner"]
        assert "enabled" not in planner and "plans" not in planner
        assert {"shards_zone_map_skipped", "shards_stats_skipped",
                "shards_scanned"} <= set(planner)
        assert planner["shards_stats_skipped"] == 0
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
        assert "Explain" in out and "scan: rows" in out and "est=" not in out

    def test_plan_command_against_store(self, store, capsys):
        from repro.cli import main

        store.import_table("t", _skewed_table(n=200, seed=8), shard_rows=50)
        code = main(["plan", "--store", str(store.root),
                     "--query", "SELECT broad, AVG(num) FROM t "
                                "WHERE narrow = 'v7' GROUP BY broad"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards: 4 total" in out and "scan: rows" in out
