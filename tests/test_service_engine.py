"""Tests for the explanation-serving subsystem (``repro.service``)."""

import gc
import io
import json
import threading
import weakref

import pytest

from repro.core import CauSumX, CauSumXConfig, summary_to_dict
from repro.dataframe import Table
from repro.mining.treatments import TreatmentMinerConfig
from repro.service import (
    ExplanationEngine,
    LRUCache,
    handle_request,
    read_queries,
    run_batch,
    serve_loop,
)
from repro.storage import DatasetStore


def _summary_payload(summary) -> str:
    """Canonical bytes of a summary, ignoring wall-clock timings."""
    payload = summary_to_dict(summary)
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True, default=str)


def small_config(**overrides) -> CauSumXConfig:
    config = CauSumXConfig(
        k=3, theta=0.5, apriori_threshold=0.1, sample_size=None,
        min_group_size=5,
        treatment=TreatmentMinerConfig(max_levels=2, min_group_size=5,
                                       significance_level=0.05,
                                       max_values_per_attribute=8),
    )
    return config.with_overrides(**overrides) if overrides else config


@pytest.fixture(scope="module")
def so_small(so_bundle):
    """A small stackoverflow slice shared by the engine tests."""
    return so_bundle


@pytest.fixture()
def engine(so_small):
    engine = ExplanationEngine(summary_cache_size=8)
    engine.register_bundle(so_small, config=small_config())
    return engine


BASE_QUERY = "SELECT Country, AVG(Salary) FROM SO GROUP BY Country"


class TestLRUCache:
    def test_hit_miss_eviction_accounting(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b" (LRU after the "a" hit)
        assert cache.get("b") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 1)
        assert stats.entries == 2

    def test_purge_counts_invalidations(self):
        cache = LRUCache(capacity=8)
        for i in range(4):
            cache.put(("d1" if i % 2 else "d2", i), i)
        assert cache.purge(lambda key: key[0] == "d1") == 2
        assert cache.stats().invalidations == 2
        assert len(cache) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestRegistration:
    def test_unknown_dataset_raises(self, engine):
        with pytest.raises(KeyError, match="unknown dataset"):
            engine.explain("nope", BASE_QUERY)

    def test_reregistration_bumps_version(self, engine, so_small):
        assert engine.dataset_state("stackoverflow").version == 0
        engine.register_bundle(so_small, config=small_config())
        assert engine.dataset_state("stackoverflow").version == 1


class TestServing:
    def test_summary_matches_one_shot(self, engine, so_small):
        served = engine.explain("stackoverflow", BASE_QUERY)
        fresh = CauSumX(so_small.table, so_small.dag, small_config()).explain(
            BASE_QUERY,
            grouping_attributes=so_small.grouping_attributes,
            treatment_attributes=so_small.treatment_attributes)
        assert _summary_payload(served) == _summary_payload(fresh)

    def test_repeat_hits_summary_cache(self, engine):
        first, info_first = engine.explain_with_info("stackoverflow", BASE_QUERY)
        second, info_second = engine.explain_with_info("stackoverflow", BASE_QUERY)
        assert second is first
        assert not info_first["cached"] and info_second["cached"]
        assert engine.computations == 1

    def test_equivalent_spellings_share_cache_entry(self, engine):
        first = engine.explain("stackoverflow", BASE_QUERY)
        second = engine.explain(
            "stackoverflow",
            "select Country, avg(Salary) from ANYNAME group by Country;")
        assert second is first
        assert engine.computations == 1

    def test_views_and_populations_shared_across_queries(self, engine):
        engine.explain("stackoverflow", BASE_QUERY)
        # Same (empty WHERE, Salary) population, different group-by.
        engine.explain("stackoverflow",
                       "SELECT Continent, AVG(Salary) FROM SO GROUP BY Continent")
        stats = engine.stats()
        assert stats["population_cache"]["entries"] == 1
        assert stats["population_cache"]["hits"] >= 1
        assert stats["computations"] == 2

    def test_explain_many_deduplicates(self, engine):
        queries = [BASE_QUERY, BASE_QUERY,
                   "SELECT Continent, AVG(Salary) FROM SO GROUP BY Continent",
                   BASE_QUERY]
        summaries = engine.explain_many("stackoverflow", queries)
        assert len(summaries) == 4
        assert summaries[0] is summaries[1] is summaries[3]
        assert engine.computations == 2
        assert engine.stats()["batch_deduped"] == 2

    def test_summary_cache_opt_out_recomputes(self, engine):
        engine.explain("stackoverflow", BASE_QUERY, use_summary_cache=False)
        engine.explain("stackoverflow", BASE_QUERY, use_summary_cache=False)
        assert engine.computations == 2


class TestConcurrency:
    def test_single_flight_same_fingerprint(self, engine):
        """Two threads issuing the same fingerprint share one computation."""
        barrier = threading.Barrier(2)
        results, infos, errors = {}, {}, []

        def request(slot):
            try:
                barrier.wait(timeout=30)
                summary, info = engine.explain_with_info("stackoverflow", BASE_QUERY)
                results[slot] = summary
                infos[slot] = info
            except Exception as exc:  # pragma: no cover - surfaced by assertions
                errors.append(exc)

        threads = [threading.Thread(target=request, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert engine.computations == 1
        assert results[0] is results[1]
        # Exactly one of the two either coalesced onto the leader's flight or
        # (if it arrived after completion) hit the summary cache.
        followers = [i for i in infos.values() if i["cached"] or i["coalesced"]]
        assert len(followers) == 1

    def test_mask_cache_stats_consistent_under_race(self, engine):
        barrier = threading.Barrier(2)

        def request():
            barrier.wait(timeout=30)
            engine.explain("stackoverflow", BASE_QUERY)

        threads = [threading.Thread(target=request) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        mask_stats = engine.stats()["mask_caches"]
        assert mask_stats["entries"] > 0
        # Every request either hit or missed; the counters never drift.
        assert mask_stats["hits"] + mask_stats["misses"] >= mask_stats["entries"]

    def test_lockwatch_acquisition_graph_stays_acyclic(self, so_small):
        """Exercise the engine's full lock surface (explains, appends, stats
        snapshots) under an instrumented registry and assert the recorded
        acquisition-order graph has no cycle — the machine-checked form of
        the engine's three-lock discipline."""
        from repro.analysis import lockwatch

        registry = lockwatch.enable()
        registry.reset()
        try:
            # Built while enabled, so every named_lock is a WatchedLock.
            engine = ExplanationEngine(summary_cache_size=8)
            engine.register_bundle(so_small, config=small_config())
            rows = so_small.table.take(range(10)).to_rows()
            barrier = threading.Barrier(3)
            errors = []

            def run(action):
                try:
                    barrier.wait(timeout=30)
                    action()
                except Exception as exc:  # pragma: no cover - assertion below
                    errors.append(exc)

            actions = [
                lambda: engine.explain("stackoverflow", BASE_QUERY),
                lambda: engine.append_rows("stackoverflow", rows),
                lambda: engine.stats(),
            ]
            threads = [threading.Thread(target=run, args=(a,)) for a in actions]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            # The engine really nests acquisitions (e.g. mutation -> datasets
            # in append_rows), so the graph must be non-trivial — and acyclic.
            assert registry.edges()
            assert registry.violations == []
            registry.assert_acyclic()
        finally:
            registry.reset()
            lockwatch.disable()


class TestAppendRows:
    def test_append_invalidates_and_matches_fresh_run(self, engine, so_small):
        before = engine.explain("stackoverflow", BASE_QUERY)
        new_rows = so_small.table.take(range(40)).to_rows()
        report = engine.append_rows("stackoverflow", new_rows)
        assert report["version"] == 1
        assert report["appended_rows"] == 40
        assert report["invalidated"] > 0
        assert report["masks_carried"] > 0

        after = engine.explain("stackoverflow", BASE_QUERY)
        combined = so_small.table.concat(
            Table.from_rows(new_rows, schema=list(so_small.table.attributes)))
        fresh = CauSumX(combined, so_small.dag, small_config()).explain(
            BASE_QUERY,
            grouping_attributes=so_small.grouping_attributes,
            treatment_attributes=so_small.treatment_attributes)
        assert _summary_payload(after) == _summary_payload(fresh)
        # The pre-append summary must not be served post-append.
        assert after is not before
        assert engine.computations == 2

    def test_append_schema_mismatch_rejected(self, engine):
        with pytest.raises(ValueError, match="schema"):
            engine.append_rows("stackoverflow", [{"Wrong": 1}])

    def test_append_empty_rows_is_noop(self, engine):
        report = engine.append_rows("stackoverflow", [])
        assert report["appended_rows"] == 0
        assert engine.dataset_state("stackoverflow").version == 0

    def test_append_kind_mismatch_rejected(self, engine, so_small):
        row = dict(so_small.table.row(0))
        row["Salary"] = "a lot"  # categorical value into the numeric outcome
        with pytest.raises(ValueError, match="numeric column kind"):
            engine.append_rows("stackoverflow", [row])

    def test_append_row_missing_numeric_attribute_keeps_column_numeric(
            self, engine, so_small):
        row = dict(so_small.table.row(0))
        del row["Salary"]  # omitted numeric outcome must become NaN, not None
        report = engine.append_rows("stackoverflow", [row])
        assert report["appended_rows"] == 1
        table = engine.dataset_state("stackoverflow").table
        assert table.is_numeric("Salary")
        # The engine still serves the dataset afterwards.
        assert engine.explain("stackoverflow", BASE_QUERY) is not None


class TestServerProtocol:
    def test_bare_sql_line_is_explain(self, engine):
        response = handle_request(engine, "stackoverflow", BASE_QUERY)
        assert response["ok"]
        assert response["result"]["k"] == 3
        assert response["cached"] is False

    def test_json_explain_with_id(self, engine):
        request = json.dumps({"op": "explain", "query": BASE_QUERY, "id": 42})
        response = handle_request(engine, "stackoverflow", request)
        assert response["ok"] and response["id"] == 42

    def test_stats_and_append_ops(self, engine, so_small):
        rows = so_small.table.take(range(5)).to_rows()
        append = handle_request(engine, "stackoverflow", json.dumps(
            {"op": "append_rows", "rows": rows}))
        assert append["ok"] and append["result"]["appended_rows"] == 5
        stats = handle_request(engine, "stackoverflow", json.dumps({"op": "stats"}))
        assert stats["ok"]
        assert stats["result"]["datasets"]["stackoverflow"]["version"] == 1

    def test_bad_requests_report_errors(self, engine):
        assert not handle_request(engine, "stackoverflow", "{not json")["ok"]
        assert not handle_request(engine, "stackoverflow",
                                  json.dumps({"op": "teleport"}))["ok"]
        bad_sql = handle_request(engine, "stackoverflow",
                                 "SELECT broken FROM nowhere")
        assert not bad_sql["ok"] and "ValueError" in bad_sql["error"]

    def test_serve_loop_quit_and_responses(self, engine):
        lines = [
            BASE_QUERY,
            json.dumps({"op": "stats", "id": 1}),
            json.dumps({"op": "quit", "id": 2}),
            BASE_QUERY,  # never reached
        ]
        out = io.StringIO()
        handled = serve_loop(engine, "stackoverflow", lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert handled == 3
        assert len(responses) == 3
        assert all(r["ok"] for r in responses)
        # Every request gets exactly one response: quit is acknowledged too.
        for volatile in ("trace_id", "duration_ms"):  # present under REPRO_TRACE=1
            responses[2].pop(volatile, None)
        assert responses[2] == {"ok": True, "quit": True, "id": 2}

    def test_read_queries_formats(self):
        assert read_queries("# comment\nSELECT a FROM t\n\nSELECT b FROM t\n") == \
            ["SELECT a FROM t", "SELECT b FROM t"]
        assert read_queries('["SELECT a FROM t"]') == ["SELECT a FROM t"]
        with pytest.raises(ValueError):
            read_queries('[{"not": "a string"}]')

    def test_run_batch_writes_json(self, engine):
        out = io.StringIO()
        payload = run_batch(engine, "stackoverflow", [BASE_QUERY, BASE_QUERY], out)
        assert len(payload) == 2
        assert json.loads(out.getvalue())[0]["k"] == 3
        assert engine.computations == 1


class TestSupersededTablesAreFreed:
    """``append_rows`` builds a whole new table per batch.  A version nobody
    uses any more must go when its last reference does: numpy buffers do not
    advance the cyclic collector's counters, so a table caught in a cycle
    (``Table`` ↔ its cached ``TableStats``) stayed resident for many appends
    and read as hundreds of MB of RSS on a 10 MB dataset."""

    QUERY = ("SELECT Country, AVG(Salary) FROM SO WHERE Gender = 'Male' "
             "GROUP BY Country")

    @pytest.mark.parametrize("backing", ["memory", "store"])
    def test_freed_without_the_cyclic_collector(self, tmp_path, so_small,
                                                backing):
        if backing == "store":
            store = DatasetStore.init(tmp_path / "store")
            so_small.to_store(store, config=small_config(), shard_rows=100)
            engine = ExplanationEngine.from_store(store)
        else:
            engine = ExplanationEngine()
            engine.register_dataset(  # a copy: the fixture keeps its own table
                "stackoverflow", so_small.table.take(range(so_small.table.n_rows)),
                so_small.dag, config=small_config(),
                grouping_attributes=so_small.grouping_attributes,
                treatment_attributes=so_small.treatment_attributes)
        rows = [so_small.table.row(i) for i in range(4)]
        gc.collect()
        gc.disable()
        try:
            superseded = []
            for _ in range(2):
                engine.explain("stackoverflow", self.QUERY)  # plans the WHERE scan
                superseded.append(
                    weakref.ref(engine.dataset_state("stackoverflow").table))
                engine.append_rows("stackoverflow", rows)
            engine.explain("stackoverflow", self.QUERY)
            assert [ref() for ref in superseded] == [None, None]
        finally:
            gc.enable()
