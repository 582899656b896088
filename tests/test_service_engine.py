"""Tests for the explanation-serving subsystem (``repro.service``)."""

import gc
import io
import json
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CauSumX, CauSumXConfig, summary_to_dict
from repro.dataframe import MaskCache, Table
from repro.mining.treatments import TreatmentMinerConfig
from repro.obs import trace
from repro.obs.registry import REGISTRY
from repro.service import engine as engine_module
from repro.service import (
    DatasetState,
    ExplanationEngine,
    LRUCache,
    dispatch_request,
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


def _carried(state) -> list[tuple]:
    """The population keys whose memo entry is masks an append carried in."""
    return [key for key, memo in state.populations.items()
            if isinstance(memo, MaskCache)]


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
OTHER_QUERY = "SELECT Role, AVG(Salary) FROM SO GROUP BY Role"


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

    def test_pinned_reregistration_must_move_the_version_forward(
            self, engine, so_small):
        """The version is all that tells two registrations' summaries apart:
        a table pinned at the current version would be served the old
        table's cached answers."""
        before = engine.explain("stackoverflow", BASE_QUERY)
        smaller = so_small.table.take(range(300))
        for version in (0, -1):
            with pytest.raises(ValueError, match=f"version {version}: it is "
                               "registered at version 0"):
                engine.register_dataset(
                    "stackoverflow", smaller, so_small.dag,
                    config=small_config(), version=version,
                    grouping_attributes=so_small.grouping_attributes,
                    treatment_attributes=so_small.treatment_attributes)
        assert engine.dataset_state("stackoverflow").table is so_small.table
        assert engine.explain("stackoverflow", BASE_QUERY) is before
        engine.register_dataset(
            "stackoverflow", smaller, so_small.dag, config=small_config(),
            version=5, grouping_attributes=so_small.grouping_attributes,
            treatment_attributes=so_small.treatment_attributes)
        served, info = engine.explain_with_info("stackoverflow", BASE_QUERY)
        assert (info["version"], info["cached"]) == (5, False)
        assert _summary_payload(served) == _summary_payload(
            CauSumX(smaller, so_small.dag, small_config()).explain(
                BASE_QUERY, grouping_attributes=so_small.grouping_attributes,
                treatment_attributes=so_small.treatment_attributes))

    def test_population_counts_never_go_back(self, engine, so_small):
        """A replaced version's population-memo counts stay in ``stats()``;
        its entries count as invalidated."""
        # One WHERE clause, three group-bys: one population, three misses
        # of the summary cache.
        queries = (BASE_QUERY, OTHER_QUERY,
                   "SELECT Continent, AVG(Salary) FROM SO GROUP BY Continent")
        seen = []
        for step in range(4):
            for query in queries:
                engine.explain("stackoverflow", query)
            level = engine.stats()["population_cache"]
            seen.append(tuple(level[name] for name in
                              ("hits", "misses", "evictions", "invalidations")))
            if step % 2:
                engine.register_bundle(so_small, config=small_config())
            else:
                engine.append_rows("stackoverflow",
                                   so_small.table.take(range(10)).to_rows())
        assert all(a <= b for earlier, later in zip(seen, seen[1:])
                   for a, b in zip(earlier, later))
        assert seen[0] == (2, 1, 0, 0)  # one population, three requests
        assert seen[-1][0] > seen[-2][0] and seen[-1][3] > 0


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

    def test_repeated_queries_compute_once(self, engine):
        queries = [BASE_QUERY, BASE_QUERY,
                   "SELECT Continent, AVG(Salary) FROM SO GROUP BY Continent",
                   BASE_QUERY]
        summaries = [engine.explain("stackoverflow", q) for q in queries]
        assert len(summaries) == 4
        assert summaries[0] is summaries[1] is summaries[3]
        assert engine.computations == 2
        assert engine.stats()["summary_cache"]["hits"] == 2


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
        the engine's three-lock discipline, with the compute gate as its
        outermost lock."""
        from repro.analysis import lockwatch

        registry = lockwatch.enable()
        registry.reset()
        gate = "ExplanationEngine._compute_gate"
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
            # Taken with no engine lock held, and holding it the miss takes
            # the engine's locks.
            assert any(e.source == gate for e in registry.edges())
            assert not any(e.target == gate for e in registry.edges())
        finally:
            registry.reset()
            lockwatch.disable()


class _SignallingGate:
    """Stands in for the compute gate; ``contended`` is set when a caller
    has to block for it."""

    def __init__(self):
        self._inner = threading.Lock()
        self.contended = threading.Event()

    def acquire(self, blocking=True):
        if blocking:
            self.contended.set()
        return self._inner.acquire(blocking)

    def release(self):
        self._inner.release()

    def locked(self):
        return self._inner.locked()


def _run_threads(*targets):
    """Run each target on its own thread; re-raise the first error."""
    errors = []

    def run(target):
        try:
            target()
        except BaseException as exc:  # pragma: no cover - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


class TestComputeGate:
    @pytest.fixture()
    def gate(self, engine, monkeypatch):
        """The ``engine`` fixture's compute gate, as a signalling stand-in."""
        gate = _SignallingGate()
        monkeypatch.setattr(engine, "_compute_gate", gate)
        return gate

    def test_distinct_misses_never_overlap(self, engine, gate, monkeypatch):
        """Two distinct misses of one engine compute one at a time; the one
        that waited records one wait sample and a ``compute_wait_ms`` root
        attribute."""
        guard = threading.Lock()
        counts = {"active": 0, "peak": 0, "entered": 0}

        def probe(compute):
            def probed(*args):
                with guard:
                    counts["active"] += 1
                    counts["peak"] = max(counts["peak"], counts["active"])
                    counts["entered"] += 1
                    first = counts["entered"] == 1
                if not first:  # no gate: let the first computation finish
                    gate.contended.set()
                try:
                    if first:  # hold on until the other miss is at the gate
                        assert gate.contended.wait(60)
                    return compute(*args)
                finally:
                    with guard:
                        counts["active"] -= 1
            return probed

        monkeypatch.setattr(engine, "_compute", probe(engine._compute))
        waits = REGISTRY.histogram("repro_engine_compute_wait_seconds")
        before = waits.count
        roots = []

        def request(query):
            def target():
                with trace.new_trace("request") as root:
                    engine.explain("stackoverflow", query)
                roots.append(root)
            return target

        with trace.tracing(True):
            _run_threads(request(BASE_QUERY), request(OTHER_QUERY))
        assert counts["peak"] == 1
        assert engine.computations == 2
        assert waits.count - before == 1
        assert sorted("compute_wait_ms" in root.attrs for root in roots) \
            == [False, True]

    def test_engines_do_not_share_the_gate(self, engine, so_small,
                                           monkeypatch):
        """Another engine (another tenant's) computes while this one holds
        its gate mid-computation, and records no wait."""
        other = ExplanationEngine(summary_cache_size=8)
        other.register_bundle(so_small, config=small_config())
        inside, release = threading.Event(), threading.Event()
        compute = engine._compute

        def held(*args):
            inside.set()
            assert release.wait(60)
            return compute(*args)

        monkeypatch.setattr(engine, "_compute", held)
        waits = REGISTRY.histogram("repro_engine_compute_wait_seconds")
        before = waits.count
        miss = threading.Thread(target=engine.explain,
                                args=("stackoverflow", BASE_QUERY))
        miss.start()
        computed = threading.Event()

        def other_miss():
            other.explain("stackoverflow", BASE_QUERY)
            computed.set()

        beside = threading.Thread(target=other_miss)
        try:
            assert inside.wait(60)
            beside.start()
            assert computed.wait(30), "the other engine waited for this gate"
            assert engine._compute_gate.locked()
            assert other.computations == 1
            assert waits.count == before
        finally:
            release.set()
            miss.join(timeout=120)
            beside.join(timeout=120)
        assert not miss.is_alive() and not beside.is_alive()

    def test_stress_more_threads_than_cores(self, engine, monkeypatch):
        """Eight distinct misses from four threads under a short switch
        interval: never two computations at once, none lost."""
        queries = [f"SELECT {a}, AVG(Salary) FROM SO GROUP BY {a}"
                   for a in ("Country", "Role", "Continent", "Education",
                             "Major", "AgeBand", "Gender", "Ethnicity")]
        guard = threading.Lock()
        counts = {"active": 0, "peak": 0}
        compute = engine._compute

        def probed(*args):
            with guard:
                counts["active"] += 1
                counts["peak"] = max(counts["peak"], counts["active"])
            try:
                return compute(*args)
            finally:
                with guard:
                    counts["active"] -= 1

        def client(mine):
            return lambda: [engine.explain("stackoverflow", q) for q in mine]

        monkeypatch.setattr(engine, "_compute", probed)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(*(client(queries[i::4]) for i in range(4)))
        finally:
            sys.setswitchinterval(interval)
        assert counts["peak"] == 1
        assert engine.computations == len(queries)

    def test_uncontended_miss_records_no_wait(self, engine):
        waits = REGISTRY.histogram("repro_engine_compute_wait_seconds")
        before = waits.count
        engine.explain("stackoverflow", BASE_QUERY)
        assert engine.computations == 1
        assert waits.count == before

    def test_hit_stats_and_plan_do_not_wait_for_a_miss(self, engine, gate,
                                                       monkeypatch):
        engine.explain("stackoverflow", BASE_QUERY)
        inside, release = threading.Event(), threading.Event()
        compute = engine._compute

        def held(*args):
            inside.set()
            assert release.wait(60)
            return compute(*args)

        monkeypatch.setattr(engine, "_compute", held)
        miss = threading.Thread(target=engine.explain,
                                args=("stackoverflow", OTHER_QUERY))
        miss.start()
        try:
            assert inside.wait(60)
            assert gate.locked()
            _, info = engine.explain_with_info("stackoverflow", BASE_QUERY)
            assert info["cached"]
            assert engine.stats()["summary_cache"]["hits"] == 1
            assert engine.explain_plan("stackoverflow", OTHER_QUERY)["groups"]
            assert gate.locked() and not gate.contended.is_set()
        finally:
            release.set()
            miss.join(timeout=120)
        assert not miss.is_alive()

    def test_failed_computation_releases_the_gate(self, engine, monkeypatch):
        compute = engine._compute
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return compute(*args)

        monkeypatch.setattr(engine, "_compute", flaky)
        with pytest.raises(RuntimeError, match="boom"):
            engine.explain("stackoverflow", BASE_QUERY)
        assert not engine._compute_gate.locked()
        _run_threads(lambda: engine.explain("stackoverflow", OTHER_QUERY))
        assert engine.computations == 1

    def test_same_fingerprint_coalesces_without_the_gate(self, engine, gate,
                                                         monkeypatch):
        """The follower waits on the leader's flight, never at the gate."""
        waiting = threading.Event()
        flight_class = engine_module._Flight

        class Signalling(threading.Event):
            def wait(self, timeout=None):
                waiting.set()
                return super().wait(timeout)

        monkeypatch.setattr(engine_module, "_Flight",
                            lambda: flight_class(done=Signalling()))
        compute = engine._compute
        monkeypatch.setattr(
            engine, "_compute",
            lambda *args: waiting.wait(60) and compute(*args))
        results = []

        def request():
            results.append(engine.explain_with_info("stackoverflow",
                                                    BASE_QUERY))

        _run_threads(request, request)
        assert engine.computations == 1
        assert results[0][0] is results[1][0]
        assert sorted(info["coalesced"] for _, info in results) \
            == [False, True]
        assert not gate.contended.is_set()


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

    def test_batch_op_deduplicates(self, engine):
        other = "SELECT Continent, AVG(Salary) FROM SO GROUP BY Continent"
        response = handle_request(engine, "stackoverflow", json.dumps(
            {"op": "batch", "queries": [BASE_QUERY, other, BASE_QUERY]}))
        assert response["ok"] and len(response["results"]) == 3
        # The repeated query gets the batch's first answer: no second
        # computation, and no summary-cache lookup either.
        assert engine.computations == 2
        assert engine.stats()["summary_cache"]["hits"] == 0
        assert response["results"][0] == response["results"][2] == \
            summary_to_dict(engine.explain("stackoverflow", BASE_QUERY))

    def test_batch_op_computes_a_repeat_once_after_eviction(self, so_small):
        """With one summary-cache slot, the second query evicts the first;
        its repeats, in the same or another spelling, are still the batch's
        first answer, not recomputations."""
        engine = ExplanationEngine(summary_cache_size=1)
        engine.register_bundle(so_small, config=small_config())
        spelled = "select Country, avg(Salary) from SO group by Country"
        response = handle_request(engine, "stackoverflow", json.dumps(
            {"op": "batch",
             "queries": [BASE_QUERY, OTHER_QUERY, BASE_QUERY, spelled]}))
        assert response["ok"] and len(response["results"]) == 4
        assert engine.computations == 2
        results = response["results"]
        assert results[0] == results[2] == results[3] != results[1]

    def test_batch_op_stops_at_an_expired_deadline(self, engine):
        class Expired(Exception):
            pass

        class ExpiresOnThirdCheck:
            """Checked before the op, then before each query."""

            def __init__(self):
                self.where = []

            def check(self, where):
                self.where.append(where)
                if len(self.where) == 3:
                    raise Expired(where)

        deadline = ExpiresOnThirdCheck()
        with pytest.raises(Expired, match="batch query"):
            dispatch_request(engine, "stackoverflow", {
                "op": "batch", "queries": [BASE_QUERY, OTHER_QUERY, BASE_QUERY]},
                deadline=deadline)
        assert deadline.where == ["op 'batch'", "batch query", "batch query"]
        assert engine.computations == 1  # the second query never started
        assert engine.explain_with_info("stackoverflow", BASE_QUERY)[1]["cached"]
        assert engine.computations == 1

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


class TestAppendPath:
    """An append costs O(batch): it never scans the table, and every cached
    population or WHERE mask it leaves behind is extended on first use into
    exactly what a fresh run over the concatenated table computes."""

    NAME = "stackoverflow"
    WHERE_QUERY = ("SELECT Country, AVG(Salary) FROM SO "
                   "WHERE Gender = 'Male' GROUP BY Country")
    QUERIES = (BASE_QUERY, WHERE_QUERY,
               "SELECT Continent, AVG(Salary) FROM SO WHERE Gender = 'Male' "
               "AND Student = 'No' GROUP BY Continent")

    @staticmethod
    def _fresh(so_small, table, query):
        return CauSumX(table, so_small.dag, small_config()).explain(
            query, grouping_attributes=so_small.grouping_attributes,
            treatment_attributes=so_small.treatment_attributes)

    @staticmethod
    def _batch(so_small, k: int) -> list[dict]:
        """40 rows; from the second batch on, some carry values no earlier
        version has seen (a new country, role and gender)."""
        rows = so_small.table.take(range(40 * k, 40 * k + 40)).to_rows()
        if k:
            for row in rows[::4]:
                row.update(Country=f"Atlantis {k}", Role=f"Role {k}",
                           Gender="Male" if k % 2 else f"Gender {k}")
        return rows

    @pytest.mark.parametrize("backing", ["memory", "store"])
    def test_append_never_scans_the_table(self, tmp_path, so_small, backing,
                                          monkeypatch):
        from repro.dataframe import Predicate
        from repro.storage import ShardedTable

        if backing == "store":
            store = DatasetStore.init(tmp_path / "store")
            so_small.to_store(store, config=small_config(), shard_rows=200)
            engine = ExplanationEngine.from_store(store)
        else:
            engine = ExplanationEngine()
            engine.register_bundle(so_small, config=small_config())
        for query in self.QUERIES:
            engine.explain(self.NAME, query)
        calls = []

        def spy(cls, method):
            real = getattr(cls, method)

            def wrapper(self, *args):
                calls.append(method)
                return real(self, *args)
            monkeypatch.setattr(cls, method, wrapper)

        for cls, method in ((Table, "select"), (ShardedTable, "select"),
                            (Predicate, "evaluate"),
                            (Predicate, "evaluate_at")):
            spy(cls, method)
        for k in range(2):
            report = engine.append_rows(
                self.NAME, Table.from_rows(self._batch(so_small, k),
                                           schema=list(so_small.table.attributes)))
            assert report["masks_carried"] > 0
        assert calls == []
        monkeypatch.undo()
        table = so_small.table
        for k in range(2):
            table = table.concat(Table.from_rows(
                self._batch(so_small, k), schema=list(table.attributes)))
        for query in self.QUERIES:
            assert _summary_payload(engine.explain(self.NAME, query)) == \
                _summary_payload(self._fresh(so_small, table, query))

    def test_k_appends_match_one_shot_on_the_concatenated_table(
            self, engine, so_small):
        table = so_small.table
        for query in self.QUERIES:
            engine.explain(self.NAME, query)
        for k in range(4):
            rows = self._batch(so_small, k)
            engine.append_rows(self.NAME, rows)
            table = table.concat(Table.from_rows(
                rows, schema=list(table.attributes)))
            # Some populations skip versions: they extend across several
            # appends at once when next asked for.
            for query in self.QUERIES[k % 2:]:
                served = engine.explain(self.NAME, query)
                assert _summary_payload(served) == \
                    _summary_payload(self._fresh(so_small, table, query))
        # The last version skipped BASE_QUERY's population: its masks wait
        # in the state's population memo.  The others were built from theirs.
        canonical = engine._canonical(BASE_QUERY)
        assert _carried(engine.dataset_state(self.NAME)) == \
            [(canonical.where_key, canonical.average)]
        stats = engine.stats()
        assert stats["population_cache"]["entries"] == 3
        assert stats["mask_caches"]["hits"] > 0

    def test_stale_reader_never_replaces_an_extended_entry(self, engine,
                                                           so_small):
        before = engine.explain(self.NAME, self.WHERE_QUERY)
        stale = engine.dataset_state(self.NAME)
        engine.append_rows(self.NAME, self._batch(so_small, 1))
        engine.explain(self.NAME, self.WHERE_QUERY)  # extends both memos
        current = engine.dataset_state(self.NAME)
        assert current.version == stale.version + 1
        canonical = engine._canonical(self.WHERE_QUERY)
        key = (canonical.where_key, canonical.average)
        extended = current.populations.get(key)
        where_masks = current.where_masks.stats()
        assert extended is not None and where_masks.entries > 0
        # A request that still holds version 0 computes on its own...
        summary, _ = engine._compute(stale, canonical)
        assert _summary_payload(summary) == _summary_payload(before)
        # ...and leaves the version-1 memos untouched.
        assert current.populations.get(key) is extended
        assert engine.dataset_state(self.NAME) is current
        assert current.where_masks.stats() == where_masks

    @pytest.mark.parametrize("order", [np.s_[::-1], np.s_[:40:-1]],
                             ids=["same_size", "shorter"])
    def test_reader_of_a_replaced_registration_is_never_extended(
            self, engine, so_small, order):
        """A request still computing on the old table after
        ``register_dataset`` replaced it leaves entries behind; the new
        registration treats them as misses instead of extending them."""
        engine.explain(self.NAME, self.WHERE_QUERY)
        stale = engine.dataset_state(self.NAME)
        table = so_small.table.take(np.arange(so_small.table.n_rows)[order])
        engine.register_dataset(
            self.NAME, table, dag=so_small.dag, config=small_config(),
            grouping_attributes=so_small.grouping_attributes,
            treatment_attributes=so_small.treatment_attributes)
        engine._compute(stale, engine._canonical(self.WHERE_QUERY))
        for query in self.QUERIES:
            assert _summary_payload(engine.explain(self.NAME, query)) == \
                _summary_payload(self._fresh(so_small, table, query))
        rows = self._batch(so_small, 1)
        engine.append_rows(self.NAME, rows)
        table = table.concat(Table.from_rows(rows, schema=list(table.attributes)))
        for query in self.QUERIES:
            assert _summary_payload(engine.explain(self.NAME, query)) == \
                _summary_payload(self._fresh(so_small, table, query))

    def test_reader_of_a_replaced_registration_leaves_nothing_behind(
            self, engine, so_small):
        """What a request on a replaced registration memoises goes with its
        state: once the request lets go of it, its table is freed."""
        def register(table):
            engine.register_dataset(
                self.NAME, table, so_small.dag, config=small_config(),
                grouping_attributes=so_small.grouping_attributes,
                treatment_attributes=so_small.treatment_attributes)

        n_rows = so_small.table.n_rows
        # A copy: the fixture's own table outlives the test.
        register(so_small.table.take(np.arange(n_rows)))
        stale = engine.dataset_state(self.NAME)
        register(stale.table.take(np.random.default_rng(0).permutation(n_rows)))
        engine._compute(stale, engine._canonical(BASE_QUERY))
        table = weakref.ref(stale.table)
        del stale
        gc.collect()
        assert table() is None

    @pytest.mark.parametrize("swap", ["append", "register"])
    def test_leader_finishing_after_a_swap_caches_nothing(
            self, engine, so_small, monkeypatch, swap):
        """A flight leader whose version an append or re-registration
        replaced while it computed serves its summary but caches nothing:
        the swap purged that version's keys, so an entry would only hold a
        slot and its bytes, and reach a snapshot."""
        explain = DatasetState.explain

        def explain_then_swap(state, *args):
            result = explain(state, *args)
            monkeypatch.setattr(DatasetState, "explain", explain)
            if swap == "append":
                engine.append_rows(self.NAME, self._batch(so_small, 0)[:5])
            else:
                engine.register_bundle(so_small, config=small_config())
            return result

        monkeypatch.setattr(DatasetState, "explain", explain_then_swap)
        summary, info = engine.explain_with_info(self.NAME, BASE_QUERY)
        assert (info["version"], info["cached"]) == (0, False)
        assert _summary_payload(summary) == _summary_payload(
            self._fresh(so_small, so_small.table, BASE_QUERY))
        assert engine.dataset_state(self.NAME).version == 1
        assert engine.summary_cache_items() == []
        assert engine.stats()["summary_cache"]["entries"] == 0

    def test_carried_masks_are_bounded(self, so_small, monkeypatch):
        """Masks no request claims are carried from append to append, so
        only the newest ``POPULATION_CACHE_SIZE`` of them are kept."""
        monkeypatch.setattr(engine_module, "POPULATION_CACHE_SIZE", 2)
        engine = ExplanationEngine()
        engine.register_bundle(so_small, config=small_config())
        keys = [engine._canonical(query) for query in self.QUERIES]
        keys = [(query.where_key, query.average) for query in keys]
        for k, queries in enumerate((self.QUERIES[:2], self.QUERIES[2:])):
            for query in queries:
                engine.explain(self.NAME, query)
            engine.append_rows(self.NAME, self._batch(so_small, k))
        assert _carried(engine.dataset_state(self.NAME)) == keys[1:]

    def test_zero_row_table_is_a_no_op(self, tmp_path, so_small):
        store = DatasetStore.init(tmp_path / "store")
        so_small.to_store(store, config=small_config(), shard_rows=200)
        engine = ExplanationEngine.from_store(store)
        engine.explain(self.NAME, BASE_QUERY)
        report = engine.append_rows(self.NAME, so_small.table.take(np.arange(0)))
        assert report == engine.append_rows(self.NAME, [])
        assert report["version"] == 0 and report["appended_rows"] == 0
        manifest = store.dataset(self.NAME).reload()
        assert (manifest.version, len(manifest.shards)) == (0, 4)
        assert engine.explain_with_info(self.NAME, BASE_QUERY)[1]["cached"]


class TestMemoHandOver:
    """Whatever appends, re-registrations and stale readers ran before, a
    summary is ``CauSumX.explain`` on its state's table: the memos an append
    hands to the next version may skip work, never change an answer."""

    NAME = "stackoverflow"
    QUERIES = TestAppendPath.QUERIES
    OPERATIONS = st.lists(st.one_of(
        st.tuples(st.just("append"), st.integers(1, 60), st.integers(0, 999)),
        st.tuples(st.just("reregister"), st.integers(0, 999)),
        st.tuples(st.just("stale"), st.integers(0, 99), st.integers(0, 2)),
        st.tuples(st.just("explain")),
    ), min_size=1, max_size=8)

    @staticmethod
    def _rows(table, n: int, seed: int) -> list[dict]:
        """``n`` rows resampled from ``table`` with float salaries; every
        third carries a country and a role no version has seen."""
        rng = np.random.default_rng(seed)
        rows = table.take(rng.integers(0, table.n_rows, n)).to_rows()
        for i, row in enumerate(rows):
            row["Salary"] = float(rng.normal(60000.0, 15000.0))
            if i % 3 == 0:
                row.update(Country=f"Atlantis {seed}", Role=f"Role {seed}")
        return rows

    def _check(self, so_small, summary, table, query) -> None:
        assert _summary_payload(summary) == \
            _summary_payload(TestAppendPath._fresh(so_small, table, query))

    @settings(max_examples=10, deadline=None)
    @given(operations=OPERATIONS)
    # Masks carried across a re-registration; a reader of the old
    # registration leaving a population behind for the next append; a
    # reader of the old version between two appends.
    @example([("explain",), ("append", 10, 0), ("reregister", 0),
              ("explain",)])
    @example([("explain",), ("reregister", 1), ("stale", 0, 1),
              ("append", 10, 1), ("explain",)])
    @example([("explain",), ("append", 10, 2), ("stale", 0, 2),
              ("explain",), ("append", 10, 3), ("explain",)])
    def test_every_summary_matches_one_shot(self, so_small, operations):
        engine = ExplanationEngine()
        engine.register_bundle(so_small, config=small_config())
        held = [engine.dataset_state(self.NAME)]
        for operation, *args in operations:
            state = engine.dataset_state(self.NAME)
            if operation == "append":
                engine.append_rows(self.NAME, self._rows(state.table, *args))
            elif operation == "reregister":
                order = np.random.default_rng(args[0]).permutation(
                    state.table.n_rows)
                engine.register_dataset(
                    self.NAME, state.table.take(order), so_small.dag,
                    config=small_config(),
                    grouping_attributes=so_small.grouping_attributes,
                    treatment_attributes=so_small.treatment_attributes)
            elif operation == "stale":
                older = held[args[0] % len(held)]
                query = self.QUERIES[args[1]]
                summary, _ = engine._compute(older, engine._canonical(query))
                self._check(so_small, summary, older.table, query)
            else:
                for query in self.QUERIES:
                    self._check(so_small, engine.explain(self.NAME, query),
                                state.table, query)
            held.append(engine.dataset_state(self.NAME))


class TestAppendReleasesBindings:
    """An append releases what the new version cannot reuse: the next
    request builds a fresh estimator over a cached population's carried
    masks, so its old bindings (row slices, atom masks, factorisations,
    estimates) go, while the masks stay."""

    NAME = "stackoverflow"
    QUERIES = TestAppendPath.QUERIES

    def test_bindings_released_masks_kept(self, engine, so_small):
        for query in self.QUERIES:
            engine.explain(self.NAME, query)
        populations = [estimator for _, estimator
                       in engine.dataset_state(self.NAME).populations.items()]
        caches = [estimator.mask_cache for estimator in populations]
        masks = [cache.stats() for cache in caches]
        held = sum(len(estimator._bound) for estimator in populations)
        released = REGISTRY.counter("repro_engine_bindings_released_total")
        released_before = released.value
        rows = so_small.table.take(range(40)).to_rows()
        report = engine.append_rows(self.NAME, rows)
        assert [len(estimator._bound) for estimator in populations] == \
            [0] * len(populations)
        assert held > 0 and released.value - released_before == held
        assert [masks for _, masks in engine.dataset_state(
            self.NAME).populations.items()] == caches
        assert [cache.stats() for cache in caches] == masks
        assert report["masks_carried"] == sum(m.entries for m in masks) > 0

        table = so_small.table.concat(
            Table.from_rows(rows, schema=list(so_small.table.attributes)))
        fresh = ExplanationEngine()
        fresh.register_dataset(
            self.NAME, table, so_small.dag, config=small_config(),
            grouping_attributes=so_small.grouping_attributes,
            treatment_attributes=so_small.treatment_attributes)
        assert table.column("Salary").values.dtype == np.float64
        for query in self.QUERIES:
            assert _summary_payload(engine.explain(self.NAME, query)) == \
                _summary_payload(fresh.explain(self.NAME, query))

    def test_rebinding_after_a_release_keeps_the_bits(self, so_small):
        from repro.causal import CATEEstimator
        from repro.dataframe import Pattern

        estimator = CATEEstimator(so_small.table, "Salary", so_small.dag,
                                  min_group_size=5)
        subpopulation = Pattern.of(("Gender", "=", "Male"))
        treatments = [Pattern.of((attribute, "=", value))
                      for attribute in ("Role", "Education", "Student")
                      for value in so_small.table.domain(attribute)[:3]]
        first = estimator.estimate_many(treatments, subpopulation)
        assert estimator.release_bindings() == 1
        assert estimator.release_bindings() == 0
        again = estimator.estimate_many(treatments, subpopulation)
        assert any(e.n_treated >= 5 for e in first)
        assert [repr(e) for e in again] == [repr(e) for e in first]
