"""Tests for the observability stack (``repro.obs``).

Covers the tracer (span nesting, contextvars propagation across the morsel
pool, the disabled no-op fast path), the unified metrics registry
(histogram math, Prometheus exposition well-formedness), the persisted
query-telemetry log (rotation, crash tolerance, never-raises appends), the
``repro obs`` aggregation CLI, and an end-to-end store-backed run that
proves every explain leaves an aggregatable telemetry record.
"""

import argparse
import json
import re
import threading
import time

import pytest

from repro.analysis import lockwatch
from repro.core import CauSumXConfig
from repro.mining.treatments import TreatmentMinerConfig
from repro.net import AdmissionController, ServingMetrics
from repro.obs import (
    LogHistogram,
    MetricsRegistry,
    TelemetryLog,
    TelemetryReader,
    read_records,
    telemetry_enabled,
    trace,
)
from repro.obs.cli import aggregate, run_obs, telemetry_directory
from repro.parallel import map_morsels, workers
from repro.service import ExplanationEngine
from repro.storage import DatasetStore

BASE_QUERY = "SELECT Country, AVG(Salary) FROM SO GROUP BY Country"
WHERE_QUERY = ("SELECT Country, AVG(Salary) FROM SO "
               "WHERE Gender = 'Woman' GROUP BY Country")


def obs_config(**overrides) -> CauSumXConfig:
    config = CauSumXConfig(
        k=3, theta=0.5, apriori_threshold=0.1, sample_size=None,
        min_group_size=5,
        treatment=TreatmentMinerConfig(max_levels=2, min_group_size=5,
                                       significance_level=0.05,
                                       max_values_per_attribute=8),
    )
    return config.with_overrides(**overrides) if overrides else config


# ------------------------------------------------------------------ tracer


class TestTracer:

    def test_span_nesting_durations_and_attrs(self):
        with trace.tracing(True):
            with trace.new_trace("request", trace_id="feed0000feed0000",
                                user="t1") as root:
                with trace.trace_span("outer", step=1) as outer:
                    trace.set_current_attr(extra="yes")
                    with trace.trace_span("inner") as inner:
                        assert trace.current_span() is inner
                        assert trace.current_trace_id() == "feed0000feed0000"
                trace.set_root_attr(status=200)
        tree = trace.span_dict(root)
        assert tree["name"] == "request"
        assert tree["attrs"] == {"user": "t1", "status": 200}
        assert tree["duration_ms"] >= 0
        (outer_dict,) = tree["children"]
        assert outer_dict["name"] == "outer"
        assert outer_dict["attrs"] == {"step": 1, "extra": "yes"}
        (inner_dict,) = outer_dict["children"]
        assert inner_dict["name"] == "inner"
        # Children finish before parents: durations nest.
        assert outer_dict["duration_ms"] >= inner_dict["duration_ms"]
        assert outer.trace_id == inner.trace_id == "feed0000feed0000"
        # The tree is JSON-serializable as-is (telemetry embeds it).
        json.dumps(tree)

    def test_disabled_is_a_strict_noop(self):
        with trace.tracing(False):
            assert not trace.enabled()
            span = trace.trace_span("anything", big=object())
            assert span is trace.NOOP
            with span as entered:
                assert entered is trace.NOOP_SPAN
                assert trace.current_span() is None
                assert trace.current_trace_id() is None
            with trace.new_trace("request") as root:
                pass
            assert trace.span_dict(root) is None
            # The shared no-op context tolerates attribute calls.
            trace.NOOP_SPAN.set(ignored=1)
            trace.set_root_attr(ignored=2)
            trace.set_current_attr(ignored=3)

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv(trace.ENV_VAR, "1")
        trace.set_enabled(None)
        try:
            assert trace.enabled()
            monkeypatch.setenv(trace.ENV_VAR, "0")
            assert not trace.enabled()
            monkeypatch.delenv(trace.ENV_VAR)
            assert not trace.enabled()  # off by default
        finally:
            trace.set_enabled(None)

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_propagation_across_map_morsels(self, width):
        seen: list[tuple[int, str]] = []

        def morsel(i: int) -> int:
            seen.append((i, trace.current_trace_id()))
            with trace.trace_span("work", item=i):
                pass
            return i * i

        with trace.tracing(True), workers(width):
            with trace.new_trace("fanout") as root:
                results = map_morsels(morsel, list(range(6)))
        assert results == [i * i for i in range(6)]
        # Every morsel saw the submitting request's trace id, whatever
        # thread it ran on.
        assert sorted(i for i, _ in seen) == list(range(6))
        assert all(tid == root.trace_id for _, tid in seen)
        tree = trace.span_dict(root)
        if width == 1:
            # Serial path: "work" spans attach directly to the root.
            assert [c["name"] for c in tree["children"]] == ["work"] * 6
        else:
            (fan,) = tree["children"]
            assert fan["name"] == "parallel.map"
            assert fan["attrs"]["morsels"] == 6
            morsels = fan["children"]
            assert [m["name"] for m in morsels] == ["parallel.morsel"] * 6
            assert all(m["attrs"]["queue_wait_ms"] >= 0 for m in morsels)
            assert [m["children"][0]["name"] for m in morsels] == ["work"] * 6


# ------------------------------------------------------------------ metrics


PROM_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.einf+-]+)$")


class TestLogHistogram:

    def test_quantiles_and_bounds(self):
        histogram = LogHistogram("latency_seconds")
        for value in (0.001, 0.01, 0.02, 0.03, 0.04):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(0.101)
        # Bucket upper bounds: the p99 bound brackets the max observation.
        assert 0.04 <= histogram.quantile(0.99) <= 0.051
        assert 0.02 <= histogram.quantile(0.5) <= 0.026

    def test_underflow_overflow_and_empty(self):
        histogram = LogHistogram("latency_seconds")
        assert histogram.quantile(0.5) == 0.0  # empty
        histogram.observe(1e-9)  # below the smallest bound
        assert histogram.quantile(0.5) <= 1e-6
        histogram.observe(1e9)  # above the largest bound
        assert histogram.quantile(0.99) == float("inf")
        counts = dict(histogram.bucket_counts())
        assert counts[float("inf")] == 2

    def test_cumulative_bucket_counts(self):
        histogram = LogHistogram("latency_seconds")
        for value in (0.005, 0.005, 0.5, 2.0):
            histogram.observe(value)
        pairs = histogram.bucket_counts()
        bounds = [b for b, _ in pairs]
        counts = [c for _, c in pairs]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)  # cumulative: non-decreasing
        assert pairs[-1] == (float("inf"), 4)


class TestMetricsRegistry:

    def test_counter_gauge_histogram_find_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", op="explain")
        counter.inc()
        counter.inc(2)
        assert registry.counter("repro_test_total", op="explain") is counter
        assert registry.counter("repro_test_total", op="stats") is not counter
        gauge = registry.gauge("repro_test_entries")
        gauge.set(7)
        histogram = registry.histogram("repro_test_seconds")
        histogram.observe(0.25)
        snap = registry.snapshot()
        assert snap["counters"]['repro_test_total{op="explain"}'] == 3
        assert snap["gauges"]["repro_test_entries"] == 7
        assert snap["histograms"]["repro_test_seconds"]["count"] == 1
        assert set(snap) == {"counters", "gauges", "histograms", "providers"}

    def test_providers_feed_snapshot_and_survive_failure(self):
        registry = MetricsRegistry()
        registry.register_provider("good", lambda: {"repro_good_value": 4})
        registry.register_provider("bad", lambda: 1 / 0)
        snap = registry.snapshot()
        assert snap["providers"] == {"good": {"repro_good_value": 4}}
        assert "repro_good_value 4" in registry.render_prometheus()

    def test_prometheus_exposition_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_requests_total", op="explain",
                         status="200").inc(5)
        registry.gauge("repro_test_tenants").set(2)
        histogram = registry.histogram("repro_test_duration_seconds")
        for value in (0.001, 0.02, 0.02, 5.0):
            histogram.observe(value)
        registry.register_provider("planner",
                                   lambda: {"repro_test_plans": 9})
        text = registry.render_prometheus()
        lines = text.strip().splitlines()
        assert lines, "exposition must not be empty"
        for line in lines:
            assert PROM_LINE.match(line), f"malformed line: {line!r}"
        # Histogram contract: cumulative buckets, +Inf equals _count.
        bucket_values = [
            float(line.rsplit(" ", 1)[1]) for line in lines
            if line.startswith('repro_test_duration_seconds_bucket{')]
        assert bucket_values == sorted(bucket_values)
        (count_line,) = [l for l in lines
                         if l.startswith("repro_test_duration_seconds_count")]
        assert bucket_values[-1] == float(count_line.rsplit(" ", 1)[1]) == 4
        # One TYPE line per family, before its samples.
        type_lines = [l.split()[2] for l in lines if l.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines))


# ------------------------------------------------------------------ telemetry


class TestTelemetryLog:

    def test_rotation_and_pruning(self, tmp_path):
        log = TelemetryLog(tmp_path, max_bytes=200, max_files=2)
        payloads = [{"kind": "explain", "i": i, "pad": "x" * 80}
                    for i in range(12)]
        for payload in payloads:
            assert log.record(payload)
        files = log.files()
        assert 1 <= len(files) <= 2  # pruned to max_files
        sequences = [int(f.stem.split("-")[1]) for f in files]
        assert sequences == sorted(sequences)
        assert sequences[-1] > 1  # rotation actually happened
        records, corrupt = read_records(tmp_path)
        assert corrupt == 0
        # Oldest records were pruned with their files; the newest survive
        # in order.
        kept = [r["i"] for r in records]
        assert kept == sorted(kept) and kept[-1] == 11
        stats = log.stats()
        assert stats["written"] == 12 and stats["errors"] == 0
        assert stats["files"] == len(files)
        log.close()

    def test_crash_tolerant_reading_and_resume(self, tmp_path):
        log = TelemetryLog(tmp_path, max_bytes=1 << 20)
        log.record({"i": 0})
        log.record({"i": 1})
        log.close()
        # Simulate a crash mid-append: torn, unterminated final line.
        latest = log.files()[-1]
        with latest.open("ab") as handle:
            handle.write(b'{"i": 2, "torn')
        records, corrupt = read_records(tmp_path)
        assert [r["i"] for r in records] == [0, 1]
        assert corrupt == 1
        # A fresh process resumes the same file after the torn line.
        resumed = TelemetryLog(tmp_path, max_bytes=1 << 20)
        assert resumed.record({"i": 3})
        records, corrupt = read_records(tmp_path)
        assert [r["i"] for r in records] == [0, 1, 3]
        assert corrupt == 1
        resumed.close()

    def test_record_never_raises(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        log = TelemetryLog(blocker / "telemetry")
        assert log.record({"i": 0}) is False  # mkdir fails underneath a file
        assert log.stats()["errors"] == 1
        assert log.stats()["written"] == 0

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryLog(tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            TelemetryLog(tmp_path, max_files=0)

    def test_read_records_missing_directory(self, tmp_path):
        records, corrupt = read_records(tmp_path / "never-created")
        assert records == [] and corrupt == 0

    def test_telemetry_enabled_matrix(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        with trace.tracing(False):
            assert not telemetry_enabled()  # follows the tracer
        with trace.tracing(True):
            assert telemetry_enabled()
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        with trace.tracing(True):
            assert not telemetry_enabled()  # env wins over the tracer
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        with trace.tracing(False):
            assert telemetry_enabled()


# ------------------------------------------------------------------ reader


class TestTelemetryReader:
    def test_version_window_filtering(self, tmp_path):
        log = TelemetryLog(tmp_path)
        log.record({"dataset": "d", "version": 0, "plan": None})
        log.record({"dataset": "d", "version": 3, "plan": None})
        log.record({"dataset": "d", "version": 9, "plan": None})
        log.record({"dataset": "other", "version": 0, "plan": None})
        log.record({"dataset": "d", "version": "bogus", "plan": None})
        log.close()
        reader = TelemetryReader(tmp_path, versions={"d": 3},
                                 min_versions={"d": 1})
        records, corrupt, stale = reader.read()
        assert corrupt == 0
        assert stale == 4  # v0 (below min), v9 (future), other, bogus
        assert [r["version"] for r in records] == [3]
        unfiltered = TelemetryReader(tmp_path)
        assert len(unfiltered.read()[0]) == 5

    def test_conjunct_stats_ranking_and_executed(self, tmp_path):
        log = TelemetryLog(tmp_path)
        for actual in (0.5, 0.7):
            log.record({"dataset": "d", "version": 0,
                        "plan": {"conjuncts": [
                            {"predicate": "a == 1",
                             "estimated_selectivity": 0.1,
                             "actual_selectivity": actual}]}})
        log.record({"dataset": "d", "version": 0,
                    "plan": {"conjuncts": [
                        {"predicate": "b == 2",
                         "estimated_selectivity": 0.2,
                         "actual_selectivity": None}]}})
        log.close()
        rows = TelemetryReader(tmp_path, versions={"d": 0}).conjunct_stats()
        assert [r["predicate"] for r in rows] == ["a == 1", "b == 2"]
        worst = rows[0]
        assert worst["count"] == 2 and worst["executed"] == 2
        assert worst["mean_abs_error"] == pytest.approx(0.5)
        assert worst["max_abs_error"] == pytest.approx(0.6)
        assert worst["mean_actual"] == pytest.approx(0.6)
        never = rows[1]
        assert never["count"] == 1 and never["executed"] == 0
        assert never["mean_abs_error"] == 0.0

    def test_obs_summary_per_conjunct(self, tmp_path, capsys):
        log = TelemetryLog(tmp_path / "telemetry")
        log.record({"dataset": "d", "version": 0, "duration_ms": 1.0,
                    "plan": {"conjuncts": [
                        {"predicate": "a == 1",
                         "estimated_selectivity": 0.1,
                         "actual_selectivity": 0.9}]}})
        log.close()
        args = argparse.Namespace(obs_command="summary",
                                  store=tmp_path, per_conjunct=5)
        assert run_obs(args) == 0
        out = capsys.readouterr().out
        assert "worst-estimated conjuncts" in out
        assert "a == 1" in out


# ------------------------------------------------------------------ CLI


class TestObsCli:

    def test_aggregate_rolls_up_records(self):
        records = [
            {"dataset": "so", "duration_ms": 10.0, "queue_wait_ms": 1.5,
             "cache_outcomes": {"summary": "miss", "plan": "miss"},
             "plan": {"conjuncts": [
                 {"estimated_selectivity": 0.5,
                  "actual_selectivity": 0.4}]}},
            {"dataset": "so", "duration_ms": 2.0,
             "cache_outcomes": {"summary": "hit"},
             "plan": {"conjuncts": [
                 {"estimated_selectivity": 0.2,
                  "actual_selectivity": 0.5}]}},
        ]
        summary = aggregate(records)
        assert summary["records"] == 2
        assert summary["by_dataset"] == {"so": 2}
        assert summary["cache_hit_rates"]["summary"] == 0.5
        assert summary["conjuncts_observed"] == 2
        assert summary["selectivity_abs_error_mean"] == pytest.approx(0.2)
        assert summary["selectivity_abs_error_max"] == pytest.approx(0.3)
        assert summary["duration_ms_mean"] == pytest.approx(6.0)
        assert summary["queue_wait_ms_max"] == pytest.approx(1.5)

    def test_summary_without_records_exits_nonzero(self, tmp_path, capsys):
        args = argparse.Namespace(obs_command="summary", store=tmp_path)
        assert run_obs(args) == 1
        assert "no telemetry records" in capsys.readouterr().out

    def test_store_root_resolves_to_telemetry_dir(self, tmp_path):
        (tmp_path / "telemetry").mkdir()
        assert telemetry_directory(tmp_path) == tmp_path / "telemetry"
        assert telemetry_directory(tmp_path / "telemetry") == \
            tmp_path / "telemetry"


# ------------------------------------------------------------------ end-to-end


class TestStoreTelemetryEndToEnd:

    @pytest.fixture(scope="class")
    def telemetered_store(self, so_bundle, tmp_path_factory):
        store = DatasetStore.init(tmp_path_factory.mktemp("obs") / "store")
        store.import_bundle(so_bundle, config=obs_config())
        engine = ExplanationEngine.from_store(store)
        name = engine.datasets()[0]
        with trace.tracing(True):
            engine.explain(name, BASE_QUERY)
            engine.explain(name, BASE_QUERY)  # summary-cache hit
            engine.explain(name, WHERE_QUERY)
        return store, engine, name

    def test_every_explain_leaves_a_record(self, telemetered_store):
        store, engine, name = telemetered_store
        records, corrupt = read_records(store.root / "telemetry")
        assert corrupt == 0
        assert len(records) == 3
        for record in records:
            assert record["kind"] == "explain"
            assert record["dataset"] == name
            assert record["fingerprint"]
            assert record["trace_id"]
            assert record["duration_ms"] >= 0
            assert record["spans"]["name"] == "engine.explain"
            assert "summary" in record["cache_outcomes"]
        assert [r["cached"] for r in records] == [False, True, False]
        assert records[0]["cache_outcomes"]["summary"] == "miss"
        assert records[1]["cache_outcomes"]["summary"] == "hit"

    def test_where_record_carries_est_vs_actual(self, telemetered_store):
        store, _, _ = telemetered_store
        records, _ = read_records(store.root / "telemetry")
        plans = [r["plan"] for r in records if r.get("plan")]
        conjuncts = [c for plan in plans
                     for c in plan.get("conjuncts") or []]
        assert conjuncts, "the WHERE query must persist its scan plan"
        assert any(c.get("estimated_selectivity") is not None
                   and c.get("actual_selectivity") is not None
                   for c in conjuncts)

    def test_aggregate_and_cli_summary(self, telemetered_store, capsys):
        store, _, name = telemetered_store
        records, _ = read_records(store.root / "telemetry")
        summary = aggregate(records)
        assert summary["records"] == 3
        assert summary["by_dataset"] == {name: 3}
        assert 0 < summary["cache_hit_rates"]["summary"] < 1
        assert summary["conjuncts_observed"] >= 1
        assert summary["selectivity_abs_error_mean"] is not None
        for command in ("summary", "top", "slow"):
            args = argparse.Namespace(obs_command=command, store=store.root,
                                      limit=5)
            assert run_obs(args) == 0
        out = capsys.readouterr().out
        assert "3 records" in out

    def test_engine_stats_surface_telemetry_and_unified(self,
                                                        telemetered_store):
        _, engine, _ = telemetered_store
        stats = engine.stats()
        assert stats["telemetry"]["written"] == 3
        assert stats["telemetry"]["errors"] == 0
        metrics = stats["metrics"]
        assert metrics["repro_engine_summary_cache_hits"] >= 1
        assert any(key.startswith("repro_planner_") for key in metrics)

    def test_plan_is_the_scan_this_request_executed(self, so_bundle,
                                                     tmp_path):
        store = DatasetStore.init(tmp_path / "store")
        store.import_bundle(so_bundle, config=obs_config())
        engine = ExplanationEngine.from_store(store)
        name = engine.datasets()[0]
        query = WHERE_QUERY.replace("Woman", "Male")  # selects rows
        with trace.tracing(True):
            engine.explain(name, query)
            engine.explain(name, query)  # summary-cache hit: no scan
        miss, hit = read_records(store.root / "telemetry")[0]
        assert [miss["cached"], hit["cached"]] == [False, True]
        (conjunct,) = miss["plan"]["conjuncts"]
        assert 0 < conjunct["estimated_selectivity"] < 1
        assert 0 < conjunct["actual_selectivity"] < 1
        assert hit["plan"] is None

    def test_tracing_off_records_nothing(self, so_bundle, tmp_path):
        store = DatasetStore.init(tmp_path / "store")
        store.import_bundle(so_bundle, config=obs_config())
        engine = ExplanationEngine.from_store(store)
        with trace.tracing(False):
            engine.explain(engine.datasets()[0], BASE_QUERY)
        records, corrupt = read_records(store.root / "telemetry")
        assert records == [] and corrupt == 0
        assert not (store.root / "telemetry").exists()


# ------------------------------------------------------------------ admission


class TestAdmissionQueueWaits:

    def test_queue_wait_is_accounted(self):
        admission = AdmissionController(max_inflight=1, max_queue=4)
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with admission.admit("a"):
                entered.set()
                release.wait(timeout=30)

        def waiter():
            entered.wait(timeout=30)
            with admission.admit("b"):
                pass

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=30)
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        stats = admission.stats()
        assert stats["queue_waits"] == 1
        assert stats["queue_wait_seconds"] > 0
        admission.close()

    def test_unqueued_admits_record_no_wait(self):
        admission = AdmissionController(max_inflight=4, max_queue=4)
        with admission.admit("a"):
            pass
        stats = admission.stats()
        assert stats["queue_waits"] == 0
        assert stats["queue_wait_seconds"] == 0.0
        admission.close()


# ------------------------------------------------------------------ lock order


class TestObsLockOrder:

    def test_observability_stack_is_acyclic_under_load(self, tmp_path):
        watch = lockwatch.enable()
        watch.reset()
        try:
            registry = MetricsRegistry()
            metrics = ServingMetrics()
            log = TelemetryLog(tmp_path, max_bytes=1 << 16, max_files=2)
            errors: list = []
            start = threading.Barrier(4)

            def storm(i: int):
                try:
                    start.wait(timeout=30)
                    with trace.tracing(True):
                        for j in range(20):
                            with trace.new_trace("load", worker=i):
                                registry.counter(
                                    "repro_test_total", op="x").inc()
                                registry.histogram(
                                    "repro_test_seconds").observe(0.001 * j)
                                metrics.record("explain", 200, 0.001,
                                               tenant=f"t{i}")
                                log.record({"i": i, "j": j})
                                map_morsels(lambda v: v + 1, [j, j + 1])
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=storm, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert log.stats()["written"] == 80
            assert metrics.snapshot()["requests_total"] == 80
            watch.assert_acyclic()
            assert watch.violations == []
        finally:
            watch.reset()
            lockwatch.disable()
