"""Tests for the HTTP serving tier (``repro.net``)."""

import io
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.analysis import lockwatch
from repro.core import CauSumXConfig, summary_to_dict
from repro.datasets import load_dataset
from repro.obs import trace as obs_trace
from repro.mining.treatments import TreatmentMinerConfig
from repro.net import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    RequestShed,
    ServingMetrics,
    TenantRegistry,
    create_server,
    serve_in_thread,
    validate_tenant,
)
from repro.service import ExplanationEngine, ProtocolError, serve_loop
from repro.storage import DatasetStore

BASE_QUERY = "SELECT Country, AVG(Salary) FROM SO GROUP BY Country"
OTHER_QUERY = "SELECT Role, AVG(Salary) FROM SO GROUP BY Role"


def net_config(**overrides) -> CauSumXConfig:
    config = CauSumXConfig(
        k=3, theta=0.5, apriori_threshold=0.1, sample_size=None,
        min_group_size=5,
        treatment=TreatmentMinerConfig(max_levels=2, min_group_size=5,
                                       significance_level=0.05,
                                       max_values_per_attribute=8),
    )
    return config.with_overrides(**overrides) if overrides else config


def make_registry(bundle, **kwargs) -> TenantRegistry:
    kwargs.setdefault("summary_cache_size", 8)
    return TenantRegistry.single_dataset(
        bundle.name, bundle.table, dag=bundle.dag, config=net_config(),
        grouping_attributes=bundle.grouping_attributes,
        treatment_attributes=bundle.treatment_attributes, **kwargs)


@contextmanager
def live_server(registry, **server_kwargs):
    """A served ``ReproHTTPServer`` on an ephemeral port, always closed."""
    server = create_server(registry, "127.0.0.1", 0, **server_kwargs)
    serve_in_thread(server)
    try:
        yield server
    finally:
        server.graceful_shutdown(drain_timeout=30.0)


def http_request(server, method, path, body=None, headers=None,
                 timeout=120.0):
    """A minimal HTTP/1.1 client; returns ``(status, raw body bytes)``.

    Deliberately socket-level (no urllib) so the response body bytes arrive
    exactly as sent — the byte-identity tests compare them verbatim.
    """
    host, port = server.server_address[:2]
    payload = b""
    if body is not None:
        payload = body if isinstance(body, bytes) \
            else json.dumps(body).encode("utf-8")
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}",
             "Connection: close", f"Content-Length: {len(payload)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(request)
        raw = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    header_text = head.decode("latin-1").lower()
    length = None
    for line in header_text.splitlines():
        if line.startswith("content-length:"):
            length = int(line.split(":", 1)[1].strip())
    body_bytes = rest if length is None else rest[:length]
    return status, body_bytes


def post_json(server, path, body=None, headers=None, timeout=120.0):
    status, raw = http_request(server, "POST", path, body=body,
                               headers=headers, timeout=timeout)
    return status, json.loads(raw)


def strip_volatile_tail(body: bytes) -> bytes:
    """Serialized body minus the per-request observability tail.

    With tracing off this is the identity (the envelope has no ``trace_id``
    / ``duration_ms``), so the byte-identity assertions stay exact; with
    tracing on (``REPRO_TRACE=1`` CI leg) it pops exactly the two volatile
    trailing fields — deterministic envelope ordering guarantees nothing
    else differs.
    """
    if not obs_trace.enabled():
        return body
    decoded = json.loads(body)
    if isinstance(decoded, dict):
        keys = list(decoded)
        volatile = [k for k in ("trace_id", "duration_ms") if k in decoded]
        if volatile:  # the tail fields must come last, in order
            assert keys[-len(volatile):] == volatile, keys
        for key in volatile:
            decoded.pop(key)
    return (json.dumps(decoded, default=str) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def so_net(so_bundle):
    return so_bundle


# ------------------------------------------------------------------ admission


class TestAdmissionController:
    def test_admits_within_capacity(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        with admission.admit("a"):
            with admission.admit("b"):
                stats = admission.stats()
                assert stats["inflight"] == 2
        stats = admission.stats()
        assert stats["inflight"] == 0
        assert stats["admitted"] == 2
        assert stats["peak_inflight"] == 2

    def test_sheds_when_queue_full(self):
        admission = AdmissionController(max_inflight=1, max_queue=0)
        with admission.admit("a"):
            with pytest.raises(RequestShed):
                with admission.admit("b"):
                    pass  # pragma: no cover
        assert admission.stats()["shed"] == 1
        # The slot freed up: the same request is now admitted.
        with admission.admit("b"):
            pass

    def test_per_tenant_cap_sheds_only_that_tenant(self):
        admission = AdmissionController(max_inflight=8, max_queue=8,
                                        tenant_inflight=1)
        with admission.admit("hog"):
            with pytest.raises(RequestShed):
                with admission.admit("hog"):
                    pass  # pragma: no cover
            with admission.admit("other"):
                pass

    def test_queued_request_proceeds_when_slot_frees(self):
        admission = AdmissionController(max_inflight=1, max_queue=4)
        entered = threading.Event()
        release = threading.Event()
        done = threading.Event()

        def holder():
            with admission.admit("a"):
                entered.set()
                release.wait(timeout=30)

        def waiter():
            entered.wait(timeout=30)
            with admission.admit("b"):
                done.set()

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=30)
        assert not done.is_set()  # queued behind the held slot
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert done.is_set()
        assert admission.stats()["peak_queued"] == 1

    def test_deadline_expires_while_queued(self):
        admission = AdmissionController(max_inflight=1, max_queue=4)
        with admission.admit("a"):
            with pytest.raises(DeadlineExceeded):
                with admission.admit("b", Deadline(0.05)):
                    pass  # pragma: no cover
        stats = admission.stats()
        assert stats["deadline_rejects"] == 1
        assert stats["queued"] == 0
        assert "b" not in admission._per_tenant  # tenant count fully released

    def test_close_sheds_with_draining_and_drain_waits(self):
        admission = AdmissionController(max_inflight=2, max_queue=2)
        release = threading.Event()
        entered = threading.Event()

        def holder():
            with admission.admit("a"):
                entered.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=holder)
        thread.start()
        entered.wait(timeout=30)
        admission.close()
        with pytest.raises(RequestShed) as excinfo:
            with admission.admit("b"):
                pass  # pragma: no cover
        assert excinfo.value.code == "draining"
        assert not admission.drain(timeout=0.05)  # holder still inside
        release.set()
        assert admission.drain(timeout=30)
        thread.join(timeout=30)


class TestServingMetrics:
    def test_counters_quantiles_and_text_exposition(self):
        metrics = ServingMetrics()
        for i in range(4):
            metrics.record("explain", 200, 0.010 * (i + 1), tenant="a")
        metrics.record("explain", 429, 0.001, tenant="b")
        snap = metrics.snapshot()
        assert snap["requests_total"] == 5
        assert snap["requests"]["explain"]["200"] == 4
        assert snap["shed_total"] == 1
        assert snap["active_tenants"] == ["a", "b"]
        # Histogram quantiles report bucket upper bounds, so they bracket
        # the observed values with one bucket's slack (≈26% geometric step).
        assert 0.001 <= snap["latency_seconds"]["p50"] \
            <= snap["latency_seconds"]["p99"] <= 0.051
        text = metrics.render_text()
        assert 'repro_http_requests_total{op="explain",status="429"} 1' in text
        assert "repro_http_shed_total 1" in text
        # The histogram family exports cumulative buckets ending at +Inf.
        assert "# TYPE repro_http_request_duration_seconds histogram" in text
        assert 'repro_http_request_duration_seconds_bucket{le="+Inf"} 5' \
            in text
        assert "repro_http_request_duration_seconds_count 5" in text

    def test_no_truncation_under_sustained_load(self):
        # The old fixed-size latency ring silently dropped all but the
        # newest samples; the histogram keeps every observation.
        metrics = ServingMetrics()
        for i in range(10_000):
            metrics.record("stats", 200, 0.001 if i % 2 else 0.9)
        snap = metrics.snapshot()
        assert snap["latency_seconds"]["window"] == 10_000
        # Both modes stay visible: p50 near the fast mode, p99 at the slow.
        assert snap["latency_seconds"]["p50"] <= 0.01
        assert snap["latency_seconds"]["p99"] >= 0.8


class TestDeadline:
    def test_check_raises_after_expiry(self):
        deadline = Deadline(0.01)
        assert deadline.remaining() <= 0.01
        time.sleep(0.02)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded):
            deadline.check("unit test")

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"),
                                         float("-inf"), -1.0,
                                         2 * threading.TIMEOUT_MAX])
    def test_rejects_non_finite_budget(self, seconds):
        with pytest.raises(ValueError, match="finite positive"):
            Deadline(seconds)


# ------------------------------------------------------------------ registry


class TestTenantRegistry:
    def test_validate_tenant(self):
        assert validate_tenant("team-a.prod_1") == "team-a.prod_1"
        for bad in ("", "a/b", "x" * 65, "sp ace", None):
            with pytest.raises(ProtocolError):
                validate_tenant(bad)

    def test_store_default_is_its_first_dataset(self, so_net, tmp_path):
        """A store of several datasets serves its first by name to requests
        that name none: the rule every ``--store`` command follows."""
        store = DatasetStore.init(tmp_path / "store")
        store.import_bundle(so_net, config=net_config())
        store.import_bundle(load_dataset("german", n=200, seed=0))
        assert store.dataset_names() == ["german", "stackoverflow"]
        registry = TenantRegistry.from_store(store)
        assert registry.default_dataset == "german"
        assert TenantRegistry.from_store(
            store, default_dataset="stackoverflow").default_dataset == \
            "stackoverflow"

    def test_lazy_isolated_engines(self, so_net):
        registry = make_registry(so_net, summary_cache_bytes=8 << 20)
        assert registry.tenants() == []
        a = registry.engine_for("a")
        b = registry.engine_for("b")
        assert a is not b
        assert a is registry.engine_for("a")  # memoized
        assert registry.tenants() == ["a", "b"]
        # Each tenant's summary cache is its own, capped at the full size.
        a.explain(registry.default_dataset, BASE_QUERY)
        budgets = [engine.stats()["memory_budget"] for engine in (a, b)]
        assert [budget["capacity_bytes"] for budget in budgets] == \
            [8 << 20, 8 << 20]
        assert budgets[0]["bytes"] > 0 and budgets[1]["bytes"] == 0
        assert b.summary_cache_items() == []

    def test_tenant_cap(self, so_net):
        registry = make_registry(so_net, max_tenants=1)
        registry.engine_for("a")
        with pytest.raises(ProtocolError) as excinfo:
            registry.engine_for("b")
        assert excinfo.value.code == "bad_request"

    def test_append_isolated_between_tenants(self, so_net):
        registry = make_registry(so_net)
        a = registry.engine_for("a")
        b = registry.engine_for("b")
        name = so_net.name
        before = b.dataset_state(name).version
        row = so_net.table.take([0]).to_rows()[0]
        result = a.append_rows(name, [row])
        assert result["version"] == before + 1
        assert b.dataset_state(name).version == before  # b untouched
        assert b.dataset_state(name).table.n_rows \
            == a.dataset_state(name).table.n_rows - 1


# ------------------------------------------------------------------ HTTP


class TestHTTPServer:
    def test_healthz_metrics_and_explain(self, so_net):
        registry = make_registry(so_net)
        with live_server(registry) as server:
            status, body = post_json(server, "/v1/explain",
                                     {"query": BASE_QUERY, "id": 42})
            assert status == 200
            assert body["ok"] is True
            assert body["id"] == 42
            assert body["result"]["k"] == 3
            assert body["cached"] is False

            status, raw = http_request(server, "GET", "/healthz")
            assert status == 200
            assert json.loads(raw)["status"] == "serving"

            status, metrics = http_request(server, "GET", "/metrics")
            metrics = json.loads(metrics)
            assert status == 200
            assert metrics["http"]["requests"]["explain"]["200"] == 1
            assert metrics["admission"]["admitted"] == 1
            assert metrics["tenants"] == ["default"]

            status, text = http_request(server, "GET", "/metrics?format=text")
            assert status == 200
            exposition = text.decode()
            assert 'repro_http_requests_total{op="explain",status="200"} 1' \
                in exposition
            assert 'repro_http_latency_seconds{quantile="0.99"}' in exposition

            # The engine's own stats op surfaces the same HTTP section.
            status, stats = post_json(server, "/v1/stats")
            assert status == 200
            http_section = stats["result"]["http"]
            assert http_section["requests"]["explain"]["200"] == 1
            assert "default" in http_section["active_tenants"]

    def test_protocol_errors_map_to_statuses(self, so_net):
        registry = make_registry(so_net)
        with live_server(registry) as server:
            cases = [
                ("/v1/explain", b"{not json", None, 400, "bad_request"),
                ("/v1/explain", [1, 2], None, 400, "bad_request"),
                ("/v1/explain", {"op": "stats"}, None, 400, "bad_request"),
                ("/v1/explain", {}, None, 400, "bad_request"),  # missing query
                ("/v1/explain", {"query": "SELECT"}, None, 400, "bad_request"),
                ("/v1/quit", None, None, 404, "unknown_op"),
                ("/v2/explain", None, None, 404, "unknown_op"),
                ("/v1/explain", {"query": BASE_QUERY, "dataset": "nope"},
                 None, 404, "unknown_dataset"),
                ("/v1/stats", None, {"X-Repro-Tenant": "bad/name"},
                 400, "bad_request"),
                ("/v1/stats", None, {"X-Repro-Deadline-Ms": "-3"},
                 400, "bad_request"),
            ]
            for path, body, headers, expected_status, expected_code in cases:
                status, response = post_json(server, path, body=body,
                                             headers=headers)
                assert status == expected_status, (path, response)
                assert response["ok"] is False
                assert response["error_code"] == expected_code

    def test_saturated_queue_sheds_429(self, so_net):
        registry = make_registry(so_net)
        with live_server(registry, max_inflight=1, max_queue=0) as server:
            # Hold the only slot directly so the shed is deterministic.
            with server.admission.admit("holder"):
                status, response = post_json(server, "/v1/stats")
                assert status == 429
                assert response["error_code"] == "shed"
            assert server.metrics.snapshot()["shed_total"] == 1
            status, _ = post_json(server, "/v1/stats")
            assert status == 200  # recovered once the slot freed

    def test_tenant_cap_shed_does_not_affect_others(self, so_net):
        registry = make_registry(so_net)
        with live_server(registry, max_inflight=8, max_queue=8,
                         tenant_inflight=1) as server:
            with server.admission.admit("hog"):
                status, response = post_json(
                    server, "/v1/stats", headers={"X-Repro-Tenant": "hog"})
                assert status == 429
                status, _ = post_json(
                    server, "/v1/stats", headers={"X-Repro-Tenant": "quiet"})
                assert status == 200

    def test_deadline_expiry_returns_504(self, so_net):
        registry = make_registry(so_net)
        with live_server(registry, max_inflight=1, max_queue=4) as server:
            with server.admission.admit("holder"):
                status, response = post_json(
                    server, "/v1/stats",
                    headers={"X-Repro-Deadline-Ms": "80"})
            assert status == 504
            assert response["error_code"] == "deadline_exceeded"
            assert server.admission.stats()["deadline_rejects"] == 1

    @pytest.mark.parametrize("header", ["nan", "NaN", "inf", "-inf", "1e400",
                                        "0", "-3", "1e-400", "soon"])
    def test_non_finite_deadline_is_bad_request(self, so_net, header):
        """A NaN deadline would make a queued request's admission wait
        return at once, busy-spinning; inf would be no deadline at all."""
        registry = make_registry(so_net)
        with live_server(registry) as server:
            status, response = post_json(
                server, "/v1/stats", headers={"X-Repro-Deadline-Ms": header})
            assert status == 400, response
            assert response["error_code"] == "bad_request"
            assert server.admission.stats()["admitted"] == 0

    def test_server_default_deadline_applies(self, so_net):
        registry = make_registry(so_net)
        with live_server(registry, max_inflight=1, max_queue=4,
                         default_deadline=0.08) as server:
            with server.admission.admit("holder"):
                status, response = post_json(server, "/v1/stats")
            assert status == 504
            assert response["error_code"] == "deadline_exceeded"

    def test_drain_sheds_new_snapshots_store_tenants(self, so_net, tmp_path):
        store = DatasetStore.init(tmp_path / "store")
        store.import_bundle(so_net, config=net_config())
        registry = TenantRegistry.from_store(store)
        server = create_server(registry, "127.0.0.1", 0)
        serve_in_thread(server)
        status, body = post_json(server, "/v1/explain",
                                 {"query": BASE_QUERY})
        assert status == 200
        # A second tenant serves from the same store but cannot write back.
        status, _ = post_json(server, "/v1/explain", {"query": BASE_QUERY},
                              headers={"X-Repro-Tenant": "guest"})
        assert status == 200
        server.admission.close()
        status, response = post_json(server, "/v1/stats")
        assert status == 503
        assert response["error_code"] == "draining"
        result = server.graceful_shutdown(drain_timeout=30.0)
        assert result["drained"] is True
        assert result["snapshots"]["default"]["summaries"] >= 1
        assert result["snapshots"]["guest"] is None  # no write-back
        # The snapshot warm-restarts byte-identically from disk.
        restarted = ExplanationEngine.from_store(store)
        assert restarted.stats()["restored_summaries"] >= 1

    def test_concurrent_mixed_load_is_correct_and_acyclic(self, so_net):
        watch = lockwatch.enable()
        watch.reset()
        try:
            registry = make_registry(so_net, summary_cache_bytes=16 << 20)
            with live_server(registry, max_inflight=4,
                             max_queue=64) as server:
                # Warm both distinct queries once so the storm is cache-served
                # and the test exercises concurrency, not compute time.
                for query in (BASE_QUERY, OTHER_QUERY):
                    status, _ = post_json(server, "/v1/explain",
                                          {"query": query})
                    assert status == 200
                row = so_net.table.take([0]).to_rows()[0]
                errors: list = []
                statuses: list = []
                start = threading.Barrier(8)

                def reader(i: int):
                    try:
                        start.wait(timeout=60)
                        for j in range(4):
                            query = BASE_QUERY if (i + j) % 2 else OTHER_QUERY
                            op, body = ("/v1/explain", {"query": query}) \
                                if j % 4 != 3 else ("/v1/stats", None)
                            status, _ = post_json(server, op, body=body)
                            statuses.append(status)
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)

                def appender(i: int):
                    try:
                        start.wait(timeout=60)
                        for _ in range(2):
                            status, _ = post_json(
                                server, "/v1/append_rows", {"rows": [row]},
                                headers={"X-Repro-Tenant": f"writer-{i}"})
                            statuses.append(status)
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [threading.Thread(target=reader, args=(i,))
                           for i in range(6)]
                threads += [threading.Thread(target=appender, args=(i,))
                            for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not errors
                assert statuses and all(s == 200 for s in statuses)
                assert server.admission.stats()["shed"] == 0
            watch.assert_acyclic()
            assert watch.violations == []
        finally:
            watch.reset()
            lockwatch.disable()


# ------------------------------------------------------------------ response bytes


def parent_line(engine, dataset, request, kind, raw) -> bytes:
    """The line the JSON-lines loop wrote before cached bodies were
    spliced: ``json.dumps(envelope, default=str) + "\\n"``, with the
    summary the engine serves for ``request`` rendered by
    ``summary_to_dict``.  The volatile trace tail is read from ``raw``."""
    summary, info = engine.explain_with_info(dataset, request["query"])
    envelope = {"ok": True, "result": summary_to_dict(summary),
                "cached": kind in ("hit", "restored"),
                "coalesced": kind == "coalesced",
                "fingerprint": info["fingerprint"],
                "version": info["version"]}
    if "id" in request:
        envelope["id"] = request["id"]
    sent = json.loads(raw)
    for field in ("trace_id", "duration_ms"):
        if field in sent:
            envelope[field] = sent[field]
    return (json.dumps(envelope, default=str) + "\n").encode("utf-8")


class TestResponseBytes:
    """Both fronts send exactly the parent line, however the summary
    reached the envelope: computed, cached, computed by another request,
    or restored from a snapshot."""

    @pytest.fixture(scope="class")
    def snapshot_store(self, so_net, tmp_path_factory):
        store = DatasetStore.init(tmp_path_factory.mktemp("bytes") / "store")
        store.import_bundle(so_net, config=net_config())
        engine = ExplanationEngine.from_store(store)
        engine.explain(so_net.name, BASE_QUERY)
        engine.snapshot()
        return store

    @staticmethod
    def _coalesce_behind_a_leader(engine, dataset, monkeypatch):
        """Start a leader computing BASE_QUERY that finishes only once a
        second request waits on its flight."""
        from repro.service import engine as engine_module

        waiting, gate = threading.Semaphore(0), threading.Event()
        flight_class = engine_module._Flight

        class Counted(threading.Event):
            def wait(self, timeout=None):
                waiting.release()
                return super().wait(timeout)

        monkeypatch.setattr(engine_module, "_Flight",
                            lambda: flight_class(done=Counted()))
        compute = engine._compute
        monkeypatch.setattr(
            engine, "_compute",
            lambda *args: gate.wait(60) and compute(*args))
        leader = threading.Thread(target=engine.explain,
                                  args=(dataset, BASE_QUERY))
        leader.start()
        deadline = time.monotonic() + 60
        while not engine._flights and time.monotonic() < deadline:
            time.sleep(0.001)

        def release():
            waiting.acquire(timeout=60)
            gate.set()

        threading.Thread(target=release, daemon=True).start()
        return leader

    @pytest.mark.parametrize("variant", ["bare", "id", "traced"])
    @pytest.mark.parametrize("kind", ["miss", "hit", "coalesced",
                                      "restored"])
    @pytest.mark.parametrize("front", ["http", "stdin"])
    def test_body_is_the_parent_json_dumps_line(self, so_net, snapshot_store,
                                                monkeypatch, front, kind,
                                                variant):
        request = {"op": "explain", "query": BASE_QUERY}
        if variant != "bare":
            request["id"] = 9
        # A byte cap weighs each restored entry, decoding it at restore.
        registry = TenantRegistry.from_store(
            snapshot_store, summary_cache_bytes=16 << 20) \
            if kind == "restored" else make_registry(so_net)
        engine = registry.engine_for("default")
        dataset = registry.default_dataset
        leader = None
        if kind == "hit":
            engine.explain(dataset, BASE_QUERY)
        elif kind == "coalesced":
            leader = self._coalesce_behind_a_leader(engine, dataset,
                                                    monkeypatch)
        with obs_trace.tracing(variant == "traced"):
            if front == "http":
                with live_server(registry) as server:
                    status, raw = http_request(server, "POST", "/v1/explain",
                                               body=request)
                assert status == 200
            else:
                out = io.StringIO()
                serve_loop(engine, dataset, [json.dumps(request)], out)
                raw = out.getvalue().encode("utf-8")
        if leader is not None:
            leader.join(timeout=60)
            assert not leader.is_alive()
        assert ("trace_id" in json.loads(raw)) == (variant == "traced")
        assert raw == parent_line(engine, dataset, request, kind, raw)

    def test_hits_encode_nothing(self, so_net, monkeypatch):
        """After one miss, a hit neither parses nor normalises the query
        text, nor renders the summary: it sends the entry's body."""
        import repro.core.export
        import repro.service.engine
        import repro.service.server

        calls: list[str] = []
        for module, name in [(repro.core.export, "summary_to_dict"),
                             (repro.service.server, "summary_to_dict"),
                             (repro.service.engine, "parse_query"),
                             (repro.service.engine, "normalize_query")]:
            def counted(*args, _original=getattr(module, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        registry = make_registry(so_net)
        request = {"op": "explain", "query": BASE_QUERY, "id": 1}
        with obs_trace.tracing(False), live_server(registry) as server:
            status, miss = http_request(server, "POST", "/v1/explain",
                                        body=request)
            assert status == 200 and not json.loads(miss)["cached"]
            assert sorted(set(calls)) == ["normalize_query", "parse_query",
                                          "summary_to_dict"]
            del calls[:]
            for _ in range(25):
                status, hit = http_request(server, "POST", "/v1/explain",
                                           body=request)
                assert status == 200 and json.loads(hit)["cached"]
            out = io.StringIO()
            engine = server.registry.engine_for("default")
            serve_loop(engine, registry.default_dataset,
                       [json.dumps(request)] * 25, out)
        assert calls == []
        assert out.getvalue().splitlines()[-1].encode() + b"\n" == hit


# ------------------------------------------------------------------ request head


def exchange(server, data: bytes, *, then: bytes = b"", timeout=10.0):
    """Send raw bytes, read one response; ``then`` is sent after a
    ``100 Continue``.  Returns ``(status, lower-cased head, body, closed)``
    where ``closed`` says whether the server closed the connection."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(data)
        stream = conn.makefile("rb")
        status_line = stream.readline()
        if b" 100 " in status_line:
            assert stream.readline() == b"\r\n"
            conn.sendall(then)
            status_line = stream.readline()
        head = []
        while (line := stream.readline()) not in (b"\r\n", b""):
            head.append(line.decode("latin-1").lower())
        length = next(int(h.split(":", 1)[1]) for h in head
                      if h.startswith("content-length:"))
        body = stream.read(length)
        conn.settimeout(0.5)  # a kept-alive connection stays silent
        try:
            closed = stream.read(1) == b""
        except TimeoutError:
            closed = False
        stream.close()
    return int(status_line.split()[1]), "".join(head), body, closed


class TestRequestHead:
    """The handler reads the head itself, under ``http.server``'s limits and
    RFC 9112 §5's strictness; every refusal answers within the timeout and
    leaves no admission slot taken."""

    @pytest.fixture
    def server(self, so_net):
        with live_server(make_registry(so_net)) as server:
            yield server
            assert server.admission.stats()["inflight"] == 0

    STATS = b"POST /v1/stats HTTP/1.1\r\nHost: x\r\n"

    @pytest.mark.parametrize("head, status", [
        (STATS + b"X-Long: " + b"a" * 65536 + b"\r\n", 431),
        (STATS + b"".join(b"X-%d: 1\r\n" % i for i in range(101)), 431),
        (b"POST /v1/stats HTTP/2.0\r\n", 505),
        (b"POST /v1/stats HTTP/1.x\r\n", 400),
        (b"POST /v1/stats HTTP/1.\xb2\r\n", 400),
        (STATS + b"X-Fold: a\r\n  b\r\n", 400),
        (STATS + b"no colon here\r\n", 400),
        (STATS + b"X-Space : 1\r\n", 400),
        (STATS + b"Content-Length: 0\r\nContent-Length: 2\r\n", 400),
    ], ids=["long-line", "101-headers", "http2", "bad-version",
            "non-ascii-digit", "obs-fold",
            "no-colon", "space-before-colon", "two-content-lengths"])
    def test_refused_heads(self, server, head, status):
        got, _, body, closed = exchange(server, head + b"\r\n")
        assert got == status, body
        assert closed

    def test_limits_admit_what_http_server_admits(self, server):
        # 99 fields and the blank line: http.client's 100-line cap.
        head = self.STATS + b"".join(b"X-%d: 1\r\n" % i for i in range(96))
        head += b"X-Long: " + b"a" * 65000 + b"\r\n"
        assert exchange(server, head + b"Connection: close\r\n\r\n")[0] == 200

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_invalid_content_length_is_a_400(self, server, length):
        status, _, body, closed = exchange(
            server, self.STATS + b"Content-Length: " + length + b"\r\n\r\n",
            timeout=3.0)
        assert status == 400
        assert json.loads(body)["error_code"] == "bad_request"
        assert closed  # the body's framing is lost

    def test_names_are_case_insensitive_first_wins(self, server):
        payload = json.dumps({"op": "stats", "id": 5}).encode()
        head = (b"POST /v1/stats HTTP/1.1\r\ncOnTeNt-LeNgTh: %d\r\n"
                b"x-rEpRo-tEnAnT: first\r\nX-Repro-Tenant: second\r\n"
                b"CONNECTION: close\r\n\r\n" % len(payload))
        status, _, body, closed = exchange(server, head + payload)
        assert status == 200
        assert json.loads(body)["id"] == 5  # the body was read
        assert closed
        assert server.registry.tenants() == ["first"]

    def test_keep_alive_unless_connection_close(self, server):
        assert not exchange(server, self.STATS + b"\r\n")[3]
        assert exchange(server, self.STATS + b"Connection: close\r\n\r\n")[3]
        assert exchange(server, b"POST /v1/stats HTTP/1.0\r\n\r\n")[3]

    def test_expect_100_continue_is_answered(self, server):
        payload = json.dumps({"op": "stats"}).encode()
        head = self.STATS + b"Expect: 100-continue\r\nContent-Length: %d\r\n" \
            b"Connection: close\r\n\r\n" % len(payload)
        status, _, body, _ = exchange(server, head, then=payload)
        assert status == 200
        assert json.loads(body)["ok"] is True


# ------------------------------------------------------------------ observability


class TestOneWritePerResponse:
    """Head and body leave in one socket write.

    Two small writes on a keep-alive connection meet Nagle's algorithm and the
    client's delayed ACK: the body waits ~40 ms behind the header block.
    """

    @pytest.fixture
    def writes(self, monkeypatch):
        from repro.net.server import _Handler

        log: list[bytes] = []

        class Recording:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                log.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        original_setup = _Handler.setup

        def setup(handler):
            original_setup(handler)
            handler.wfile = Recording(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", setup)
        return log

    def test_every_response_kind_is_one_write(self, so_net, writes):
        registry = make_registry(so_net)
        with obs_trace.tracing(False), live_server(registry) as server:
            exchanges = [
                ("POST", "/v1/explain",
                 {"op": "explain", "query": BASE_QUERY, "id": 1}, 200),
                ("GET", "/metrics?format=text", None, 200),
                ("POST", "/v1/explain", {"query": "SELECT"}, 400),
                ("GET", "/nowhere", None, 404),
            ]
            for method, path, body, expected in exchanges:
                del writes[:]
                status, raw = http_request(server, method, path, body=body)
                assert status == expected
                assert len(writes) == 1, (path, [len(w) for w in writes])
                assert writes[0].startswith(b"HTTP/1.1 ")
                assert writes[0].endswith(b"\r\n\r\n" + raw)

    def test_traced_response_is_one_write(self, so_net, writes):
        registry = make_registry(so_net)
        with obs_trace.tracing(True), live_server(registry) as server:
            status, raw = http_request(
                server, "POST", "/v1/stats",
                headers={"X-Repro-Trace-Id": "cafe0000cafe0000"})
            assert status == 200
            assert len(writes) == 1
            head = writes[0].partition(b"\r\n\r\n")[0].lower()
            assert b"x-repro-trace-id: cafe0000cafe0000" in head
            assert writes[0].endswith(raw)


class TestHTTPObservability:
    def test_trace_id_echoed_in_envelope_header_and_errors(self, so_net):
        registry = make_registry(so_net)
        with obs_trace.tracing(True), live_server(registry) as server:
            status, raw = http_request(
                server, "POST", "/v1/explain",
                body={"op": "explain", "query": BASE_QUERY, "id": 3},
                headers={"X-Repro-Trace-Id": "feedc0de00000001"})
            assert status == 200
            body = json.loads(raw)
            assert body["trace_id"] == "feedc0de00000001"
            assert isinstance(body["duration_ms"], float)
            # Deterministic envelope tail: id, trace_id, duration_ms — last.
            assert list(body)[-3:] == ["id", "trace_id", "duration_ms"]
            # Error envelopes carry the trace id too.
            status, raw = http_request(server, "POST", "/v1/explain",
                                       body={"query": "SELECT"},
                                       headers={"X-Repro-Trace-Id": "abc123"})
            assert status == 400
            error_body = json.loads(raw)
            assert error_body["ok"] is False
            assert error_body["trace_id"] == "abc123"
            # A request without the header gets a generated 16-hex id.
            status, raw = http_request(server, "POST", "/v1/stats")
            generated = json.loads(raw)["trace_id"]
            assert len(generated) == 16
            int(generated, 16)

    def test_trace_id_response_header(self, so_net):
        registry = make_registry(so_net)
        with obs_trace.tracing(True), live_server(registry) as server:
            host, port = server.server_address[:2]
            payload = json.dumps({"op": "stats"}).encode()
            request = (f"POST /v1/stats HTTP/1.1\r\nHost: {host}:{port}\r\n"
                       f"Connection: close\r\n"
                       f"X-Repro-Trace-Id: cafe0000cafe0000\r\n"
                       f"Content-Length: {len(payload)}\r\n\r\n"
                       ).encode() + payload
            with socket.create_connection((host, port), timeout=120) as conn:
                conn.sendall(request)
                raw = b""
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            head = raw.partition(b"\r\n\r\n")[0].decode("latin-1")
            assert "x-repro-trace-id: cafe0000cafe0000" in head.lower()

    def test_tracing_off_omits_trace_fields_and_header(self, so_net):
        registry = make_registry(so_net)
        with obs_trace.tracing(False), live_server(registry) as server:
            status, raw = http_request(
                server, "POST", "/v1/stats",
                headers={"X-Repro-Trace-Id": "feedc0de00000001"})
            assert status == 200
            body = json.loads(raw)
            assert "trace_id" not in body
            assert "duration_ms" not in body

    def test_byte_identity_with_tracing_on(self, so_net):
        registry = make_registry(so_net)
        with obs_trace.tracing(True), live_server(registry) as server:
            request = {"op": "explain", "query": BASE_QUERY, "id": 9}
            http_request(server, "POST", "/v1/explain", body=request)  # warm
            _, via_http = http_request(server, "POST", "/v1/explain",
                                       body=request)
            engine = server.registry.engine_for("default")
            out = __import__("io").StringIO()
            serve_loop(engine, registry.default_dataset,
                       [json.dumps(request)], out)
            via_stdin = out.getvalue().encode("utf-8")
            assert via_http != via_stdin  # trace ids differ...
            assert strip_volatile_tail(via_http) == \
                strip_volatile_tail(via_stdin)  # ...and nothing else

    def test_shed_while_queued_counted_exactly_once(self, so_net):
        # Regression pin for the queue-drop accounting fixed with the
        # serving tier: a request shed *while queued* (drain began during
        # its wait) must appear exactly once in shed_total and exactly once
        # in its per-status counter — not once per counter family per path.
        registry = make_registry(so_net)
        server = create_server(registry, "127.0.0.1", 0,
                               max_inflight=1, max_queue=4)
        serve_in_thread(server)
        entered = threading.Event()
        release = threading.Event()
        results: list = []
        try:
            def holder():
                with server.admission.admit("holder"):
                    entered.set()
                    release.wait(timeout=30)

            def queued():
                results.append(post_json(server, "/v1/stats"))

            hold_thread = threading.Thread(target=holder)
            hold_thread.start()
            assert entered.wait(timeout=30)
            queued_thread = threading.Thread(target=queued)
            queued_thread.start()
            deadline = time.monotonic() + 30
            while server.admission.stats()["queued"] < 1:
                assert time.monotonic() < deadline, "request never queued"
                time.sleep(0.005)
            server.admission.close()  # shed the queued request mid-wait
            queued_thread.join(timeout=30)
            release.set()
            hold_thread.join(timeout=30)
            status, body = results[0]
            assert status == 503
            assert body["error_code"] == "draining"
            snap = server.metrics.snapshot()
            assert snap["shed_total"] == 1
            assert snap["requests"]["stats"]["503"] == 1
            assert snap["requests_total"] == 1
        finally:
            release.set()
            server.graceful_shutdown(drain_timeout=5.0)

    def test_unified_metrics_on_metrics_endpoint(self, so_net):
        registry = make_registry(so_net)
        with live_server(registry) as server:
            post_json(server, "/v1/explain", {"query": BASE_QUERY})
            status, raw = http_request(server, "GET", "/metrics")
            assert status == 200
            body = json.loads(raw)
            unified = body["unified"]
            assert set(unified) == {"counters", "gauges", "histograms",
                                    "providers"}
            # Global-stat providers surface under the unified vocabulary.
            assert any(key.startswith("repro_planner_")
                       for key in unified["providers"].get("planner", {}))
            assert any(key.startswith("repro_parallel_")
                       for key in unified["providers"].get("parallel", {}))
            status, raw = http_request(server, "GET", "/metrics?format=text")
            assert status == 200
            text = raw.decode("utf-8")
            assert "# TYPE repro_http_requests_total counter" in text
            assert "repro_planner_shards_scanned" in text
