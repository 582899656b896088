"""HTTP serving-tier load benchmark — concurrency, latency, byte-identity.

Drives hundreds of concurrent clients against a live
:class:`repro.net.ReproHTTPServer` with the workload shape from ROADMAP
item 1 (many users, few datasets, highly repetitive queries, a trickle of
appends) and gates:

* **Byte-identical responses under concurrency**: every response collected
  during the storm equals — after stripping the wall-clock fields
  (``timings`` inside the result, the ``cached``/``coalesced`` serving
  flags) — the response a *serial replay* of the same per-client request
  streams produces against a fresh server stack.  Readers share one hot
  tenant (explanations are deterministic, so interleaving cannot show);
  each appender owns its tenant, so its version sequence is its own
  program order.

* **Zero shed below the admission threshold**: the queue is provisioned for
  the client count, so admission control must pass everything — 200
  concurrent clients, 0 × 429.

* **Latency and throughput floors**: p50 ≤ ``MAX_P50_SECONDS``, p99 ≤
  ``MAX_P99_SECONDS`` over per-request client-side latencies, and overall
  throughput ≥ ``MIN_THROUGHPUT`` requests/second.  The floors are
  conservative: the storm is cache-served (each distinct query is warmed
  once), so requests cost queue wait + dispatch, not mining time.  The
  smoke-sized run holds p50 to ``SMOKE_MAX_P50_SECONDS`` instead, which a
  response split over two socket writes cannot meet.

* **Lockwatch acyclicity under load**: a second, smaller burst runs against
  a stack built with lock watching enabled; the recorded acquisition-order
  graph must be acyclic.

Usable both as a pytest-benchmark test and as a standalone script for CI
smoke runs (writes ``benchmarks/results/bench_http_load.json``)::

    PYTHONPATH=src python benchmarks/bench_http_load.py [--smoke]
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis import lockwatch  # noqa: E402
from repro.core import CauSumXConfig  # noqa: E402
from repro.datasets import make_stackoverflow  # noqa: E402
from repro.mining.treatments import TreatmentMinerConfig  # noqa: E402
from repro.net import TenantRegistry, create_server, serve_in_thread  # noqa: E402
from repro.service import handle_request  # noqa: E402

N_CLIENTS = 200          # concurrent reader clients (full run)
N_APPENDERS = 8          # concurrent appender clients, one tenant each
REQUESTS_PER_CLIENT = 4
APPENDS_PER_CLIENT = 2
SMOKE_CLIENTS = 24
SMOKE_APPENDERS = 4
MAX_P50_SECONDS = 0.50
# The smoke's storm is small enough that its p50 is the keep-alive round trip
# itself (5-12 ms on a 2-CPU host).  A response sent as two socket writes
# stalls 40+ ms on Nagle + delayed ACK whatever the load, so this ceiling is
# the tripwire for that regression.
SMOKE_MAX_P50_SECONDS = 0.020
MAX_P99_SECONDS = 5.00
MIN_THROUGHPUT = 30.0    # requests/second over the whole storm
MAX_INFLIGHT = 8
DATASET_ROWS = 400

QUERIES = (
    "SELECT Country, AVG(Salary) FROM SO GROUP BY Country",
    "SELECT Role, AVG(Salary) FROM SO GROUP BY Role",
    "SELECT Education, AVG(Salary) FROM SO GROUP BY Education",
    "SELECT Country, AVG(Salary) FROM SO WHERE Gender = 'Woman' "
    "GROUP BY Country",
)


def _config() -> CauSumXConfig:
    return CauSumXConfig(
        k=3, theta=0.5, apriori_threshold=0.1, sample_size=None,
        min_group_size=5,
        treatment=TreatmentMinerConfig(max_levels=2, min_group_size=5,
                                       significance_level=0.05,
                                       max_values_per_attribute=8),
    )


def _make_registry(bundle) -> TenantRegistry:
    return TenantRegistry.single_dataset(
        bundle.name, bundle.table, dag=bundle.dag, config=_config(),
        grouping_attributes=bundle.grouping_attributes,
        treatment_attributes=bundle.treatment_attributes,
        summary_cache_bytes=32 << 20, max_tenants=256,
        summary_cache_size=16)


def _normalize(raw: bytes) -> str:
    """Canonical response bytes with the wall-clock-dependent fields removed."""
    payload = json.loads(raw)
    payload.pop("cached", None)
    payload.pop("coalesced", None)
    if isinstance(payload.get("result"), dict):
        payload["result"].pop("timings", None)
    return json.dumps(payload, sort_keys=True)


def _client_streams(n_clients: int, n_appenders: int, bundle) -> list[list]:
    """Per-client request streams: ``(tenant, path, request_dict)`` tuples."""
    row = bundle.table.take([0]).to_rows()[0]
    streams = []
    for i in range(n_clients):
        stream = []
        for j in range(REQUESTS_PER_CLIENT):
            query = QUERIES[(i + j) % len(QUERIES)]
            stream.append(("default", "/v1/explain",
                           {"op": "explain", "query": query,
                            "id": i * REQUESTS_PER_CLIENT + j}))
        streams.append(stream)
    for i in range(n_appenders):
        tenant = f"writer-{i}"
        streams.append([(tenant, "/v1/append_rows",
                         {"op": "append_rows", "rows": [row]})
                        for _ in range(APPENDS_PER_CLIENT)])
    return streams


def _run_storm(server, streams: list[list]):
    """Fire every client stream concurrently; collect latencies + responses."""
    host, port = server.server_address[:2]
    start = threading.Barrier(len(streams))
    latencies: list[float] = []
    responses: list[list] = [None] * len(streams)
    errors: list = []
    lock = threading.Lock()

    def client(index: int, stream: list):
        mine = []
        try:
            conn = http.client.HTTPConnection(host, port, timeout=120)
            start.wait(timeout=120)
            for tenant, path, request in stream:
                begin = time.perf_counter()
                conn.request("POST", path, body=json.dumps(request),
                             headers={"X-Repro-Tenant": tenant})
                reply = conn.getresponse()
                raw = reply.read()
                elapsed = time.perf_counter() - begin
                mine.append((reply.status, raw))
                with lock:
                    latencies.append(elapsed)
            conn.close()
            responses[index] = mine
        except BaseException as exc:  # pragma: no cover - surfaced in gates
            with lock:
                errors.append(f"client {index}: {exc!r}")

    threads = [threading.Thread(target=client, args=(i, stream))
               for i, stream in enumerate(streams)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - begin
    return wall, latencies, responses, errors


def _serial_replay(streams: list[list], bundle) -> list[list]:
    """The same per-client streams against a fresh stack, one at a time."""
    registry = _make_registry(bundle)
    replayed = []
    for stream in streams:
        mine = []
        for tenant, _, request in stream:
            engine = registry.engine_for(tenant)
            response = handle_request(engine, registry.default_dataset,
                                      json.dumps(request))
            mine.append(_normalize(
                (json.dumps(response, default=str) + "\n").encode("utf-8")))
        replayed.append(mine)
    return replayed


def _lockwatch_burst(bundle, n_clients: int) -> dict:
    """A smaller concurrent burst over a lock-watched stack (untimed gate)."""
    watch = lockwatch.enable()
    watch.reset()
    try:
        registry = _make_registry(bundle)
        server = create_server(registry, "127.0.0.1", 0,
                               max_inflight=MAX_INFLIGHT,
                               max_queue=max(n_clients, 16))
        serve_in_thread(server)
        try:
            streams = _client_streams(n_clients, 2, bundle)
            _, _, responses, errors = _run_storm(server, streams)
            statuses = [status for mine in responses if mine
                        for status, _ in mine]
        finally:
            server.graceful_shutdown(drain_timeout=60.0)
        watch.assert_acyclic()
        return {"lockwatch_acyclic": not watch.violations,
                "lockwatch_acquisitions": watch.acquisitions,
                "lockwatch_errors": errors,
                "lockwatch_all_ok": bool(statuses)
                and all(s == 200 for s in statuses)}
    except lockwatch.LockOrderError as exc:
        return {"lockwatch_acyclic": False, "lockwatch_acquisitions": 0,
                "lockwatch_errors": [str(exc)], "lockwatch_all_ok": False}
    finally:
        watch.reset()
        lockwatch.disable()


def run_load(n_clients: int = N_CLIENTS,
             n_appenders: int = N_APPENDERS) -> dict:
    bundle = make_stackoverflow(n=DATASET_ROWS, seed=7)
    registry = _make_registry(bundle)
    server = create_server(registry, "127.0.0.1", 0,
                           max_inflight=MAX_INFLIGHT,
                           # Provisioned for the client count: nothing below
                           # the admission threshold may shed.
                           max_queue=n_clients + n_appenders)
    serve_in_thread(server)
    try:
        # Warm each distinct query once so the storm measures serving, not
        # first-compute mining time.
        warm_engine = registry.engine_for("default")
        for query in QUERIES:
            warm_engine.explain(registry.default_dataset, query)

        streams = _client_streams(n_clients, n_appenders, bundle)
        wall, latencies, responses, errors = _run_storm(server, streams)
        admission = server.admission.stats()
        metrics = server.metrics.snapshot()
    finally:
        server.graceful_shutdown(drain_timeout=60.0)

    statuses = [status for mine in responses if mine for status, _ in mine]
    normalized = [[_normalize(raw) for _, raw in mine] if mine else None
                  for mine in responses]
    replayed = _serial_replay(streams, bundle)
    mismatches = sum(
        1 for mine, theirs in zip(normalized, replayed)
        if mine is None or mine != theirs)

    total = len(statuses)
    lat = np.asarray(latencies, dtype=np.float64)
    row = {
        "clients": n_clients,
        "appenders": n_appenders,
        "requests": total,
        "errors": errors,
        "non_200": sum(1 for s in statuses if s != 200),
        "shed": admission["shed"],
        "peak_inflight": admission["peak_inflight"],
        "peak_queued": admission["peak_queued"],
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(total / max(wall, 1e-9), 1),
        "p50_seconds": round(float(np.percentile(lat, 50)), 4) if total else 0,
        "p99_seconds": round(float(np.percentile(lat, 99)), 4) if total else 0,
        "replay_mismatches": mismatches,
        "server_p99_seconds": metrics["latency_seconds"]["p99"],
    }
    row.update(_lockwatch_burst(bundle, n_clients=min(n_clients, 16)))
    return row


def _check(row: dict, max_p50: float = MAX_P50_SECONDS) -> list[str]:
    failures = []
    if row["errors"]:
        failures.append(f"client errors: {row['errors'][:3]}")
    if row["non_200"]:
        failures.append(f"{row['non_200']} non-200 response(s)")
    if row["shed"]:
        failures.append(f"{row['shed']} request(s) shed below the admission "
                        f"threshold (queue was provisioned for the load)")
    if row["replay_mismatches"]:
        failures.append(f"{row['replay_mismatches']} client stream(s) not "
                        f"byte-identical to the serial replay")
    if row["p50_seconds"] > max_p50:
        failures.append(f"p50 {row['p50_seconds']:.3f}s above the "
                        f"{max_p50}s ceiling")
    if row["p99_seconds"] > MAX_P99_SECONDS:
        failures.append(f"p99 {row['p99_seconds']:.3f}s above the "
                        f"{MAX_P99_SECONDS}s ceiling")
    if row["throughput_rps"] < MIN_THROUGHPUT:
        failures.append(f"throughput {row['throughput_rps']:.1f} req/s below "
                        f"the {MIN_THROUGHPUT} req/s floor")
    if not row["lockwatch_acyclic"]:
        failures.append("lock-order cycle observed under concurrent load")
    if not row["lockwatch_all_ok"]:
        failures.append(f"lock-watched burst failed: "
                        f"{row['lockwatch_errors'][:3]}")
    return failures


EXPECTED_SHAPE = (f"{N_CLIENTS} concurrent clients, 0 shed, byte-identical "
                  f"to serial replay, p50 <= {MAX_P50_SECONDS}s, "
                  f"p99 <= {MAX_P99_SECONDS}s, "
                  f">= {MIN_THROUGHPUT} req/s, lockwatch acyclic")


def test_http_load(benchmark):
    """Mixed explain/append storm: identical bytes, bounded latency, 0 shed."""
    from conftest import record_rows

    row = benchmark.pedantic(run_load,
                             kwargs={"n_clients": SMOKE_CLIENTS,
                                     "n_appenders": SMOKE_APPENDERS},
                             rounds=1, iterations=1)
    record_rows(benchmark, [row],
                paper_reference="ROADMAP item 1: concurrent serving tier",
                expected_shape=EXPECTED_SHAPE)
    failures = _check(row, max_p50=SMOKE_MAX_P50_SECONDS)
    assert not failures, (row, failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced client count for CI "
                             f"({SMOKE_CLIENTS} clients)")
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--appenders", type=int, default=None)
    args = parser.parse_args(argv)
    n_clients = args.clients if args.clients is not None else \
        (SMOKE_CLIENTS if args.smoke else N_CLIENTS)
    n_appenders = args.appenders if args.appenders is not None else \
        (SMOKE_APPENDERS if args.smoke else N_APPENDERS)

    row = run_load(n_clients=n_clients, n_appenders=n_appenders)
    print(f"http load: {row['clients']} clients + {row['appenders']} "
          f"appenders, {row['requests']} requests in "
          f"{row['wall_seconds']:.2f}s ({row['throughput_rps']:.0f} req/s)")
    print(f"  latency: p50 {row['p50_seconds'] * 1000:.1f}ms  "
          f"p99 {row['p99_seconds'] * 1000:.1f}ms  "
          f"peak inflight {row['peak_inflight']}  "
          f"peak queued {row['peak_queued']}  shed {row['shed']}")
    print(f"  replay mismatches: {row['replay_mismatches']}  "
          f"lockwatch: {'acyclic' if row['lockwatch_acyclic'] else 'CYCLE'} "
          f"({row['lockwatch_acquisitions']} watched acquisitions)")

    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {"benchmark": "bench_http_load", "rows": [row],
               "expected_shape": EXPECTED_SHAPE}
    with (results_dir / "bench_http_load.json").open("w") as handle:
        json.dump(payload, handle, indent=2, default=str)

    failures = _check(row, max_p50=SMOKE_MAX_P50_SECONDS if args.smoke
                      else MAX_P50_SECONDS)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: {row['requests']} responses byte-identical to serial "
              f"replay, 0 shed, p99 {row['p99_seconds'] * 1000:.0f}ms, "
              f"{row['throughput_rps']:.0f} req/s, lockwatch acyclic")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
