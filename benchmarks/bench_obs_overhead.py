"""Observability overhead benchmark — tracing off must cost nothing.

Serves the repetitive explain workload from ``bench_http_load`` against a
*store-backed* registry (so query telemetry actually persists) three times
over one live server: twice with tracing disabled (the second run bounds
run-to-run noise) and once with the full observability stack enabled
(``REPRO_TRACE=1`` semantics: spans, trace-id envelope/header fields, and
one telemetry record per explain).  Gates:

* **Disabled == free**: the enabled run's p99 client latency must stay
  within ``max(p99_off * 1.10, p99_off + ABS_SLACK_SECONDS)`` of the
  slower disabled run — the 10% ceiling from the issue, with an absolute
  slack floor because cache-served requests finish in single-digit
  milliseconds where 10% is below scheduler noise.

* **Same answers, plus a volatile tail**: every enabled-run response,
  after stripping the deterministic ``trace_id``/``duration_ms`` envelope
  tail (and the wall-clock serving fields), is byte-identical to the
  disabled run's response for the same request.

* **Telemetry completeness**: the enabled run leaves exactly one persisted
  record per explain request and ``repro.obs.cli.aggregate`` rolls the log
  up without error.  (Every measured request is a summary-cache hit, so its
  record's ``plan`` is ``null`` — a record carries the scan its own request
  executed; ``tests/test_obs.py`` checks a miss's est/actual pairs.)

Usable both as a pytest-benchmark test and as a standalone script for CI
smoke runs (writes ``benchmarks/results/bench_obs_overhead.json``)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--smoke]
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import CauSumXConfig  # noqa: E402
from repro.datasets import make_stackoverflow  # noqa: E402
from repro.mining.treatments import TreatmentMinerConfig  # noqa: E402
from repro.net import TenantRegistry, create_server, serve_in_thread  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.obs.cli import aggregate  # noqa: E402
from repro.obs.telemetry import read_records  # noqa: E402
from repro.storage import DatasetStore  # noqa: E402

N_CLIENTS = 32
REQUESTS_PER_CLIENT = 8
SMOKE_CLIENTS = 8
SMOKE_REQUESTS = 6
MAX_INFLIGHT = 8
DATASET_ROWS = 400
P99_RATIO_CEILING = 1.10
ABS_SLACK_SECONDS = 0.05

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


def _normalize(raw: bytes) -> str:
    """Canonical response bytes: wall-clock and trace tail fields removed."""
    payload = json.loads(raw)
    payload.pop("cached", None)
    payload.pop("coalesced", None)
    payload.pop("trace_id", None)
    payload.pop("duration_ms", None)
    if isinstance(payload.get("result"), dict):
        payload["result"].pop("timings", None)
    return json.dumps(payload, sort_keys=True)


def _streams(n_clients: int, requests_per_client: int) -> list[list]:
    return [[QUERIES[(i + j) % len(QUERIES)]
             for j in range(requests_per_client)]
            for i in range(n_clients)]


def _run_storm(server, streams: list[list]):
    """Fire every client stream concurrently; latencies + normalized bodies."""
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
            for position, query in enumerate(stream):
                request = {"op": "explain", "query": query,
                           "id": index * 1000 + position}
                begin = time.perf_counter()
                conn.request("POST", "/v1/explain", body=json.dumps(request),
                             headers={"X-Repro-Tenant": "default"})
                reply = conn.getresponse()
                raw = reply.read()
                elapsed = time.perf_counter() - begin
                mine.append((reply.status, _normalize(raw)))
                with lock:
                    latencies.append(elapsed)
            conn.close()
            responses[index] = mine
        except BaseException as exc:  # pragma: no cover - surfaced in gates
            with lock:
                errors.append(f"client {index}: {exc!r}")

    threads = [threading.Thread(target=client, args=(i, stream))
               for i, stream in enumerate(streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    return latencies, responses, errors


def _p(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q)) \
        if latencies else 0.0


def run_overhead(n_clients: int = N_CLIENTS,
                 requests_per_client: int = REQUESTS_PER_CLIENT) -> dict:
    bundle = make_stackoverflow(n=DATASET_ROWS, seed=7)
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as tmp:
        store = DatasetStore.init(Path(tmp) / "store")
        store.import_bundle(bundle, config=_config())
        registry = TenantRegistry.from_store(
            store, summary_cache_bytes=32 << 20, max_tenants=16,
            summary_cache_size=16)
        server = create_server(registry, "127.0.0.1", 0,
                               max_inflight=MAX_INFLIGHT,
                               max_queue=n_clients + 8)
        serve_in_thread(server)
        streams = _streams(n_clients, requests_per_client)
        trace.set_enabled(False)
        try:
            # Warm every distinct query (tracing off), so all three measured
            # passes serve from the summary cache and compare like for like.
            warm_engine = registry.engine_for("default")
            for query in QUERIES:
                warm_engine.explain(registry.default_dataset, query)

            lat_off_a, responses_off, errors = _run_storm(server, streams)
            lat_off_b, responses_off_b, errors_b = _run_storm(server, streams)
            trace.set_enabled(True)
            try:
                lat_on, responses_on, errors_on = _run_storm(server, streams)
            finally:
                trace.set_enabled(False)
            telemetry_dir = store.root / "telemetry"
            records, corrupt = read_records(telemetry_dir)
            summary = aggregate(records)
        finally:
            trace.set_enabled(None)
            server.graceful_shutdown(drain_timeout=60.0)

    def flat(responses):
        return [entry for mine in responses if mine for entry in mine]

    identical_off = flat(responses_off) == flat(responses_off_b)
    identical_on = flat(responses_off) == flat(responses_on)
    statuses = [s for s, _ in flat(responses_off) + flat(responses_off_b)
                + flat(responses_on)]
    requests_on = sum(len(s) for s in streams)

    p99_off = max(_p(lat_off_a, 99), _p(lat_off_b, 99))
    p99_on = _p(lat_on, 99)
    return {
        "clients": n_clients,
        "requests_per_client": requests_per_client,
        "errors": errors + errors_b + errors_on,
        "non_200": sum(1 for s in statuses if s != 200),
        "p50_off_seconds": round(max(_p(lat_off_a, 50), _p(lat_off_b, 50)), 4),
        "p99_off_seconds": round(p99_off, 4),
        "p50_on_seconds": round(_p(lat_on, 50), 4),
        "p99_on_seconds": round(p99_on, 4),
        "p99_ceiling_seconds": round(
            max(p99_off * P99_RATIO_CEILING, p99_off + ABS_SLACK_SECONDS), 4),
        "responses_identical_off": identical_off,
        "responses_identical_on_stripped": identical_on,
        "telemetry_records": len(records),
        "telemetry_corrupt": corrupt,
        "telemetry_expected": requests_on,
        "summary_cache_hit_rate":
            summary["cache_hit_rates"].get("summary"),
    }


def _check(row: dict) -> list[str]:
    failures = []
    if row["errors"]:
        failures.append(f"client errors: {row['errors'][:3]}")
    if row["non_200"]:
        failures.append(f"{row['non_200']} non-200 response(s)")
    if not row["responses_identical_off"]:
        failures.append("disabled runs produced differing responses")
    if not row["responses_identical_on_stripped"]:
        failures.append("enabled run differs beyond the volatile "
                        "trace_id/duration_ms tail")
    if row["p99_on_seconds"] > row["p99_ceiling_seconds"]:
        failures.append(
            f"enabled p99 {row['p99_on_seconds']:.4f}s above the ceiling "
            f"{row['p99_ceiling_seconds']:.4f}s "
            f"(disabled p99 {row['p99_off_seconds']:.4f}s)")
    if row["telemetry_records"] != row["telemetry_expected"]:
        failures.append(
            f"{row['telemetry_records']} telemetry record(s) for "
            f"{row['telemetry_expected']} enabled explain request(s)")
    if row["telemetry_corrupt"]:
        failures.append(f"{row['telemetry_corrupt']} corrupt telemetry "
                        f"line(s)")
    return failures


EXPECTED_SHAPE = (f"enabled p99 <= max({P99_RATIO_CEILING}x disabled p99, "
                  f"disabled p99 + {ABS_SLACK_SECONDS}s); disabled responses "
                  f"byte-identical; one telemetry record per enabled explain")


def test_obs_overhead(benchmark):
    """Tracing-off is free; tracing-on stays within the p99 ceiling."""
    from conftest import record_rows

    row = benchmark.pedantic(run_overhead,
                             kwargs={"n_clients": SMOKE_CLIENTS,
                                     "requests_per_client": SMOKE_REQUESTS},
                             rounds=1, iterations=1)
    record_rows(benchmark, [row],
                paper_reference="observability: tracing + telemetry overhead",
                expected_shape=EXPECTED_SHAPE)
    assert not _check(row), (row, _check(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced load for CI ({SMOKE_CLIENTS} clients)")
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    args = parser.parse_args(argv)
    n_clients = args.clients if args.clients is not None else \
        (SMOKE_CLIENTS if args.smoke else N_CLIENTS)
    requests_per_client = args.requests if args.requests is not None else \
        (SMOKE_REQUESTS if args.smoke else REQUESTS_PER_CLIENT)

    row = run_overhead(n_clients=n_clients,
                       requests_per_client=requests_per_client)
    print(f"obs overhead: {row['clients']} clients x "
          f"{row['requests_per_client']} requests, three passes")
    print(f"  disabled: p50 {row['p50_off_seconds'] * 1000:.1f}ms  "
          f"p99 {row['p99_off_seconds'] * 1000:.1f}ms  "
          f"(runs identical: {row['responses_identical_off']})")
    print(f"  enabled:  p50 {row['p50_on_seconds'] * 1000:.1f}ms  "
          f"p99 {row['p99_on_seconds'] * 1000:.1f}ms  "
          f"(ceiling {row['p99_ceiling_seconds'] * 1000:.1f}ms)")
    print(f"  telemetry: {row['telemetry_records']} records for "
          f"{row['telemetry_expected']} explains")

    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {"benchmark": "bench_obs_overhead", "rows": [row],
               "expected_shape": EXPECTED_SHAPE}
    with (results_dir / "bench_obs_overhead.json").open("w") as handle:
        json.dump(payload, handle, indent=2, default=str)

    failures = _check(row)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: tracing off is free (identical bytes), enabled p99 "
              f"{row['p99_on_seconds'] * 1000:.0f}ms within ceiling, "
              f"{row['telemetry_records']}/{row['telemetry_expected']} "
              f"telemetry records")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
