"""Explanation-engine benchmark — repeated-query serving vs. fresh per-call runs.

Simulates the interactive workload the serving layer exists for: a 20-query
stream over the stackoverflow bundle with 3 distinct queries (85% repeats,
well above the ≥50%-repeat workload the gate specifies) and compares

* the **baseline**: a fresh ``CauSumX(table, dag).explain(query)`` per call —
  what a stateless deployment would do — against
* the **engine**: one long-lived :class:`~repro.service.ExplanationEngine`
  with the dataset registered once, serving the same stream through its
  multi-level caches.

Gates:

* engine speedup ≥ ``MIN_SPEEDUP`` (5×) over the whole stream;
* every engine response is byte-identical (modulo wall-clock timings) to the
  fresh baseline for the same query;
* after an ``append_rows`` data-arrival cycle, the engine's summaries are
  again byte-identical to fresh runs over the concatenated table (the old
  cache entries must be invalidated, not served stale).

Usable both as a pytest-benchmark test and as a standalone script for CI
smoke runs (writes ``benchmarks/results/bench_engine_cache.json``)::

    PYTHONPATH=src python benchmarks/bench_engine_cache.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import CauSumX, CauSumXConfig, summary_to_dict  # noqa: E402
from repro.dataframe import Table  # noqa: E402
from repro.datasets import load_dataset, make_stackoverflow  # noqa: E402
from repro.mining.treatments import TreatmentMinerConfig  # noqa: E402
from repro.service import ExplanationEngine  # noqa: E402

MIN_SPEEDUP = 5.0

DISTINCT_QUERIES = [
    "SELECT Country, AVG(Salary) FROM SO GROUP BY Country",
    "SELECT Country, AVG(Salary) FROM SO WHERE Continent = 'Europe' GROUP BY Country",
    "SELECT Continent, AVG(Salary) FROM SO GROUP BY Continent",
]
# 20 requests, 3 distinct, 17 repeats (85% ≥ the 50%-repeat workload floor).
# Queries 0 and 2 share the empty-WHERE population, so the engine also reuses
# one mask/atom cache across *distinct* queries, not just repeated ones.
WORKLOAD = [DISTINCT_QUERIES[i] for i in
            (0, 1, 0, 2, 0, 1, 2, 0, 1, 0, 2, 0, 1, 2, 0, 1, 0, 2, 1, 0)]


def _config() -> CauSumXConfig:
    return CauSumXConfig(
        k=5, theta=0.75, apriori_threshold=0.1, sample_size=None,
        min_group_size=10,
        treatment=TreatmentMinerConfig(max_levels=2, min_group_size=10,
                                       significance_level=0.05,
                                       max_values_per_attribute=10),
    )


def _payload(summary) -> str:
    """Canonical bytes of a summary, excluding wall-clock timings."""
    as_dict = summary_to_dict(summary)
    as_dict.pop("timings", None)
    return json.dumps(as_dict, sort_keys=True, default=str)


def _baseline(bundle_like, queries) -> tuple[float, dict]:
    """Fresh CauSumX per call; returns (seconds, {query: payload})."""
    table, dag = bundle_like
    config = _config()
    payloads: dict[str, str] = {}
    start = time.perf_counter()
    for query in queries:
        summary = CauSumX(table, dag, config).explain(query)
        payloads.setdefault(query, _payload(summary))
    return time.perf_counter() - start, payloads


def run_comparison(n: int = 1000, append_n: int = 200) -> dict:
    bundle = load_dataset("stackoverflow", n=n, seed=0)
    table, dag = bundle.table, bundle.dag

    # --- baseline: one fresh run per request --------------------------------
    baseline_seconds, baseline_payloads = _baseline((table, dag), WORKLOAD)

    # --- engine: registered once, serves the same stream --------------------
    engine = ExplanationEngine()
    engine.register_dataset("stackoverflow", table, dag=dag, config=_config())
    engine_payloads: list[tuple[str, str]] = []
    start = time.perf_counter()
    for query in WORKLOAD:
        summary = engine.explain("stackoverflow", query)
        engine_payloads.append((query, _payload(summary)))
    engine_seconds = time.perf_counter() - start

    identical = all(payload == baseline_payloads[query]
                    for query, payload in engine_payloads)
    stats = engine.stats()

    # --- incremental append cycle -------------------------------------------
    appended = make_stackoverflow(n=append_n, seed=1).table
    report = engine.append_rows("stackoverflow", appended)
    combined = table.concat(appended)
    post_queries = DISTINCT_QUERIES
    _, post_baseline = _baseline((combined, dag), post_queries)
    post_identical = all(
        _payload(engine.explain("stackoverflow", query)) == post_baseline[query]
        for query in post_queries)
    # Serve the stream once more post-append: repeats must hit the new cache.
    for query in WORKLOAD:
        engine.explain("stackoverflow", query)
    post_stats = engine.stats()

    return {
        "dataset": "stackoverflow",
        "rows": table.n_rows,
        "requests": len(WORKLOAD),
        "distinct": len(DISTINCT_QUERIES),
        "repeat_fraction": round(1 - len(DISTINCT_QUERIES) / len(WORKLOAD), 2),
        "baseline_seconds": round(baseline_seconds, 3),
        "engine_seconds": round(engine_seconds, 3),
        "speedup": round(baseline_seconds / max(engine_seconds, 1e-9), 2),
        "summaries_identical": identical,
        "summary_cache_hits": stats["summary_cache"]["hits"],
        "computations": stats["computations"],
        "append_rows": report["appended_rows"],
        "append_invalidated": report["invalidated"],
        "append_masks_carried": report["masks_carried"],
        "post_append_identical": post_identical,
        "post_append_computations": post_stats["computations"],
    }


def _check(row: dict) -> list[str]:
    failures = []
    if not row["summaries_identical"]:
        failures.append("engine summaries differ from fresh per-call runs")
    if not row["post_append_identical"]:
        failures.append("post-append summaries differ from fresh runs on the "
                        "concatenated table (stale cache?)")
    if row["append_invalidated"] <= 0:
        failures.append("append_rows invalidated no cache entries")
    if row["speedup"] < MIN_SPEEDUP:
        failures.append(f"speedup {row['speedup']:.2f}x below the "
                        f"{MIN_SPEEDUP}x floor")
    if row["computations"] != row["distinct"]:
        failures.append(f"expected {row['distinct']} computations pre-append, "
                        f"saw {row['computations']}")
    return failures


def test_engine_cache_speedup(benchmark):
    """≥5× serving speedup on a repeated workload, byte-identical summaries."""
    from conftest import record_rows

    row = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    record_rows(benchmark, [row],
                paper_reference="Section 7 / ROADMAP serving layer",
                expected_shape=f"speedup >= {MIN_SPEEDUP}x, identical summaries, "
                               "append invalidation cycle")
    assert not _check(row), (row, _check(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small instance for CI (500 rows)")
    parser.add_argument("--rows", type=int, default=None,
                        help="dataset size (default: 1000, smoke: 500)")
    args = parser.parse_args(argv)
    n = args.rows if args.rows is not None else (500 if args.smoke else 1000)

    row = run_comparison(n=n)
    print(f"stackoverflow n={row['rows']}  {row['requests']} requests "
          f"({row['distinct']} distinct, {row['repeat_fraction']:.0%} repeats)")
    print(f"  baseline {row['baseline_seconds']:.2f}s  "
          f"engine {row['engine_seconds']:.2f}s  speedup {row['speedup']:.2f}x")
    print(f"  identical={row['summaries_identical']}  "
          f"post-append identical={row['post_append_identical']}  "
          f"invalidated={row['append_invalidated']}  "
          f"masks carried={row['append_masks_carried']}")

    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {"benchmark": "bench_engine_cache", "rows": [row],
               "expected_shape": f"speedup >= {MIN_SPEEDUP}x, identical "
                                 "summaries, append invalidation cycle"}
    with (results_dir / "bench_engine_cache.json").open("w") as handle:
        json.dump(payload, handle, indent=2, default=str)

    failures = _check(row)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: speedup {row['speedup']:.2f}x >= {MIN_SPEEDUP}x, "
              "summaries identical, append cycle clean")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
