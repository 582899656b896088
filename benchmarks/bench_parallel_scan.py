"""Committed group-by partials benchmark.

One gate: after ``compact --cluster-by`` over a categorical key, a no-WHERE
group-by answers from the committed manifest partials.  The benchmark
asserts the answer equals the full group scan's, that it is at least
``MIN_PARTIALS_SPEEDUP`` (2×) faster, and that **no shard archive was
opened** (``scan_stats()["shards_open"] == 0``).  The gate is
hardware-independent.

Usable both as a pytest-benchmark test and as a standalone script for CI
smoke runs (writes ``benchmarks/results/bench_parallel_scan.json``)::

    PYTHONPATH=src python benchmarks/bench_parallel_scan.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.dataframe import Table  # noqa: E402
from repro.sql import AggregateView, parse_query  # noqa: E402
from repro.storage import DatasetStore  # noqa: E402

MIN_PARTIALS_SPEEDUP = 2.0
N_SHARDS = 16
REPEATS = 3


def _dataset(n: int) -> Table:
    """A synthetic multi-million-row event log."""
    rng = np.random.default_rng(0)
    regions = np.array(["us-east", "us-west", "eu-1", "eu-2", "ap-1", "ap-2"])
    return Table.from_columns({
        "region": regions[rng.integers(0, len(regions), n)].tolist(),
        "latency": rng.gamma(2.0, 30.0, n),
        "payload": rng.integers(0, 1 << 20, n).astype(float),
    }, name="events")


def _best_of(fn, repeats: int = REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_comparison(n: int = 4_000_000) -> dict:
    table = _dataset(n)
    # Integer-valued outcome: group sums are exact in float64 under any
    # summation order, so the partials answer can be compared with == even
    # across the row reordering a clustered compaction performs.
    query = parse_query(
        "SELECT region, AVG(payload) FROM events GROUP BY region")

    with tempfile.TemporaryDirectory() as tmp:
        store = DatasetStore.init(Path(tmp) / "store")
        dataset = store.import_table("events", table,
                                     shard_rows=max(1, n // N_SHARDS))
        scan_seconds, scan_view = _best_of(
            lambda: AggregateView(dataset.load_table(), query), repeats=1)
        store.compact("events", cluster_by="region")
        partial_seconds, partial_view = _best_of(
            lambda: AggregateView(dataset.load_table(), query))
        # Shards-opened accounting against a table that served the answer.
        probe = dataset.load_table()
        AggregateView(probe, query)
        partial_stats = probe.scan_stats()

    return {
        "rows": table.n_rows,
        "shards": N_SHARDS,
        "groupby_scan_seconds": round(scan_seconds, 4),
        "groupby_partials_seconds": round(partial_seconds, 4),
        "partials_speedup": round(scan_seconds / max(partial_seconds, 1e-9),
                                  2),
        "groups_equal": partial_view.groups == scan_view.groups,
        "partials_served": partial_view.served_from_partials,
        "shards_open_after_partials": partial_stats["shards_open"],
    }


def _check(row: dict) -> list[str]:
    failures = []
    if not row["groups_equal"]:
        failures.append("partials-served group-by differs from full scan")
    if not row["partials_served"]:
        failures.append("clustered group-by was not served from partials")
    if row["shards_open_after_partials"] != 0:
        failures.append(
            f"partials-served group-by opened "
            f"{row['shards_open_after_partials']} shard archive(s)")
    if row["partials_speedup"] < MIN_PARTIALS_SPEEDUP:
        failures.append(f"partials speedup {row['partials_speedup']:.2f}x "
                        f"below the {MIN_PARTIALS_SPEEDUP}x floor")
    return failures


EXPECTED_SHAPE = (f"partials >= {MIN_PARTIALS_SPEEDUP}x, identical groups, "
                  f"0 shards opened")


def test_partials_speedup(benchmark):
    """Committed partials answer >= 2x faster, identically, opening nothing."""
    from conftest import record_rows

    row = benchmark.pedantic(run_comparison, kwargs={"n": 1_000_000},
                             rounds=1, iterations=1)
    record_rows(benchmark, [row], paper_reference="ROADMAP partials",
                expected_shape=EXPECTED_SHAPE)
    assert not _check(row), (row, _check(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller instance for CI (1.5M rows)")
    parser.add_argument("--rows", type=int, default=None,
                        help="dataset size (default: 4000000, smoke: 1500000)")
    args = parser.parse_args(argv)
    n = args.rows if args.rows is not None else (1_500_000 if args.smoke
                                                 else 4_000_000)

    row = run_comparison(n=n)
    print(f"events n={row['rows']}  {row['shards']} shards")
    print(f"  group-by: full scan {row['groupby_scan_seconds']:.4f}s  "
          f"manifest partials {row['groupby_partials_seconds']:.4f}s  "
          f"speedup {row['partials_speedup']:.1f}x  "
          f"(shards opened: {row['shards_open_after_partials']})")

    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {"benchmark": "bench_parallel_scan", "rows": [row],
               "expected_shape": EXPECTED_SHAPE}
    with (results_dir / "bench_parallel_scan.json").open("w") as handle:
        json.dump(payload, handle, indent=2, default=str)

    failures = _check(row)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: partials {row['partials_speedup']:.1f}x >= "
              f"{MIN_PARTIALS_SPEEDUP}x, results identical, 0 shards opened")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
