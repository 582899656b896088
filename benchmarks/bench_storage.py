"""Storage benchmark — mmap cold loads and zone-map shard pruning.

Two gates for the ``repro.storage`` subsystem (ISSUE 4):

* **Cold load ≥ ``MIN_LOAD_SPEEDUP`` (5×)**: opening a stored dataset as a
  memory-mapped :class:`~repro.storage.ShardedTable` and running one
  aggregate over a numeric column must beat parsing the equivalent CSV with
  ``read_csv`` by 5× — the restart-cost argument for the store.  (The mmap
  path decodes only the column it touches; the CSV parse must read every
  byte of the file.)

* **Pruned scan ≥ ``MIN_SCAN_SPEEDUP`` (2×)**: a selective WHERE scan over a
  sharded dataset whose zone maps exclude most shards must beat the same
  scan with pruning disabled by 2×, on equally cold tables (fresh load per
  measurement, so shard decoding — the real cost — is inside the timing).

Both paths also assert exact result equality (same rows, same aggregates),
so the speedups can never come from answering a different question.

Usable both as a pytest-benchmark test and as a standalone script for CI
smoke runs (writes ``benchmarks/results/bench_storage.json``)::

    PYTHONPATH=src python benchmarks/bench_storage.py [--smoke]
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

from repro.dataframe import Pattern, Table, read_csv, write_csv  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.storage import DatasetStore  # noqa: E402

MIN_LOAD_SPEEDUP = 5.0
MIN_SCAN_SPEEDUP = 2.0
N_SHARDS = 8
SCAN_REPEATS = 3


def _dataset(n: int) -> Table:
    """The stackoverflow table, clustered by Country so shards are prunable.

    Sorting by the dictionary codes groups each country's rows into a few
    shards, so the categorical zone maps (per-shard vocab bitsets) can prove
    most shards irrelevant to a ``Country = …`` filter — the natural layout
    of any log-structured ingest partitioned by tenant/region.
    """
    table = load_dataset("stackoverflow", n=n, seed=0).table
    order = np.argsort(table.column("Country").codes, kind="stable")
    return table.take(order)


def _time(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_comparison(n: int = 50_000) -> dict:
    table = _dataset(n)
    country = table.column("Country").vocab[0]
    pattern = Pattern.of(("Country", "==", country))

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv_path = tmp / "data.csv"
        write_csv(table, csv_path)
        store = DatasetStore.init(tmp / "store")
        shard_rows = max(1, (table.n_rows + N_SHARDS - 1) // N_SHARDS)
        dataset = store.import_table("so", table, shard_rows=shard_rows)

        # --- cold load: CSV parse vs mmap open + one aggregate --------------
        def load_csv():
            loaded = read_csv(csv_path)
            return loaded.avg("Salary")

        def load_store():
            loaded = dataset.load_table()
            return loaded.avg("Salary")

        csv_seconds, csv_avg = _time(load_csv)
        store_seconds, store_avg = _time(load_store)
        loads_equal = csv_avg == store_avg

        # --- selective scan: pruned vs unpruned, cold table each time --------
        reference = table.select(pattern)
        pruned_seconds = unpruned_seconds = 0.0
        scans_equal = True
        stats = {}
        for _ in range(SCAN_REPEATS):
            pruned_table = dataset.load_table()
            seconds, pruned_result = _time(lambda: pruned_table.select(pattern))
            pruned_seconds += seconds
            stats = pruned_table.scan_stats()
            # The base-class full-mask path: every shard decoded, no skip.
            unpruned_table = dataset.load_table()
            seconds, unpruned_result = _time(
                lambda: Table.select(unpruned_table, pattern))
            unpruned_seconds += seconds
            scans_equal = scans_equal and pruned_result == reference \
                and unpruned_result == reference

    return {
        "rows": table.n_rows,
        "shards": len(dataset.manifest.shards),
        "csv_load_seconds": round(csv_seconds, 4),
        "store_load_seconds": round(store_seconds, 4),
        "load_speedup": round(csv_seconds / max(store_seconds, 1e-9), 2),
        "loads_equal": loads_equal,
        "selectivity": round(reference.n_rows / table.n_rows, 4),
        "unpruned_scan_seconds": round(unpruned_seconds / SCAN_REPEATS, 4),
        "pruned_scan_seconds": round(pruned_seconds / SCAN_REPEATS, 4),
        "scan_speedup": round(unpruned_seconds / max(pruned_seconds, 1e-9), 2),
        "shards_skipped_per_scan": stats["shards_skipped"] // max(
            stats["scans"], 1),
        "scans_equal": scans_equal,
    }


def _check(row: dict) -> list[str]:
    failures = []
    if not row["loads_equal"]:
        failures.append("store-loaded aggregate differs from CSV-loaded one")
    if not row["scans_equal"]:
        failures.append("pruned scan returned different rows than unpruned")
    if row["shards_skipped_per_scan"] < 1:
        failures.append("zone maps skipped no shards on a selective scan")
    if row["load_speedup"] < MIN_LOAD_SPEEDUP:
        failures.append(f"cold-load speedup {row['load_speedup']:.2f}x below "
                        f"the {MIN_LOAD_SPEEDUP}x floor")
    if row["scan_speedup"] < MIN_SCAN_SPEEDUP:
        failures.append(f"pruned-scan speedup {row['scan_speedup']:.2f}x "
                        f"below the {MIN_SCAN_SPEEDUP}x floor")
    return failures


def test_storage_speedups(benchmark):
    """≥5× mmap cold load vs CSV parse; ≥2× zone-map-pruned selective scan."""
    from conftest import record_rows

    row = benchmark.pedantic(run_comparison, kwargs={"n": 20_000},
                             rounds=1, iterations=1)
    record_rows(benchmark, [row],
                paper_reference="ISSUE 4 / ROADMAP storage subsystem",
                expected_shape=f"load >= {MIN_LOAD_SPEEDUP}x, "
                               f"scan >= {MIN_SCAN_SPEEDUP}x, equal results")
    assert not _check(row), (row, _check(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small instance for CI (20k rows)")
    parser.add_argument("--rows", type=int, default=None,
                        help="dataset size (default: 50000, smoke: 20000)")
    args = parser.parse_args(argv)
    n = args.rows if args.rows is not None else (20_000 if args.smoke
                                                 else 50_000)

    row = run_comparison(n=n)
    print(f"stackoverflow n={row['rows']}  {row['shards']} shards  "
          f"selectivity {row['selectivity']:.1%}")
    print(f"  cold load: csv {row['csv_load_seconds']:.3f}s  "
          f"store {row['store_load_seconds']:.3f}s  "
          f"speedup {row['load_speedup']:.1f}x")
    print(f"  selective scan: unpruned {row['unpruned_scan_seconds']:.4f}s  "
          f"pruned {row['pruned_scan_seconds']:.4f}s  "
          f"speedup {row['scan_speedup']:.1f}x  "
          f"({row['shards_skipped_per_scan']}/{row['shards']} shards skipped)")

    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {"benchmark": "bench_storage", "rows": [row],
               "expected_shape": f"load >= {MIN_LOAD_SPEEDUP}x, "
                                 f"scan >= {MIN_SCAN_SPEEDUP}x, equal results"}
    with (results_dir / "bench_storage.json").open("w") as handle:
        json.dump(payload, handle, indent=2, default=str)

    failures = _check(row)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: cold load {row['load_speedup']:.1f}x >= "
              f"{MIN_LOAD_SPEEDUP}x, pruned scan {row['scan_speedup']:.1f}x "
              f">= {MIN_SCAN_SPEEDUP}x, results identical")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
