"""Query-planner benchmark — selectivity-aware conjunct ordering (ISSUE 5).

One gate for the ``repro.plan`` subsystem:

* **Planned scan ≥ ``MIN_SPEEDUP`` (2×)** on a *skewed-selectivity*
  conjunctive workload: every query carries one highly selective cheap
  equality predicate that canonical (attribute-sorted) order places **last**,
  behind three broad predicates — the worst case for plain
  ``Table.select``'s left-to-right full-mask evaluation.  The planner must rank it first from
  column statistics alone and short-circuit the rest over the surviving
  candidates.  The planned timing includes the one-time statistics build
  (it amortises over the workload, exactly as it does in the engine).

Every query's planned result is asserted **equal row-for-row** to the
unplanned ``table.select`` result, so the speedup can never come from answering a
different question.

Usable both as a pytest-benchmark test and as a standalone script for CI
smoke runs (writes ``benchmarks/results/bench_planner.json``)::

    PYTHONPATH=src python benchmarks/bench_planner.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.dataframe import Pattern, Table  # noqa: E402
from repro.plan import plan_scan, planned_select, table_stats  # noqa: E402

MIN_SPEEDUP = 2.0
N_QUERIES = 60
N_TENANTS = 500


def _dataset(n: int) -> Table:
    """Four columns whose predicates have very different selectivities.

    Attribute names are chosen so the canonical ``Pattern`` order (sorted by
    attribute) lists the broad predicates first and the selective tenant
    equality *last* — left-to-right evaluation pays full price for every
    conjunct before the selective one finally collapses the row set.
    """
    rng = np.random.default_rng(0)
    channels = ["web", "app", "api", "ads", "mail", "sms"]
    return Table.from_columns({
        "amount": rng.normal(0.0, 50.0, n),
        "channel": [channels[i] for i in rng.integers(0, len(channels), n)],
        "region": [f"r{i:02d}" for i in rng.integers(0, 40, n)],
        "ztenant": [f"tenant-{i:04d}" for i in rng.integers(0, N_TENANTS, n)],
    }, name="skewed")


def _workload(n_queries: int) -> list[Pattern]:
    """Conjunctions over one tenant each: ~1/500 selective, listed last."""
    return [
        Pattern.of(("amount", ">=", -20.0),          # ~0.95 selective, cheap
                   ("channel", "!=", "web"),         # ~0.83 selective, cheap
                   ("region", "<=", "r19"),          # ~0.50, vocab-loop cost
                   ("ztenant", "==", f"tenant-{t % N_TENANTS:04d}"))
        for t in range(n_queries)
    ]


def run_comparison(n: int = 150_000, n_queries: int = N_QUERIES) -> dict:
    table = _dataset(n)
    queries = _workload(n_queries)

    # --- unplanned table.select: canonical order, full mask per conjunct ---
    start = time.perf_counter()
    oracle_results = [table.select(pattern) for pattern in queries]
    unplanned_seconds = time.perf_counter() - start

    # --- planned: stats build + reorder + short-circuit ---------------------
    fresh = _dataset(n)  # cold stats: their build cost belongs to the timing
    start = time.perf_counter()
    planned_results = [planned_select(fresh, pattern) for pattern in queries]
    planned_seconds = time.perf_counter() - start

    equal = all(planned == oracle
                for planned, oracle in zip(planned_results, oracle_results))
    plan = plan_scan(table, queries[0], stats=table_stats(table))
    first = plan.conjuncts[0].predicate
    return {
        "rows": table.n_rows,
        "queries": len(queries),
        "conjuncts_per_query": len(queries[0].predicates),
        "unplanned_seconds": round(unplanned_seconds, 4),
        "planned_seconds": round(planned_seconds, 4),
        "speedup": round(unplanned_seconds / max(planned_seconds, 1e-9), 2),
        "results_equal": equal,
        "reordered": plan.reordered,
        "first_conjunct": repr(first),
        "selective_first": first.attribute == "ztenant",
        "matched_rows": sum(r.n_rows for r in planned_results),
    }


def _check(row: dict) -> list[str]:
    failures = []
    if not row["results_equal"]:
        failures.append("planned scan returned different rows than "
                        "table.select")
    if not row["reordered"]:
        failures.append("planner did not reorder the skewed conjunction")
    if not row["selective_first"]:
        failures.append("planner failed to rank the selective equality first")
    if row["speedup"] < MIN_SPEEDUP:
        failures.append(f"planned speedup {row['speedup']:.2f}x below the "
                        f"{MIN_SPEEDUP}x floor")
    return failures


def test_planner_speedup(benchmark):
    """≥2× planned vs unplanned left-to-right on a skewed conjunctive workload."""
    from conftest import record_rows

    row = benchmark.pedantic(run_comparison, kwargs={"n": 60_000},
                             rounds=1, iterations=1)
    record_rows(benchmark, [row],
                paper_reference="ISSUE 5 / ROADMAP (i) selectivity-aware "
                                "scan planning",
                expected_shape=f"speedup >= {MIN_SPEEDUP}x, equal results, "
                               "selective conjunct ranked first")
    assert not _check(row), (row, _check(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small instance for CI (60k rows)")
    parser.add_argument("--rows", type=int, default=None,
                        help="dataset size (default: 150000, smoke: 60000)")
    args = parser.parse_args(argv)
    n = args.rows if args.rows is not None else (60_000 if args.smoke
                                                 else 150_000)

    row = run_comparison(n=n)
    print(f"skewed workload n={row['rows']}  {row['queries']} queries x "
          f"{row['conjuncts_per_query']} conjuncts  "
          f"(selective predicate canonical-last)")
    print(f"  unplanned left-to-right: {row['unplanned_seconds']:.3f}s")
    print(f"  planned (stats + reorder + short-circuit): "
          f"{row['planned_seconds']:.3f}s")
    print(f"  speedup {row['speedup']:.1f}x  first conjunct: "
          f"{row['first_conjunct']}")

    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {"benchmark": "bench_planner", "rows": [row],
               "expected_shape": f"speedup >= {MIN_SPEEDUP}x, equal results, "
                                 "selective conjunct ranked first"}
    with (results_dir / "bench_planner.json").open("w") as handle:
        json.dump(payload, handle, indent=2, default=str)

    failures = _check(row)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: planned scan {row['speedup']:.1f}x >= {MIN_SPEEDUP}x "
              "vs unplanned left-to-right, identical results")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
