"""Mask-cache engine benchmark — end-to-end ``CauSumX.explain`` speedup.

Runs the paper's stackoverflow running example twice with identical
configuration — once with ``use_mask_cache=False`` and once with it on — and
verifies that

* the rendered explanation summaries are byte-identical, and
* the memoised run is at least ``MIN_SPEEDUP``× faster.

Both runs execute the same arithmetic (one ``BoundSubpopulation``, one
closed-form solve per candidate); the knob selects **memoisation alone**.
Off, every ``estimate_many`` batch binds its sub-population afresh —
re-evaluating the grouping pattern, re-slicing the table, re-factoring every
adjustment set — evaluates each treatment predicate from scratch, and solves
the level-one atoms the ``+`` and the ``-`` search share twice.  On, masks,
bindings, factorisations and estimates are kept across lattice levels and
directions.  Alternating the two runs seven times in one process reads a
median ratio of 1.7× at 600 rows and 1.8× at 2 000.

This script times each side once, cold, so a single reading moves with the
host (observed 1.5–5.9× with ``--smoke``, where first-call warm-up lands on
the uncached side, and 0.6–3.0× at full size).  The floor stays at 1.25×
(it was 2× when a cold predicate mask paid a per-row Python-loop tax): it
catches a memoisation regression, it is not a performance claim — those
cite ``benchmarks/e2e`` only.

Usable both as a pytest-benchmark test (``pytest benchmarks/bench_mask_cache.py``)
and as a standalone script for CI smoke runs::

    PYTHONPATH=src python benchmarks/bench_mask_cache.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import CauSumX, CauSumXConfig, render_summary  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.mining.treatments import TreatmentMinerConfig  # noqa: E402

MIN_SPEEDUP = 1.25


def _config(**overrides) -> CauSumXConfig:
    config = CauSumXConfig(
        k=5, theta=0.75, apriori_threshold=0.1, sample_size=None,
        min_group_size=10,
        treatment=TreatmentMinerConfig(max_levels=2, min_group_size=10,
                                       significance_level=0.05,
                                       max_values_per_attribute=10),
    )
    return config.with_overrides(**overrides)


def _explain(bundle, config):
    algorithm = CauSumX(bundle.table, bundle.dag, config)
    start = time.perf_counter()
    summary = algorithm.explain(bundle.query,
                                grouping_attributes=bundle.grouping_attributes,
                                treatment_attributes=bundle.treatment_attributes)
    return time.perf_counter() - start, summary


def run_comparison(n: int = 2000) -> dict:
    """Explain the stackoverflow view cached vs. uncached and compare."""
    bundle = load_dataset("stackoverflow", n=n, seed=0)
    uncached_seconds, uncached = _explain(bundle, _config(use_mask_cache=False))
    cached_seconds, cached = _explain(bundle, _config(use_mask_cache=True))
    uncached_text = render_summary(uncached, outcome="annual salary")
    cached_text = render_summary(cached, outcome="annual salary")
    return {
        "dataset": "stackoverflow",
        "rows": bundle.table.n_rows,
        "uncached_seconds": round(uncached_seconds, 3),
        "cached_seconds": round(cached_seconds, 3),
        "speedup": round(uncached_seconds / max(cached_seconds, 1e-9), 2),
        "summaries_identical": cached_text == uncached_text,
        "n_patterns": len(cached),
        "summary_text": cached_text,
    }


def test_mask_cache_speedup(benchmark):
    """≥1.25× end-to-end speedup with byte-identical explanation summaries."""
    from conftest import record_rows

    row = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    summary_text = row.pop("summary_text")
    record_rows(benchmark, [row],
                paper_reference="Section 7 optimisations / ROADMAP scaling",
                expected_shape=f"speedup >= {MIN_SPEEDUP}x, identical summaries",
                summary_text=summary_text)
    assert row["summaries_identical"], "cached summary differs from uncached"
    assert row["speedup"] >= MIN_SPEEDUP, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small instance for CI (600 rows)")
    parser.add_argument("--rows", type=int, default=None,
                        help="dataset size (default: 2000, smoke: 600)")
    args = parser.parse_args(argv)
    n = args.rows if args.rows is not None else (600 if args.smoke else 2000)

    row = run_comparison(n=n)
    summary_text = row.pop("summary_text")
    print(f"stackoverflow n={row['rows']}  uncached {row['uncached_seconds']:.2f}s  "
          f"cached {row['cached_seconds']:.2f}s  speedup {row['speedup']:.2f}x  "
          f"identical={row['summaries_identical']}")
    print()
    print(summary_text)

    if not row["summaries_identical"]:
        print("FAIL: cached and uncached explanation summaries differ", file=sys.stderr)
        return 1
    if row["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {row['speedup']:.2f}x below the {MIN_SPEEDUP}x floor",
              file=sys.stderr)
        return 1
    print(f"\nOK: speedup {row['speedup']:.2f}x >= {MIN_SPEEDUP}x, summaries identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
