"""Figures 14/20 — per-step runtime breakdown of the CauSumX algorithm."""

from conftest import bench_config, record_rows

from repro.core import CauSumX


def test_fig14_runtime_breakdown(benchmark, bundles):
    config = bench_config()

    def run():
        rows = []
        for name in ("german", "adult", "stackoverflow", "accidents"):
            bundle = bundles[name]
            cfg = config.with_overrides(include_singleton_groups=(name == "german"),
                                        theta=0.5 if name == "german" else config.theta)
            summary = CauSumX(bundle.table, bundle.dag, cfg).explain(
                bundle.query,
                grouping_attributes=bundle.grouping_attributes,
                treatment_attributes=bundle.treatment_attributes)
            total = sum(summary.timings.values()) or 1.0
            rows.append({
                "dataset": name,
                **{step: round(seconds, 3) for step, seconds in summary.timings.items()},
                "treatment_share": round(summary.timings["treatment_patterns"] / total, 3),
                "largest_step": max(summary.timings, key=summary.timings.get),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows(benchmark, rows, paper_reference="Figures 14/20",
                expected_shape="treatment-pattern mining dominates total runtime")
    for row in rows:
        assert row["largest_step"] == "treatment_patterns", row
