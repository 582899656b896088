"""Quickstart: summarized causal explanations for a salary-by-country view.

Runs the paper's running example end to end:

1. generate a Stack-Overflow-like developer survey,
2. evaluate ``SELECT Country, AVG(Salary) ... GROUP BY Country``,
3. ask CauSumX for at most three explanation patterns covering every country,
4. print the aggregate view and the natural-language explanation summary.

Run with:  python examples/quickstart.py
"""

from repro import CauSumX, CauSumXConfig, AggregateView, load_dataset, render_summary


def main() -> None:
    bundle = load_dataset("stackoverflow", n=2000, seed=0)
    print(f"Dataset: {bundle.name} — {bundle.table.n_rows} tuples, "
          f"{bundle.table.n_cols} attributes")
    print(f"Query:   {bundle.query.to_sql()}\n")

    view = AggregateView(bundle.table, bundle.query)
    config = CauSumXConfig(k=3, theta=1.0, sample_size=None)
    summary = CauSumX(bundle.table, bundle.dag, config).explain(
        bundle.query,
        grouping_attributes=bundle.grouping_attributes,
        treatment_attributes=bundle.treatment_attributes,
    )

    print("Aggregate view (Figure 1 analogue):\n")
    for group in view.groups:
        print(f"  {group.label():<20} {group.average:10.1f}")

    print("\nCauSumX explanation summary (Figure 2 analogue):\n")
    print(render_summary(summary, outcome="annual salary"))
    print("\nPer-step runtime (seconds):")
    for step, seconds in summary.timings.items():
        print(f"  {step:<20} {seconds:8.2f}")


if __name__ == "__main__":
    main()
