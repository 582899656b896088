"""Quality measures of explanation summaries (Figures 8, 9, 21)."""

from __future__ import annotations

from repro.core.patterns import ExplanationSummary


def summary_quality(summary: ExplanationSummary) -> dict:
    """A dictionary of the quality measures reported across the evaluation."""
    return {
        "n_patterns": len(summary),
        "n_candidates": summary.n_candidates,
        "coverage": summary.coverage,
        "total_explainability": summary.total_explainability,
        "satisfies_constraints": summary.satisfies_constraints(),
        "feasible": summary.feasible,
        "runtime_grouping": summary.timings.get("grouping_patterns", 0.0),
        "runtime_treatments": summary.timings.get("treatment_patterns", 0.0),
        "runtime_selection": summary.timings.get("selection", 0.0),
        "runtime_total": sum(summary.timings.values()),
    }
