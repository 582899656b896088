"""Evaluation metrics: coverage, explainability, mining accuracy, rank agreement."""

from repro.metrics.quality import summary_quality
from repro.metrics.accuracy import (
    tuple_set_precision_recall,
    grouping_accuracy,
    treatment_accuracy,
)
from repro.metrics.ranking import kendall_tau, top_k_overlap

__all__ = [
    "summary_quality",
    "tuple_set_precision_recall",
    "grouping_accuracy",
    "treatment_accuracy",
    "kendall_tau",
    "top_k_overlap",
]
