"""Observational causal inference: ATE/CATE estimation with backdoor adjustment."""

from repro.causal.effects import EffectEstimate
from repro.causal.ols import OLSResult, ols_fit
from repro.causal.estimators import (
    BoundSubpopulation,
    CATEEstimator,
    naive_difference_in_means,
    estimate_ate,
    estimate_cate,
)

__all__ = [
    "EffectEstimate",
    "OLSResult",
    "ols_fit",
    "BoundSubpopulation",
    "CATEEstimator",
    "naive_difference_in_means",
    "estimate_ate",
    "estimate_cate",
]
