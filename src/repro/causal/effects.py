"""Containers for causal-effect estimates."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EffectEstimate:
    """A (conditional) average treatment effect estimate.

    Attributes
    ----------
    value:
        The estimated effect size (difference in expected outcome between
        treated and control under adjustment).
    std_error:
        Standard error of the estimate.
    p_value:
        Two-sided p-value of the null hypothesis "effect = 0".
    n_treated / n_control:
        Number of treated and control units the estimate is based on.
    estimator:
        Name of the estimation strategy ("linear_regression", "naive").
    """

    value: float
    std_error: float
    p_value: float
    n_treated: int
    n_control: int
    estimator: str = "linear_regression"

    @property
    def n_units(self) -> int:
        return self.n_treated + self.n_control

    def is_significant(self, alpha: float = 0.05) -> bool:
        """True if the effect is statistically significant at level ``alpha``."""
        return self.p_value < alpha

    def is_valid(self) -> bool:
        """True if the estimate is based on both treated and control units."""
        return self.n_treated > 0 and self.n_control > 0 and self.value == self.value

    @classmethod
    def undefined(cls, n_treated: int = 0, n_control: int = 0,
                  estimator: str = "linear_regression") -> "EffectEstimate":
        """An estimate that could not be computed (overlap violated or no data)."""
        return cls(value=float("nan"), std_error=float("nan"), p_value=1.0,
                   n_treated=n_treated, n_control=n_control, estimator=estimator)

    def __repr__(self) -> str:
        if not self.is_valid():
            return f"EffectEstimate(undefined, treated={self.n_treated}, control={self.n_control})"
        return (f"EffectEstimate(value={self.value:.4g}, p={self.p_value:.3g}, "
                f"treated={self.n_treated}, control={self.n_control})")
