"""Ordinary least squares with coefficient standard errors and p-values."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special, stats

_EPS = float(np.finfo(np.float64).eps)
# A treatment whose squared distance to the confounder span is below this
# share of its squared norm is a linear combination of the confounders.
_COLLINEAR_TOL = 1e-8


@dataclass(frozen=True)
class OLSResult:
    """Fitted OLS coefficients plus inferential statistics."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    feature_names: tuple[str, ...]
    n_obs: int
    df_resid: int
    r_squared: float

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.feature_names.index(name)])

    def std_error(self, name: str) -> float:
        return float(self.std_errors[self.feature_names.index(name)])

    def p_value(self, name: str) -> float:
        return float(self.p_values[self.feature_names.index(name)])


class DegenerateFit(ValueError):
    """The treatment effect is not estimable; ``reason`` labels the skip counter."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TreatmentFit(NamedTuple):
    """Coefficient of one 0/1 treatment column and its inferential statistics."""

    coefficient: float
    std_error: float
    p_value: float


class FactoredDesign:
    """``outcome ~ [block | treatment]`` with the fixed ``block`` factored once.

    CATE estimation fits the same regression once per candidate treatment and
    only the 0/1 treatment column changes between fits.  By Frisch–Waugh–
    Lovell, with ``Q`` an orthonormal basis of ``block`` (intercept and
    confounders) and ``r = y - QQ'y``, the treatment coefficient is ``s / d``
    where ``s`` sums ``r`` over the treated rows and ``d = n_t - |sum of the
    treated rows of Q|^2``; the residual sum of squares of the full model is
    ``r.r - s^2 / d``.  The factorisation runs once; :meth:`solve` is two row
    gathers and a few scalar flops, and agrees with the treatment entries of
    :func:`ols_fit` on the stacked design whenever the effect is identifiable.

    Every number of a candidate is reduced over that candidate's rows alone,
    in row order, so it is bit-identical whatever else is estimated beside it.
    """

    def __init__(self, block: np.ndarray, outcome: np.ndarray):
        # An inf/NaN outcome or confounder leaves no fit of this block
        # defined; decide it here, once, instead of per candidate.
        self._finite = bool(np.isfinite(outcome).all()
                            and np.isfinite(block).all())
        if not self._finite:
            return
        n = len(outcome)
        basis, singular, _ = np.linalg.svd(block, full_matrices=False)
        # np.linalg.matrix_rank's rule, so df_resid agrees with ols_fit.
        rank = int((singular > singular[0] * max(block.shape) * _EPS).sum())
        self._basis = np.ascontiguousarray(basis[:, :rank])
        self._residual = outcome - self._basis @ (self._basis.T @ outcome)
        self._rss = float(self._residual @ self._residual)
        # Below this a residual sum of squares is rounding noise of the
        # projection (second term) or of the subtraction in solve (first).
        self._rss_floor = n * _EPS * (self._rss
                                      + n * _EPS * float(outcome @ outcome))
        self.df_resid = n - rank - 1

    def solve(self, treated_rows: np.ndarray) -> TreatmentFit:
        """Fit the treatment whose indicator is 1 exactly on ``treated_rows``.

        Raises :class:`DegenerateFit` when the effect is not estimable: a
        non-finite outcome or confounder value, no residual degrees of
        freedom, a treatment that is a linear combination of the block, or
        zero residual variance.
        """
        if not self._finite:
            raise DegenerateFit("non_finite")
        if self.df_resid < 1:
            raise DegenerateFit("no_residual_df")
        n_treated = len(treated_rows)
        projected = self._basis[treated_rows].sum(axis=0)
        d = n_treated - float(projected @ projected)
        if d <= _COLLINEAR_TOL * n_treated:
            raise DegenerateFit("collinear_treatment")
        s = float(self._residual[treated_rows].sum())
        rss = self._rss - s * s / d
        if rss <= self._rss_floor:
            raise DegenerateFit("zero_residual_variance")
        coefficient = s / d
        std_error = math.sqrt(rss / self.df_resid / d)
        p_value = 2.0 * float(special.stdtr(self.df_resid,
                                            -abs(coefficient) / std_error))
        return TreatmentFit(coefficient, std_error, p_value)


def ols_fit(design: np.ndarray, outcome: np.ndarray,
            feature_names: list[str] | None = None) -> OLSResult:
    """Fit ``outcome ~ design`` by least squares.

    Uses the pseudo-inverse so rank-deficient designs (e.g. collinear one-hot
    blocks) do not fail; standard errors for unidentifiable coefficients are
    large rather than raising.
    """
    design = np.asarray(design, dtype=np.float64)
    outcome = np.asarray(outcome, dtype=np.float64)
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    n, p = design.shape
    if outcome.shape != (n,):
        raise ValueError("outcome length does not match design matrix")
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(p)]
    if len(feature_names) != p:
        raise ValueError("feature_names length does not match design matrix")

    gram = design.T @ design
    gram_pinv = np.linalg.pinv(gram)
    coefficients = gram_pinv @ design.T @ outcome
    fitted = design @ coefficients
    residuals = outcome - fitted
    df_resid = max(n - np.linalg.matrix_rank(design), 1)
    sigma2 = float(residuals @ residuals) / df_resid
    covariance = sigma2 * gram_pinv
    variances = np.clip(np.diag(covariance), 0.0, None)
    std_errors = np.sqrt(variances)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(std_errors > 0, coefficients / std_errors, 0.0)
    p_values = 2.0 * stats.t.sf(np.abs(t_values), df_resid)

    total_ss = float(((outcome - outcome.mean()) ** 2).sum())
    resid_ss = float((residuals ** 2).sum())
    r_squared = 1.0 - resid_ss / total_ss if total_ss > 0 else 0.0

    return OLSResult(
        coefficients=coefficients,
        std_errors=std_errors,
        t_values=t_values,
        p_values=np.asarray(p_values),
        feature_names=tuple(feature_names),
        n_obs=n,
        df_resid=df_resid,
        r_squared=r_squared,
    )
