"""Conditional-independence testing via Fisher-z partial correlation."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataframe import Table


def _encoded_matrix(table: Table, attributes: Sequence[str]) -> np.ndarray:
    """Numeric matrix for CI testing: categoricals are label-encoded."""
    columns = []
    for attr in attributes:
        columns.append(table.column(attr).as_float())
    matrix = np.column_stack(columns) if columns else np.zeros((table.n_rows, 0))
    # Impute missing values with the column mean so correlations stay defined.
    for j in range(matrix.shape[1]):
        col = matrix[:, j]
        missing = np.isnan(col)
        if missing.any():
            fill = col[~missing].mean() if (~missing).any() else 0.0
            col[missing] = fill
    return matrix


def partial_correlation(table: Table, x: str, y: str,
                        given: Sequence[str] = ()) -> float:
    """Partial correlation of ``x`` and ``y`` given the conditioning attributes."""
    attrs = [x, y, *given]
    matrix = _encoded_matrix(table, attrs)
    if matrix.shape[0] < 3:
        return 0.0
    # Guard against constant columns.
    stds = matrix.std(axis=0)
    if stds[0] == 0 or stds[1] == 0:
        return 0.0
    corr = np.corrcoef(matrix, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)
    if not given:
        return float(np.clip(corr[0, 1], -0.999999, 0.999999))
    try:
        precision = np.linalg.pinv(corr)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return 0.0
    denom = np.sqrt(precision[0, 0] * precision[1, 1])
    if denom == 0:
        return 0.0
    return float(np.clip(-precision[0, 1] / denom, -0.999999, 0.999999))


def fisher_z_independent(table: Table, x: str, y: str, given: Sequence[str] = (),
                         alpha: float = 0.05) -> bool:
    """Fisher-z test: True if ``x`` and ``y`` are conditionally independent given ``given``."""
    n = table.n_rows
    k = len(given)
    if n - k - 3 <= 0:
        return True
    r = partial_correlation(table, x, y, given)
    z = 0.5 * np.log((1 + r) / (1 - r))
    statistic = abs(z) * np.sqrt(n - k - 3)
    from scipy import stats  # deferred: scipy.stats costs ~20 MB to import

    p_value = 2 * stats.norm.sf(statistic)
    return bool(p_value > alpha)
