"""Design-matrix encoding of table attributes for regression-based estimators.

Categorical attributes are one-hot encoded straight from their dictionary
codes: the indicator column of each row is found by fancy-indexing a
``vocab code -> matrix column`` lookup table, so no per-row dictionary lookups
run.  ``CATEEstimator`` binds sub-populations through these kernels, which
makes design-matrix construction vectorized end-to-end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataframe.table import Table


def one_hot(table: Table, attribute: str, drop_first: bool = True) -> tuple[np.ndarray, list[str]]:
    """One-hot encode an attribute.

    Returns the encoded matrix and the generated feature names.  With
    ``drop_first`` the first category is used as the reference level to avoid
    perfect collinearity in regressions.  Categories are the values *present*
    in the column (in sorted/vocabulary order), so sliced tables produce the
    same layout the row-at-a-time encoder did.
    """
    column = table.column(attribute)
    if not column.numeric:
        return design_matrix(table, [attribute], drop_first)
    categories = column.unique()
    if drop_first and len(categories) > 1:
        categories = categories[1:]
    matrix = np.zeros((table.n_rows, len(categories)), dtype=np.float64)
    if categories:
        # Exact-match indicators against the sorted category values.
        cats = np.asarray(categories, dtype=np.float64)
        values = column.values
        with np.errstate(invalid="ignore"):
            positions = np.searchsorted(cats, values)
        positions = np.clip(positions, 0, len(cats) - 1)
        rows = np.flatnonzero(values == cats[positions])
        matrix[rows, positions[rows]] = 1.0
    return matrix, [f"{attribute}={c}" for c in categories]


def design_matrix(table: Table, attributes: Sequence[str], drop_first: bool = True,
                  add_intercept: bool = False) -> tuple[np.ndarray, list[str]]:
    """Build a regression design matrix from a mix of numeric/categorical attributes.

    Numeric attributes are passed through (missing values imputed with the
    column mean); categorical attributes are one-hot encoded from their
    dictionary codes.  The output matrix is allocated once and every block is
    written into it in place — no intermediate block list or ``hstack`` copy.
    CATE estimation never builds it: it encodes one row per confounder
    stratum with :func:`design_rows`.
    """
    return design_rows(table, attributes, None, drop_first, add_intercept)


def design_rows(table: Table, attributes: Sequence[str], rows: np.ndarray | None,
                drop_first: bool = True, add_intercept: bool = False
                ) -> tuple[np.ndarray, list[str]]:
    """The rows ``rows`` (``None``: all) of :func:`design_matrix`, bit for bit,
    without encoding the others: categories and imputed means still come
    from every row of ``table``."""
    n_rows = table.n_rows if rows is None else len(rows)
    plan: list[tuple] = []  # (column, categories-or-None)
    names: list[str] = []
    width = 0
    if add_intercept:
        plan.append((None, None))
        names.append("intercept")
        width += 1
    for attribute in attributes:
        column = table.column(attribute)
        if column.numeric:
            plan.append((column, None))
            names.append(attribute)
            width += 1
        else:
            # The present codes, in vocabulary (sorted) order.
            categories = np.bincount(column.codes + 1)[1:].nonzero()[0]
            if drop_first and len(categories) > 1:
                categories = categories[1:]
            if not len(categories):
                continue
            plan.append((column, categories))
            names.extend(f"{attribute}={column.vocab[c]}"
                         for c in categories.tolist())
            width += len(categories)
    matrix = np.zeros((n_rows, width), dtype=np.float64)
    offset = 0
    for column, categories in plan:
        if column is None:  # intercept
            matrix[:, offset] = 1.0
            offset += 1
        elif categories is None:  # numeric pass-through with mean imputation
            values = column.values
            missing = np.isnan(values)
            if missing.any():
                fill = values[~missing].mean() if (~missing).any() else 0.0
                values = np.where(missing, fill, values)
            matrix[:, offset] = values if rows is None else values[rows]
            offset += 1
        else:
            # Map vocab codes to matrix columns; unselected codes (reference
            # level) and the missing sentinel (-1, wrapping to the extra last
            # slot) stay -1.
            lookup = np.full(len(column.vocab) + 1, -1, dtype=np.int64)
            lookup[categories] = np.arange(len(categories), dtype=np.int64)
            positions = lookup[column.codes if rows is None
                               else column.codes[rows]]
            hit = (positions >= 0).nonzero()[0]
            matrix[hit, offset + positions[hit]] = 1.0
            offset += len(categories)
    return matrix, names
