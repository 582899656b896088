"""Unit tests for the OLS engine."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.causal import CATEEstimator, ols_fit
from repro.causal.ols import DegenerateFit, FactoredDesign
from repro.dataframe import Column, Pattern, Table, design_matrix
from repro.graph import CausalDAG
from test_lattice_oracles import estimation


class TestOLSFit:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(0)
        n = 500
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 2.0 + 3.0 * x1 - 1.5 * x2 + rng.normal(scale=0.1, size=n)
        design = np.column_stack([np.ones(n), x1, x2])
        result = ols_fit(design, y, ["intercept", "x1", "x2"])
        assert result.coefficient("intercept") == pytest.approx(2.0, abs=0.05)
        assert result.coefficient("x1") == pytest.approx(3.0, abs=0.05)
        assert result.coefficient("x2") == pytest.approx(-1.5, abs=0.05)
        assert result.r_squared > 0.99

    def test_p_value_significant_for_real_effect(self):
        rng = np.random.default_rng(1)
        n = 300
        x = rng.normal(size=n)
        y = 4.0 * x + rng.normal(size=n)
        result = ols_fit(np.column_stack([np.ones(n), x]), y, ["c", "x"])
        assert result.p_value("x") < 1e-6

    def test_p_value_large_for_null_effect(self):
        rng = np.random.default_rng(2)
        n = 300
        x = rng.normal(size=n)
        y = rng.normal(size=n)  # independent of x
        result = ols_fit(np.column_stack([np.ones(n), x]), y, ["c", "x"])
        assert result.p_value("x") > 0.01

    def test_collinear_design_does_not_fail(self):
        rng = np.random.default_rng(3)
        n = 100
        x = rng.normal(size=n)
        design = np.column_stack([np.ones(n), x, x])  # duplicated column
        y = x + rng.normal(size=n)
        result = ols_fit(design, y)
        assert np.isfinite(result.coefficients).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ols_fit(np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError):
            ols_fit(np.zeros((10, 2)), np.zeros(5))
        with pytest.raises(ValueError):
            ols_fit(np.zeros((10, 2)), np.zeros(10), ["only-one-name"])

    def test_perfect_fit_has_zero_residual_r2_one(self):
        x = np.arange(10, dtype=float)
        design = np.column_stack([np.ones(10), x])
        y = 1.0 + 2.0 * x
        result = ols_fit(design, y)
        assert result.r_squared == pytest.approx(1.0)

    def test_p_values_are_the_bits_of_t_sf(self):
        """``special.stdtr(df, -|t|)`` is what ``stats.t.sf`` evaluates."""
        from scipy import special, stats

        rng = np.random.default_rng(0)
        t = np.concatenate([rng.standard_normal(10_000) * 5,
                            rng.standard_cauchy(9_996) * 100,
                            [0.0, np.inf, -np.inf, np.nan]])
        for df in (1, 2, 3, 7, 30, 999, 19_999):
            np.testing.assert_array_equal(
                special.stdtr(df, -np.abs(t)), stats.t.sf(np.abs(t), df))
        design = np.column_stack([np.ones(50), rng.standard_normal((50, 3))])
        outcome = design @ [1.0, 0.5, 0.0, -2.0] + rng.standard_normal(50)
        result = ols_fit(design, outcome)
        np.testing.assert_array_equal(
            result.p_values,
            2.0 * stats.t.sf(np.abs(result.t_values), result.df_resid))


# --------------------------------------------------------------------------- FactoredDesign


def _stacked_reference(block, treated, outcome):
    """``ols_fit`` on ``[1 | t | Z]``: the regression the solver must reproduce."""
    design = np.hstack([block[:, :1], treated.astype(np.float64).reshape(-1, 1),
                        block[:, 1:]])
    return ols_fit(design, outcome), design


class TestFactoredDesign:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_ols_fit_through_the_estimator(self, data):
        """Random tables — numeric and one-hot confounders, rank-deficient
        confounder blocks, unbalanced arms, missing outcomes, missing
        treatment values — estimated by ``CATEEstimator`` and refitted by
        ``ols_fit`` on the stacked design built here by hand."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n = data.draw(st.integers(30, 300))
        share = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.85]))
        columns, confounders = [], []
        for i in range(data.draw(st.integers(0, 2))):
            confounders.append(f"x{i}")
            columns.append(Column(f"x{i}", rng.normal(size=n) * 3.0 + i,
                                  numeric=True))
        for i, levels in enumerate(data.draw(st.lists(st.integers(2, 4),
                                                      max_size=2))):
            confounders.append(f"c{i}")
            columns.append(Column(f"c{i}", [f"l{v}" for v in
                                            rng.integers(0, levels, n)],
                                  numeric=False))
        if confounders and data.draw(st.booleans()):  # a rank-deficient block
            source = columns[0]
            confounders.append("copy")
            columns.append(Column("copy", source.values, numeric=source.numeric))
        treatment_values = np.where(rng.random(n) < share, "yes", "no").astype(object)
        treatment_values[rng.random(n) < data.draw(st.sampled_from([0.0, 0.1]))] = None
        outcome = 2.0 * (treatment_values == "yes") + rng.normal(size=n)
        for column in columns:
            if column.numeric:
                outcome = outcome + 0.5 * column.values
            else:
                outcome = outcome + column.codes
        outcome[rng.random(n) < data.draw(st.sampled_from([0.0, 0.15]))] = np.nan
        table = Table([*columns, Column("t", treatment_values, numeric=False),
                       Column("y", outcome, numeric=True)])
        dag = CausalDAG.from_dict({"t": confounders, "y": ["t", *confounders]})
        memoised = data.draw(st.booleans())

        with estimation(memoised):
            estimator = CATEEstimator(table, "y", dag=dag, min_group_size=5)
            estimate = estimator.estimate(Pattern.of(("t", "=", "yes")))

        kept = table.take(np.flatnonzero(~np.isnan(outcome)))
        treated = np.array([v == "yes" for v in kept.column("t").values])
        assert (estimate.n_treated, estimate.n_control) == \
            (int(treated.sum()), int((~treated).sum()))
        adjustment = estimator.adjustment_set(["t"])  # its column order
        assert sorted(adjustment) == sorted(confounders)
        adjusted = tuple(a for a in adjustment if len(kept.domain(a)) > 1)
        block, _ = design_matrix(kept, adjusted, add_intercept=True)
        reference, stacked = _stacked_reference(block, treated,
                                                kept.column("y").values)
        if not estimate.is_valid():
            assert min(estimate.n_treated, estimate.n_control) < 5 \
                or np.linalg.matrix_rank(stacked) == np.linalg.matrix_rank(block)
            return
        design = estimator.bind()._design(adjusted)  # the stratum block
        fit = design.solve(np.flatnonzero(treated))
        assert fit == (estimate.value, estimate.std_error, estimate.p_value)
        assert design.df_resid == reference.df_resid
        assert fit.std_error == pytest.approx(reference.std_errors[1], rel=1e-8)
        assert fit.coefficient == pytest.approx(
            reference.coefficients[1], rel=1e-8, abs=1e-8 * fit.std_error)
        assert fit.p_value == pytest.approx(reference.p_values[1], rel=1e-6,
                                            abs=1e-12)

    def test_no_confounders_is_the_difference_in_means(self):
        design = FactoredDesign(np.ones((1, 1)), np.zeros(4, dtype=np.int64),
                                np.array([2.0, 1.0, 2.5, 1.5]))
        assert design.solve(np.array([0, 2])).coefficient == pytest.approx(1.0)
        assert design.df_resid == 2

    @pytest.mark.parametrize("reason,block,outcome,rows", [
        # The treatment column equals a confounder column.
        ("collinear_treatment",
         np.column_stack([np.ones(8), [0, 1] * 4]), np.arange(8.0) ** 2, [1, 3, 5, 7]),
        # As many parameters as rows once the treatment joins the block.
        ("no_residual_df",
         np.column_stack([np.ones(3), [0.0, 1.0, 5.0]]), np.array([1.0, 2.0, 4.0]), [0]),
        # The outcome is an exact linear function of treatment and block.
        ("zero_residual_variance",
         np.column_stack([np.ones(8), np.arange(8.0)]),
         3.0 + 2.0 * np.arange(8.0) + 5.0 * np.array([1, 0, 0, 1, 1, 0, 1, 0]),
         [0, 3, 4, 6]),
        # A constant outcome: the residuals are pure rounding noise.
        ("zero_residual_variance",
         np.column_stack([np.ones(9), np.arange(9.0) / 7.0]), np.full(9, 0.1),
         [0, 3, 4, 6]),
    ])
    def test_degenerate_designs_raise_their_reason(self, reason, block,
                                                   outcome, rows):
        with pytest.raises(DegenerateFit) as raised:
            FactoredDesign(block, np.arange(len(block)),
                           outcome).solve(np.array(rows))
        assert raised.value.reason == reason


# Numpy first, as a caller that imports the package late would: the pin at
# ``import repro`` must reach the OpenBLAS numpy already loaded.
_FACTOR_BLOCKS = """
import hashlib
import numpy as np
import repro
from repro.causal.ols import FactoredDesign
for seed in range(6):
    rng = np.random.default_rng(seed)
    n = 20_001
    block = np.column_stack([np.ones(n), rng.integers(0, 2, size=(n, 3))])
    outcome = rng.normal(size=n)
    strata_block, strata = np.unique(block, axis=0, return_inverse=True)
    for design in (FactoredDesign(block.astype(float), np.arange(n), outcome),
                   FactoredDesign(strata_block.astype(float), strata, outcome)):
        print(hashlib.sha256(design._residual.tobytes()).hexdigest(),
              design._rss.hex())
"""


class TestBlasWidth:
    def test_factorisation_bits_do_not_depend_on_blas_threads(self):
        """OpenBLAS splits a dot product of more than 10 000 rows across its
        threads; importing ``repro`` pins it to one, so residuals and their
        sum of squares are the same bits whatever the thread setting."""
        src = str(Path(__file__).resolve().parents[1] / "src")

        def factor(threads: str) -> str:
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": src}
            return subprocess.run([sys.executable, "-c", _FACTOR_BLOCKS],
                                  env=env, capture_output=True, text=True,
                                  check=True, timeout=120).stdout

        single = factor("1")
        assert len(single.splitlines()) == 12
        assert factor("4") == single


_SERVE_ONE_EXPLAIN = """
import sys
import repro, repro.cli, repro.net
from repro.core import CauSumX
from repro.datasets import load_dataset
bundle = load_dataset("stackoverflow", n=300, seed=0)
CauSumX(bundle.table, bundle.dag).explain(
    "SELECT Country, AVG(Salary) FROM SO GROUP BY Country",
    grouping_attributes=bundle.grouping_attributes,
    treatment_attributes=bundle.treatment_attributes)
print("scipy.stats" in sys.modules)
"""


def test_serving_code_never_imports_scipy_stats():
    """``scipy.stats`` costs ~20 MB of RSS; only the paper's experiments
    (Kendall's tau, CI tests for discovery) load it, on first use."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _SERVE_ONE_EXPLAIN],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.strip() == "False"
