"""ATE / CATE estimators with backdoor adjustment (Section 3, Eq. 5).

The main entry point is :class:`CATEEstimator`, which mirrors the paper's use
of the DoWhy linear-regression estimator: the outcome is regressed on the
binary treatment indicator plus the one-hot-encoded adjustment set; the
coefficient of the treatment indicator is the (C)ATE, and its t-test p-value
is reported alongside.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.causal.assumptions import check_positivity
from repro.causal.effects import EffectEstimate
from repro.causal.ols import DegenerateFit, FactoredDesign
from repro.dataframe import MaskCache, Pattern, Table, design_matrix
from repro.graph import CausalDAG, backdoor_adjustment_set, parents_adjustment_set
from repro.obs.registry import REGISTRY


def naive_difference_in_means(outcome: np.ndarray, treated: np.ndarray) -> EffectEstimate:
    """Unadjusted ATE: difference of group means with a Welch-style standard error."""
    outcome = np.asarray(outcome, dtype=np.float64)
    treated = np.asarray(treated, dtype=bool)
    valid = ~np.isnan(outcome)
    outcome, treated = outcome[valid], treated[valid]
    n_treated = int(treated.sum())
    n_control = int((~treated).sum())
    if n_treated == 0 or n_control == 0:
        return EffectEstimate.undefined(n_treated, n_control, estimator="naive")
    y1, y0 = outcome[treated], outcome[~treated]
    effect = float(y1.mean() - y0.mean())
    var = y1.var(ddof=1) / n_treated if n_treated > 1 else 0.0
    var += y0.var(ddof=1) / n_control if n_control > 1 else 0.0
    std_error = float(np.sqrt(var))
    if std_error > 0:
        from scipy import stats

        df = max(n_treated + n_control - 2, 1)
        p_value = float(2 * stats.t.sf(abs(effect) / std_error, df))
    else:
        p_value = 1.0
    return EffectEstimate(effect, std_error, p_value, n_treated, n_control,
                          estimator="naive")


class CATEEstimator:
    """Estimates CATE values of treatment patterns for sub-populations of a table.

    Parameters
    ----------
    table:
        The database instance ``D``.
    outcome:
        The aggregate (outcome) attribute ``A_avg``.
    dag:
        Causal DAG over the attributes; used to derive the adjustment set.
    adjustment:
        ``"parents"`` uses the parents of the treatment attributes (the CauSumX
        default, matching DoWhy with a known graph); ``"minimal"`` runs a
        minimum-size backdoor search; ``"none"`` performs no adjustment.
    sample_size:
        Optional cap on the number of tuples used for estimation (the paper's
        sampling optimisation; 1M tuples in the paper's configuration).
    min_group_size:
        Minimum number of treated and of control units required for a valid
        estimate; below this the estimate is reported as undefined.
    seed:
        Random seed for the sampling optimisation.
    use_cache:
        Memoize across calls: predicate masks in a shared
        :class:`~repro.dataframe.MaskCache` and bound sub-populations (with
        their factorisations and estimates) per pattern.  Off, every call
        binds afresh and nothing outlives it; the arithmetic is the same
        :class:`BoundSubpopulation` either way, so results are bit-identical.
    bound_cache_size:
        Maximum number of bound sub-populations kept alive at once (LRU).
    """

    def __init__(self, table: Table, outcome: str, dag: CausalDAG | None = None,
                 adjustment: str = "parents", sample_size: int | None = None,
                 min_group_size: int = 10, seed: int = 0,
                 use_cache: bool = True, bound_cache_size: int = 64):
        if adjustment not in {"parents", "minimal", "none"}:
            raise ValueError(f"unknown adjustment strategy {adjustment!r}")
        self.table = table
        self.outcome = outcome
        self.dag = dag
        self.adjustment = adjustment
        self.sample_size = sample_size
        self.min_group_size = min_group_size
        self.seed = seed
        self.use_cache = use_cache
        self.bound_cache_size = bound_cache_size
        self.mask_cache: MaskCache | None = MaskCache(table) if use_cache else None
        #: Shared store of lattice atomic predicates, keyed by the lattice's
        #: generation parameters.  Treatment miners for different grouping
        #: patterns (and, in the serving engine, different queries over the
        #: same population) pass it to :class:`~repro.mining.PatternLattice`
        #: so candidate atoms are enumerated once per table instead of once
        #: per (grouping pattern, direction).
        self.atom_cache: dict = {}
        self._adjustment_cache: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._adjustment_lock = threading.Lock()
        self._bound: OrderedDict[tuple, BoundSubpopulation] = OrderedDict()
        self._bound_lock = threading.Lock()

    # ------------------------------------------------------------------ adjustment sets

    def adjustment_set(self, treatment_attributes: Sequence[str]) -> list[str]:
        """Confounders ``Z`` to adjust for, given the treatment attributes."""
        key = tuple(sorted(treatment_attributes))
        with self._adjustment_lock:
            if key in self._adjustment_cache:
                return list(self._adjustment_cache[key])
        if self.dag is None or self.adjustment == "none":
            result: list[str] = []
        elif self.adjustment == "parents":
            result = parents_adjustment_set(self.dag, list(key), self.outcome)
        else:
            found = backdoor_adjustment_set(self.dag, list(key), self.outcome, max_size=4)
            result = found if found is not None else parents_adjustment_set(
                self.dag, list(key), self.outcome)
        result = [a for a in result if a in self.table and a != self.outcome
                  and a not in key]
        with self._adjustment_lock:
            self._adjustment_cache[key] = tuple(result)
        return result

    # ------------------------------------------------------------------ binding

    def bind(self, subpopulation: Pattern | None = None) -> "BoundSubpopulation":
        """Prepare a sub-population once so many treatments can be estimated cheaply.

        Selection of the sub-population, the sampling optimisation, and the
        missing-outcome filtering are performed a single time; every subsequent
        :meth:`BoundSubpopulation.estimate` call only evaluates the treatment
        mask (through the shared :class:`MaskCache` when enabled) and runs the
        regression.  Bound sub-populations are memoized per pattern in a small
        LRU so repeated lattice levels of the same grouping pattern reuse one
        binding (with ``use_cache`` off, every call gets a fresh one).
        """
        if not self.use_cache:
            return BoundSubpopulation(self, subpopulation)
        key = () if subpopulation is None else subpopulation.predicates
        with self._bound_lock:
            bound = self._bound.get(key)
            if bound is not None:
                self._bound.move_to_end(key)
                return bound
        bound = BoundSubpopulation(self, subpopulation)
        with self._bound_lock:
            existing = self._bound.get(key)
            if existing is not None:
                return existing
            self._bound[key] = bound
            while len(self._bound) > self.bound_cache_size:
                self._bound.popitem(last=False)
        return bound

    # ------------------------------------------------------------------ estimation

    def estimate(self, treatment: Pattern, subpopulation: Pattern | None = None,
                 extra_adjustment: Sequence[str] = ()) -> EffectEstimate:
        """Estimate ``CATE(treatment, outcome | subpopulation)``.

        ``treatment`` partitions the sub-population into treated (pattern holds)
        and control (pattern does not hold) units; the effect is the adjusted
        difference in expected outcome (Eq. 5) estimated by linear regression.
        """
        return self.bind(subpopulation).estimate(treatment, extra_adjustment)

    def estimate_many(self, treatments: Sequence[Pattern],
                      subpopulation: Pattern | None = None) -> list[EffectEstimate]:
        """Estimate CATE for a batch of candidate treatment patterns.

        The sub-population is bound once and every treatment of the batch
        goes through :meth:`BoundSubpopulation.estimate` in turn, on the
        calling thread: a candidate is a closed-form solve against a shared
        factorisation, far too small to be worth a future, and each estimate
        depends on its own candidate alone, so the list is the same whatever
        the batch or its order.
        """
        bound = self.bind(subpopulation)
        return [bound.estimate(treatment) for treatment in treatments]

    def cache_stats(self):
        """Statistics of the shared mask cache (``None`` when caching is off)."""
        return self.mask_cache.stats() if self.mask_cache is not None else None


class BoundSubpopulation:
    """A sub-population of a :class:`CATEEstimator`, prepared for batch estimation.

    Construction performs all treatment-independent work of
    :meth:`CATEEstimator.estimate` exactly once: evaluating the sub-population
    pattern, applying the sampling optimisation, and dropping tuples with a
    missing outcome.  Per adjustment-attribute tuple the ``[1 | confounders]``
    block is encoded and factored once (:class:`~repro.causal.ols.FactoredDesign`)
    — within one sub-population every treatment over the same attributes
    shares it — and every estimate is memoized, so the ``+`` and the ``-``
    search of one grouping pattern solve their common lattice nodes once.

    The bound table is a :meth:`Table.take` slice, so its categorical columns
    share the parent vocabulary: treatment masks sliced from the full-table
    cache line up with the bound rows, and the confounder blocks are built by
    fancy-indexing the inherited dictionary codes (no re-encoding of the
    sub-population).

    Bindings are shared across threads without a lock: factorisations and
    estimates are deterministic functions of the bound rows, so two threads
    racing on one key store equal values and either may win.
    """

    def __init__(self, estimator: CATEEstimator, subpopulation: Pattern | None):
        # Weak: the estimator memoizes its bindings, so a strong reference
        # back would be a cycle, and a dropped estimator (mask cache,
        # filtered table, factorisations) would wait for the cyclic collector
        # instead of being freed by reference counting.  Every caller of
        # ``bind`` holds the estimator for as long as it uses the binding.
        self._estimator = weakref.ref(estimator)
        self.subpopulation = subpopulation
        table = estimator.table
        cache = estimator.mask_cache
        if subpopulation is None or subpopulation.is_empty():
            indices = np.arange(table.n_rows, dtype=np.int64)
            base = table
        else:
            mask = cache.pattern_mask(subpopulation) if cache is not None \
                else subpopulation.evaluate(table)
            indices = np.nonzero(mask)[0]
            base = table.take(indices)
        if estimator.sample_size is not None and base.n_rows > estimator.sample_size:
            rng = np.random.default_rng(estimator.seed)
            chosen = np.sort(rng.choice(base.n_rows, size=estimator.sample_size,
                                        replace=False))
            base = base.take(chosen)
            indices = indices[chosen]
        if base.n_rows:
            outcome_values = base.column(estimator.outcome).values.astype(np.float64)
            valid = ~np.isnan(outcome_values)
            if not valid.all():
                keep = np.nonzero(valid)[0]
                base = base.take(keep)
                indices = indices[keep]
                outcome_values = outcome_values[keep]
        else:
            outcome_values = np.empty(0, dtype=np.float64)
        self.base = base
        self.indices = indices
        self.outcome_values = outcome_values
        self._identity = base is table  # binding covers the whole table unchanged
        self._domain_sizes: dict[str, int] = {}
        self._designs: dict[tuple[str, ...], FactoredDesign] = {}
        self._estimates: dict[tuple, EffectEstimate] = {}

    @property
    def estimator(self) -> CATEEstimator:
        return self._estimator()

    @property
    def n_rows(self) -> int:
        return self.base.n_rows

    def treated_mask(self, treatment: Pattern) -> np.ndarray:
        """Boolean treatment mask over the bound (filtered) rows."""
        cache = self.estimator.mask_cache
        if cache is not None:
            mask = cache.pattern_mask(treatment)
            return mask if self._identity else mask[self.indices]
        return treatment.evaluate(self.base)

    def _domain_size(self, attribute: str) -> int:
        size = self._domain_sizes.get(attribute)
        if size is None:
            size = len(self.base.domain(attribute))
            self._domain_sizes[attribute] = size
        return size

    def _design(self, attributes: tuple[str, ...]) -> FactoredDesign:
        """The factored ``[1 | confounders]`` block of one adjustment tuple."""
        design = self._designs.get(attributes)
        if design is None:
            block, _ = design_matrix(self.base, list(attributes),
                                     add_intercept=True)
            design = self._designs.setdefault(
                attributes, FactoredDesign(block, self.outcome_values))
        return design

    def estimate(self, treatment: Pattern,
                 extra_adjustment: Sequence[str] = ()) -> EffectEstimate:
        """Estimate the CATE of one treatment within the bound sub-population."""
        key = (treatment, tuple(extra_adjustment))
        estimate = self._estimates.get(key)
        if estimate is None:
            estimate = self._estimates.setdefault(
                key, self._solve(treatment, extra_adjustment))
        return estimate

    def _solve(self, treatment: Pattern,
               extra_adjustment: Sequence[str]) -> EffectEstimate:
        if self.base.n_rows == 0:
            return EffectEstimate.undefined()
        estimator = self.estimator
        treated = self.treated_mask(treatment)
        n_treated = int(treated.sum())
        n_control = int(self.base.n_rows - n_treated)
        if not check_positivity(treated, estimator.min_group_size):
            return EffectEstimate.undefined(n_treated, n_control)

        adjustment_attrs = list(estimator.adjustment_set(treatment.attributes))
        for attr in extra_adjustment:
            if attr not in adjustment_attrs and attr in self.base \
                    and attr != estimator.outcome:
                adjustment_attrs.append(attr)
        # Attributes the sub-population pins to a single value carry no
        # variance; keep them out of the confounder block.
        adjustment_attrs = [a for a in adjustment_attrs if self._domain_size(a) > 1]

        try:
            fit = self._design(tuple(adjustment_attrs)).solve(
                np.flatnonzero(treated))
        except DegenerateFit as skipped:
            REGISTRY.counter("repro_causal_skipped_total",
                             reason=skipped.reason).inc()
            return EffectEstimate.undefined(n_treated, n_control)
        return EffectEstimate(
            value=fit.coefficient,
            std_error=fit.std_error,
            p_value=fit.p_value,
            n_treated=n_treated,
            n_control=n_control,
            estimator="linear_regression",
        )


def estimate_ate(table: Table, treatment: Pattern, outcome: str,
                 dag: CausalDAG | None = None, **kwargs) -> EffectEstimate:
    """Average treatment effect of a treatment pattern over the whole table (Eq. 1/5)."""
    estimator = CATEEstimator(table, outcome, dag=dag, **kwargs)
    return estimator.estimate(treatment)


def estimate_cate(table: Table, treatment: Pattern, outcome: str,
                  subpopulation: Pattern, dag: CausalDAG | None = None,
                  **kwargs) -> EffectEstimate:
    """Conditional average treatment effect within a sub-population (Eq. 2/5)."""
    estimator = CATEEstimator(table, outcome, dag=dag, **kwargs)
    return estimator.estimate(treatment, subpopulation)
