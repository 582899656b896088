"""ATE / CATE estimators with backdoor adjustment (Section 3, Eq. 5).

The main entry point is :class:`CATEEstimator`, which mirrors the paper's use
of the DoWhy linear-regression estimator: the outcome is regressed on the
binary treatment indicator plus the one-hot-encoded adjustment set; the
coefficient of the treatment indicator is the (C)ATE, and its t-test p-value
is reported alongside.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.analysis.lockwatch import named_lock
from repro.causal.effects import EffectEstimate
from repro.causal.ols import DegenerateFit, FactoredDesign
from repro.dataframe import MaskCache, Pattern, Predicate, Table, design_rows
from repro.graph import CausalDAG, backdoor_adjustment_set, parents_adjustment_set
from repro.obs.registry import REGISTRY

if TYPE_CHECKING:
    from repro.mining.lattice import AtomSet


# Numbering keys through a bitmap of this + 4n slots costs less than a sort.
_SCATTER_SPACE = 1 << 14

#: Bound sub-populations an estimator keeps alive at once (LRU).
BOUND_CACHE_SIZE = 64


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

    Estimation is memoized across calls: predicate masks in one
    :class:`~repro.dataframe.MaskCache` over ``table``, and one bound
    sub-population (with its factorisations and estimates) per pattern, the
    last ``BOUND_CACHE_SIZE`` of them.
    """

    def __init__(self, table: Table, outcome: str, dag: CausalDAG | None = None,
                 adjustment: str = "parents", sample_size: int | None = None,
                 min_group_size: int = 10, seed: int = 0):
        if adjustment not in {"parents", "minimal", "none"}:
            raise ValueError(f"unknown adjustment strategy {adjustment!r}")
        self.table = table
        self.outcome = outcome
        self.dag = dag
        self.adjustment = adjustment
        self.sample_size = sample_size
        self.min_group_size = min_group_size
        self.seed = seed
        self.mask_cache = MaskCache(table)
        #: Shared store of lattice atomic predicates, keyed by the lattice's
        #: generation parameters.  Treatment miners for different grouping
        #: patterns (and, in the serving engine, different queries over the
        #: same population) pass it to :class:`~repro.mining.PatternLattice`
        #: so candidate atoms are enumerated once per table instead of once
        #: per (grouping pattern, direction).
        self.atom_cache: dict = {}
        self._adjustment_lock = named_lock("CATEEstimator._adjustment_lock")
        self._adjustment_cache: dict[tuple, tuple] = {}  # guarded-by: _adjustment_lock
        self._numeric_ranks: dict[str, tuple[np.ndarray, int]] = {}
        self._bound_lock = named_lock("CATEEstimator._bound_lock")
        self._bound: OrderedDict = OrderedDict()  # guarded-by: _bound_lock

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

    def _numeric_codes(self, attribute: str) -> tuple[np.ndarray, int]:
        """A numeric attribute's rank among the table's distinct values, NaN
        last, and the number of ranks: factorised once, sliced per binding."""
        if attribute not in self._numeric_ranks:
            uniques, codes = np.unique(self.table.column(attribute).values,
                                       return_inverse=True)
            self._numeric_ranks[attribute] = codes, len(uniques)
        return self._numeric_ranks[attribute]

    # ------------------------------------------------------------------ binding

    def bind(self, subpopulation: Pattern | None = None) -> "BoundSubpopulation":
        """Prepare a sub-population once so many treatments can be estimated cheaply.

        Selection of the sub-population, the sampling optimisation, and the
        missing-outcome filtering are performed a single time; every subsequent
        :meth:`BoundSubpopulation.estimate` call only evaluates the treatment
        mask (through the shared :class:`MaskCache`) and runs the regression.
        Bound sub-populations are memoized per pattern in a small LRU so
        repeated lattice levels of the same grouping pattern reuse one
        binding.
        """
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
            while len(self._bound) > BOUND_CACHE_SIZE:
                self._bound.popitem(last=False)
        return bound

    def release_bindings(self) -> int:
        """Drop every memoized binding — its rows' ``table.take`` slice,
        atom masks, factorisations and estimates — and return how many
        there were.  The mask cache stays; a later :meth:`bind` rebinds
        deterministically, so estimates keep their bits."""
        with self._bound_lock:
            released = len(self._bound)
            self._bound.clear()
        return released

    # ------------------------------------------------------------------ estimation

    def estimate(self, treatment: Pattern,
                 subpopulation: Pattern | None = None) -> EffectEstimate:
        """Estimate ``CATE(treatment, outcome | subpopulation)``.

        ``treatment`` partitions the sub-population into treated (pattern holds)
        and control (pattern does not hold) units; the effect is the adjusted
        difference in expected outcome (Eq. 5) estimated by linear regression.
        """
        return self.bind(subpopulation).estimate(treatment)

    def estimate_many(self, treatments: Sequence["Pattern | AtomSet"],
                      subpopulation: Pattern | None = None) -> list[EffectEstimate]:
        """Estimate CATE for a batch of candidate treatments (patterns or
        lattice nodes, see :meth:`BoundSubpopulation.estimate`).

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
        """Statistics of the shared mask cache."""
        return self.mask_cache.stats()


class BoundSubpopulation:
    """A sub-population of a :class:`CATEEstimator`, prepared for batch estimation.

    Construction performs all treatment-independent work of
    :meth:`CATEEstimator.estimate` exactly once: evaluating the sub-population
    pattern, applying the sampling optimisation, and dropping tuples with a
    missing outcome.  Per adjustment-attribute tuple the ``[1 | confounders]``
    block is encoded, one row per confounder stratum, and factored once
    (:class:`~repro.causal.ols.FactoredDesign`), and every estimate is
    memoized, so the ``+`` and the ``-`` search of one grouping pattern solve
    their common lattice nodes once.

    The bound table is a :meth:`Table.take` slice, so its categorical columns
    share the parent vocabulary: predicate masks sliced from the full-table
    cache line up with the bound rows, and strata are numbered from the
    inherited dictionary codes (numeric confounders from codes the estimator
    factorises once).  Each lattice atom's mask is sliced once per binding, so
    a candidate costs an AND of bound masks, one count that decides
    positivity, and one ``nonzero`` into the solve.

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
        if subpopulation is None or subpopulation.is_empty():
            indices = np.arange(table.n_rows, dtype=np.int64)
            base = table
        else:
            mask = estimator.mask_cache.pattern_mask(subpopulation)
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
        self._atom_masks: dict = {}  # per atom space, see AtomSet.masks
        self._domain_sizes: dict[str, int] = {}
        self._attribute_levels: dict[str, tuple[np.ndarray, int]] = {}
        self._adjustments: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._designs: dict[tuple[str, ...], FactoredDesign] = {}
        self._estimates: dict[Pattern | AtomSet, EffectEstimate] = {}

    @property
    def estimator(self) -> CATEEstimator:
        return self._estimator()

    @property
    def n_rows(self) -> int:
        return self.base.n_rows

    def _mask(self, predicate: Predicate) -> np.ndarray:
        """Boolean mask of one predicate over the bound (filtered) rows."""
        mask = self.estimator.mask_cache.predicate_mask(predicate)
        return mask if self._identity else mask[self.indices]

    def _masks(self, treatment: "Pattern | AtomSet") -> list[np.ndarray]:
        """The bound masks of a treatment's predicates; a lattice node's are
        kept for as long as the binding lives."""
        if isinstance(treatment, Pattern):
            return [self._mask(p) for p in treatment.predicates]
        return treatment.masks(self._atom_masks, self._mask)

    def _domain_size(self, attribute: str) -> int:
        size = self._domain_sizes.get(attribute)
        if size is None:
            size = len(self.base.domain(attribute))
            self._domain_sizes[attribute] = size
        return size

    def _adjustment(self, attributes: tuple[str, ...]) -> tuple[str, ...]:
        """The confounder tuple of a treatment over ``attributes``, memoized."""
        adjustment = self._adjustments.get(attributes)
        if adjustment is None:
            chosen = self.estimator.adjustment_set(attributes)
            # Attributes the sub-population pins to a single value carry no
            # variance; keep them out of the confounder block.
            adjustment = self._adjustments.setdefault(
                attributes, tuple(a for a in chosen if self._domain_size(a) > 1))
        return adjustment

    def _levels(self, attribute: str) -> tuple[np.ndarray, int]:
        """One confounder's level on each bound row, numbered in value order
        (a missing value is a level of its own), and the number of levels."""
        if attribute not in self._attribute_levels:
            column = self.base.column(attribute)
            if column.numeric:
                codes, size = self.estimator._numeric_codes(attribute)
                codes = codes[self.indices]
            else:
                codes, size = column.codes + 1, len(column.vocab) + 1
            self._attribute_levels[attribute] = _dense(codes, size)
        return self._attribute_levels[attribute]

    def _strata(self, attributes: tuple[str, ...]) -> tuple[np.ndarray, int]:
        """Each bound row's confounder stratum, numbered in order of its
        levels, and the number of strata."""
        if len(attributes) == 1:
            return self._levels(attributes[0])
        strata, count = np.zeros(self.base.n_rows, dtype=np.int64), 1
        for attribute in attributes:
            levels, size = self._levels(attribute)
            if count * size > 4 * len(strata) + _SCATTER_SPACE:
                strata, count = _dense(strata, count)
            strata, count = strata * size + levels, count * size
        return _dense(strata, count) if attributes else (strata, count)

    def _design(self, attributes: tuple[str, ...]) -> FactoredDesign:
        """The factored ``[1 | confounders]`` block of one adjustment tuple:
        one row per stratum, the row ``design_matrix`` gives its members."""
        design = self._designs.get(attributes)
        if design is None:
            strata, n_strata = self._strata(attributes)
            members = np.empty(n_strata, dtype=np.int64)
            members[strata] = np.arange(len(strata))
            block, _ = design_rows(self.base, attributes, members,
                                   add_intercept=True)
            design = self._designs.setdefault(
                attributes, FactoredDesign(block, strata, self.outcome_values))
        return design

    def estimate(self, treatment: "Pattern | AtomSet") -> EffectEstimate:
        """Estimate the CATE of one treatment within the bound sub-population.

        ``treatment`` is a :class:`~repro.dataframe.Pattern` or, from the
        lattice miners, an :class:`~repro.mining.lattice.AtomSet`: the same
        conjunction as sorted atom ids, whose bound masks the binding keeps.
        """
        estimate = self._estimates.get(treatment)
        if estimate is None:
            estimate = self._estimates.setdefault(treatment,
                                                  self._solve(treatment))
        return estimate

    def _solve(self, treatment: "Pattern | AtomSet") -> EffectEstimate:
        n_rows = self.base.n_rows
        if n_rows == 0:
            return EffectEstimate.undefined()
        masks = self._masks(treatment)
        treated = masks[0] if masks else np.ones(n_rows, dtype=bool)
        for mask in masks[1:]:
            treated = treated & mask
        n_treated = int(np.count_nonzero(treated))
        n_control = n_rows - n_treated
        min_group_size = self.estimator.min_group_size
        if n_treated < min_group_size or n_control < min_group_size:
            return EffectEstimate.undefined(n_treated, n_control)

        adjustment = self._adjustment(treatment.attributes)
        try:
            fit = self._design(adjustment).solve(treated.nonzero()[0])
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


def _dense(key: np.ndarray, space: int) -> tuple[np.ndarray, int]:
    """``key`` renumbered ``0..k-1`` in key order, and ``k``."""
    if space > 4 * len(key) + _SCATTER_SPACE:
        uniques, ids = np.unique(key, return_inverse=True)
        return ids, len(uniques)
    present = np.zeros(space, dtype=np.bool_)
    present[key] = True
    present = present.nonzero()[0]
    ids = np.empty(space, dtype=np.int64)
    ids[present] = np.arange(len(present), dtype=np.int64)
    return ids[key], len(present)


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
