"""Figure 10: precision/recall of the mining algorithms vs Brute-Force on synthetic data."""

from __future__ import annotations

from typing import Sequence

from repro.causal import CATEEstimator
from repro.core import CauSumXConfig
from repro.datasets import make_synthetic
from repro.metrics import grouping_accuracy, treatment_accuracy
from repro.mining.grouping import mine_grouping_patterns
from repro.mining.lattice import PatternLattice
from repro.mining.treatments import TreatmentMinerConfig, mine_top_treatment
from repro.sql import AggregateView


def grouping_precision_recall(n_grouping_values: Sequence[int], n: int = 1000,
                              seed: int = 0, apriori_threshold: float = 0.1) -> list[dict]:
    """Figure 10(a): grouping-pattern accuracy while varying the number of grouping attributes.

    For each setting, the tuples covered by the Apriori-mined grouping patterns
    are compared against the tuples covered by the exhaustively mined patterns.
    """
    rows = []
    for n_grouping in n_grouping_values:
        bundle = make_synthetic(n=n, n_grouping=int(n_grouping), n_treatment=3,
                                seed=seed)
        view = AggregateView(bundle.table, bundle.query)
        mined = mine_grouping_patterns(view, bundle.grouping_attributes,
                                       min_support=apriori_threshold)
        exhaustive = mine_grouping_patterns(view, bundle.grouping_attributes,
                                            min_support=0.0, max_length=None)
        metrics = grouping_accuracy(view.table,
                                    [g.pattern for g in mined],
                                    [g.pattern for g in exhaustive])
        rows.append({"n_grouping_attributes": int(n_grouping),
                     "n_mined": len(mined), "n_exhaustive": len(exhaustive),
                     **metrics})
    return rows


def treatment_precision_recall(n_treatment_values: Sequence[int], n: int = 1000,
                               n_grouping_patterns: int = 20, seed: int = 0) -> list[dict]:
    """Figure 10(b): treated-group accuracy of Algorithm 2 vs exhaustive search.

    For a fixed set of grouping patterns (the same for both algorithms, as in
    the paper), the tuples marked treated by Algorithm 2's top treatment are
    compared against the tuples marked treated by the exhaustive search.
    """
    rows = []
    for n_treatment in n_treatment_values:
        bundle = make_synthetic(n=n, n_grouping=3, n_treatment=int(n_treatment),
                                seed=seed)
        view = AggregateView(bundle.table, bundle.query)
        groupings = mine_grouping_patterns(view, bundle.grouping_attributes,
                                           min_support=0.0)[:n_grouping_patterns]
        estimator = CATEEstimator(view.table, bundle.query.average, dag=bundle.dag,
                                  min_group_size=5)
        config = TreatmentMinerConfig(max_levels=3, significance_level=1.0)
        predicted, truth = [], []
        for grouping in groupings:
            fast = mine_top_treatment(estimator, grouping.pattern,
                                      bundle.treatment_attributes, "+", bundle.dag,
                                      config)
            exhaustive = _exhaustive_top_treatment(estimator, grouping.pattern,
                                                   bundle.treatment_attributes,
                                                   max_levels=3)
            if fast is None or exhaustive is None:
                continue
            predicted.append(fast.pattern)
            truth.append(exhaustive.pattern)
        metrics = treatment_accuracy(view.table, predicted, truth)
        rows.append({"n_treatment_attributes": int(n_treatment),
                     "n_grouping_patterns": len(groupings),
                     "n_compared": len(predicted), **metrics})
    return rows


def _exhaustive_top_treatment(estimator, grouping_pattern, treatment_attributes,
                              max_levels: int = 3):
    """Evaluate every lattice node (no pruning) and return the highest-CATE pattern."""
    from repro.mining.treatments import TreatmentCandidate

    lattice = PatternLattice(estimator.table, list(treatment_attributes))
    level = lattice.level_one()
    best = None
    depth = 0
    while level and depth < max_levels:
        valid = []
        for pattern in level:
            estimate = estimator.estimate(pattern, grouping_pattern)
            if not estimate.is_valid():
                continue
            valid.append(pattern)
            if estimate.value > 0 and (best is None or estimate.value > best.cate):
                best = TreatmentCandidate(pattern, estimate)
        level = lattice.next_level(valid)
        depth += 1
    return best
