"""Rank-agreement metrics (Kendall's tau) used in Figures 15/22 and 16/23."""

from __future__ import annotations

from typing import Hashable, Sequence


def kendall_tau(reference_scores: dict, other_scores: dict) -> float:
    """Kendall's tau between two scorings of the same items.

    Items present in only one of the dictionaries are ignored.  Returns 1.0 for
    fewer than two shared items (nothing to disagree about).
    """
    shared = sorted(set(reference_scores) & set(other_scores), key=repr)
    if len(shared) < 2:
        return 1.0
    a = [reference_scores[item] for item in shared]
    b = [other_scores[item] for item in shared]
    from scipy import stats  # deferred: scipy.stats costs ~20 MB to import

    tau, _ = stats.kendalltau(a, b)
    if tau != tau:  # nan when one list is constant
        return 0.0
    return float(tau)


def top_k_overlap(reference_ranking: Sequence[Hashable],
                  other_ranking: Sequence[Hashable], k: int) -> float:
    """Fraction of the reference's top-k items present in the other's top-k."""
    if k <= 0:
        raise ValueError("k must be positive")
    top_ref = set(list(reference_ranking)[:k])
    top_other = set(list(other_ranking)[:k])
    if not top_ref:
        return 1.0
    return len(top_ref & top_other) / len(top_ref)
