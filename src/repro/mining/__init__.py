"""Pattern mining: Apriori grouping patterns and greedy treatment-pattern lattice."""

from repro.mining.apriori import apriori, FrequentPattern
from repro.mining.grouping import GroupingPattern, mine_grouping_patterns
from repro.mining.treatments import (
    TreatmentCandidate,
    TreatmentMinerConfig,
    mine_top_k_treatments,
    mine_top_treatment,
)
from repro.mining.lattice import PatternLattice

__all__ = [
    "apriori",
    "FrequentPattern",
    "GroupingPattern",
    "mine_grouping_patterns",
    "TreatmentCandidate",
    "TreatmentMinerConfig",
    "mine_top_k_treatments",
    "mine_top_treatment",
    "PatternLattice",
]
