"""Configuration of the CauSumX algorithm and its variants."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.mining.treatments import TreatmentMinerConfig


@dataclass
class CauSumXConfig:
    """All knobs of Algorithm 1.

    Attributes
    ----------
    k:
        Size constraint — the maximum number of explanation patterns (default 5,
        the paper's default).
    theta:
        Coverage constraint — the fraction of view groups that must be covered
        (default 0.75, the paper's default).
    apriori_threshold:
        Support threshold ``tau`` of the Apriori grouping-pattern miner
        (default 0.1, the paper's recommendation).
    max_grouping_length:
        Maximum number of predicates in a grouping pattern.
    grouping_mode:
        ``"apriori"`` (CauSumX) or ``"exhaustive"`` (Brute-Force variants).
    treatment_mode:
        ``"lattice"`` (Algorithm 2, CauSumX) or ``"exhaustive"`` (Brute-Force).
    solver:
        ``"lp_rounding"`` (CauSumX), ``"exact"`` (Brute-Force), or ``"greedy"``
        (Greedy-Last-Step).
    directions:
        Which treatment directions to mine: ``"+"``, ``"-"``, or ``"+-"`` (both,
        the system default — the weight is then |CATE+| + |CATE-|).
    sample_size:
        Optional tuple-count cap for CATE estimation (the paper samples 1M).
    include_singleton_groups:
        Add one grouping pattern per individual group when no FD-derived
        grouping attributes exist (German-style datasets).
    treatment:
        Configuration of the Algorithm 2 lattice search.
    use_mask_cache:
        Enable the shared pattern-evaluation engine
        (:class:`repro.dataframe.MaskCache`): predicate masks are memoized per
        table and every grouping pattern's sub-population is bound once and
        reused for all of its treatment candidates.  Explanation summaries are
        identical with the cache on or off — the cache only removes redundant
        recomputation (see ``benchmarks/bench_mask_cache.py``).  Default on.
    coverage_weighting:
        How the greedy selector scores marginal coverage: ``"uniform"``
        (default — every group counts 1, the paper's semantics) or
        ``"group_size"`` (groups weighted by their tuple count, taken from
        the view's ``GroupByIndex``, so a pattern covering a few huge groups
        can beat one covering many tiny ones).  Only the ``"greedy"`` solver
        consults the weights; the LP/exact feasibility constraints always
        count groups.
    seed:
        Seed for randomized rounding and sampling.
    """

    k: int = 5
    theta: float = 0.75
    apriori_threshold: float = 0.1
    max_grouping_length: int | None = 3
    grouping_mode: str = "apriori"
    treatment_mode: str = "lattice"
    solver: str = "lp_rounding"
    directions: str = "+-"
    sample_size: int | None = 1_000_000
    include_singleton_groups: bool = False
    adjustment: str = "parents"
    min_group_size: int = 10
    treatment: TreatmentMinerConfig = field(default_factory=TreatmentMinerConfig)
    use_mask_cache: bool = True
    coverage_weighting: str = "uniform"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.grouping_mode not in {"apriori", "exhaustive"}:
            raise ValueError(f"unknown grouping_mode {self.grouping_mode!r}")
        if self.treatment_mode not in {"lattice", "exhaustive"}:
            raise ValueError(f"unknown treatment_mode {self.treatment_mode!r}")
        if self.solver not in {"lp_rounding", "exact", "greedy"}:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.directions not in {"+", "-", "+-"}:
            raise ValueError(f"directions must be '+', '-', or '+-'")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.coverage_weighting not in {"uniform", "group_size"}:
            raise ValueError(
                f"unknown coverage_weighting {self.coverage_weighting!r}")

    def with_overrides(self, **kwargs) -> "CauSumXConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **kwargs)
