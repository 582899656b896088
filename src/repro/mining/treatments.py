"""Algorithm 2: greedy lattice search for the top treatment pattern per grouping pattern."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.causal import CATEEstimator, EffectEstimate
from repro.dataframe import Pattern
from repro.graph import CausalDAG
from repro.mining.lattice import AtomSet, AtomSpace, PatternLattice


@dataclass(frozen=True)
class TreatmentCandidate:
    """A treatment pattern together with its estimated CATE for a grouping pattern."""

    pattern: Pattern
    estimate: EffectEstimate

    @property
    def cate(self) -> float:
        return self.estimate.value

    def __repr__(self) -> str:
        return f"TreatmentCandidate({self.pattern!r}, CATE={self.cate:.4g})"


@dataclass
class TreatmentMinerConfig:
    """Knobs of Algorithm 2 and its optimisations (Section 5.2).

    Attributes
    ----------
    max_levels:
        Hard cap on lattice depth (the algorithm usually stops earlier via the
        "maximum not improved" rule).
    keep_fraction:
        Optimisation (b): fraction of the highest-|CATE| survivors carried to the
        next level (the paper keeps the top 50%).
    near_zero:
        Optimisation (b): patterns with |CATE| below this value are discarded.
    significance_level:
        Only treatments whose CATE is statistically significant at this level
        are eligible to be returned (the case studies report p < 1e-3).
    prune_attributes:
        Optimisation (a): drop treatment attributes with no causal path to the
        outcome in the DAG.
    max_values_per_attribute / numeric_bins:
        Passed to the lattice's atomic-predicate generation.
    min_group_size:
        Minimum treated/control group size for a CATE to be considered valid.
    """

    max_levels: int = 4
    keep_fraction: float = 0.5
    near_zero: float = 0.0
    significance_level: float = 0.05
    prune_attributes: bool = True
    max_values_per_attribute: int = 20
    numeric_bins: int = 3
    min_group_size: int = 10


def treatment_atoms(estimator: CATEEstimator, treatment_attributes: Sequence[str],
                    config: TreatmentMinerConfig,
                    dag: CausalDAG | None = None) -> AtomSpace | None:
    """The lattice atoms of a miner, ``None`` when no treatment attribute is left.

    With a ``dag`` and ``config.prune_attributes``, optimisation (a) first
    drops the attributes with no causal path to the outcome (unless that
    would drop them all).
    """
    attributes = list(treatment_attributes)
    if config.prune_attributes and dag is not None:
        relevant = dag.causally_relevant(estimator.outcome)
        pruned = [a for a in attributes if a in relevant]
        if pruned:
            attributes = pruned
    if not attributes:
        return None
    return PatternLattice(
        estimator.table, attributes,
        max_values_per_attribute=config.max_values_per_attribute,
        numeric_bins=config.numeric_bins,
        mask_cache=estimator.mask_cache,
        min_support=estimator.min_group_size,
        atom_cache=estimator.atom_cache,
    ).atoms()


def mine_top_treatment(estimator: CATEEstimator, grouping_pattern: Pattern,
                       treatment_attributes: Sequence[str], direction: str = "+",
                       dag: CausalDAG | None = None,
                       config: TreatmentMinerConfig | None = None,
                       ) -> TreatmentCandidate | None:
    """Find the treatment pattern with the highest (or lowest) CATE for a grouping pattern.

    This is Algorithm 2.  ``direction`` is ``sigma``: ``"+"`` searches for the
    most positive CATE, ``"-"`` for the most negative.  Returns ``None`` when no
    valid, statistically significant treatment with the requested sign exists.
    """
    if direction not in {"+", "-"}:
        raise ValueError("direction must be '+' or '-'")
    config = config or TreatmentMinerConfig()
    dag = dag if dag is not None else estimator.dag
    atoms = treatment_atoms(estimator, treatment_attributes, config, dag)
    if atoms is None:
        return None
    sign = 1.0 if direction == "+" else -1.0

    def evaluate(level: list[AtomSet]) -> list[tuple[AtomSet, EffectEstimate]]:
        """ComputeCATEnFilter: estimate CATE and keep valid nodes with sign sigma.

        Whole lattice levels are estimated through one ``estimate_many`` batch
        call so the grouping pattern's sub-population is bound only once.
        """
        estimates = estimator.estimate_many(level, grouping_pattern)
        survivors = [(node, estimate) for node, estimate in zip(level, estimates)
                     if estimate.is_valid()
                     and sign * estimate.value > config.near_zero]
        survivors.sort(key=lambda survivor: sign * survivor[1].value, reverse=True)
        return survivors

    def truncate(survivors: list) -> list[AtomSet]:
        if survivors and config.keep_fraction < 1.0:
            survivors = survivors[:max(1, int(len(survivors) * config.keep_fraction))]
        return [node for node, _ in survivors]

    # Level 1.
    level = evaluate(atoms.first_level)
    if not level:
        return None
    best = level[0]
    survivors = truncate(level)

    depth = 1
    while depth < config.max_levels:
        next_level = atoms.join(survivors)
        if not next_level:
            break
        level = evaluate(next_level)
        if not level:
            break
        top = level[0]
        if sign * top[1].value > sign * best[1].value:
            best = top
        else:
            break  # the running maximum is not in this level: terminate
        survivors = truncate(level)
        depth += 1

    node, estimate = best
    if estimate.p_value > config.significance_level:
        return None
    return TreatmentCandidate(node.pattern(), estimate)


def mine_top_treatments(estimator: CATEEstimator, grouping_pattern: Pattern,
                        treatment_attributes: Sequence[str],
                        dag: CausalDAG | None = None,
                        config: TreatmentMinerConfig | None = None,
                        ) -> dict[str, TreatmentCandidate | None]:
    """Top positive and top negative treatment pattern for one grouping pattern."""
    return {
        "+": mine_top_treatment(estimator, grouping_pattern, treatment_attributes,
                                "+", dag, config),
        "-": mine_top_treatment(estimator, grouping_pattern, treatment_attributes,
                                "-", dag, config),
    }


def mine_top_k_treatments(estimator: CATEEstimator, grouping_pattern: Pattern,
                          treatment_attributes: Sequence[str], k: int,
                          direction: str = "+", dag: CausalDAG | None = None,
                          config: TreatmentMinerConfig | None = None,
                          ) -> list[TreatmentCandidate]:
    """The ``k`` treatment patterns with the highest (or lowest) CATE for a grouping pattern.

    Section 4.2 describes a UI that lets analysts request the top-k positive or
    negative treatments for a grouping pattern; this runs the same lattice
    traversal as Algorithm 2 but keeps every significant candidate it evaluates
    and returns the ``k`` best, sorted by signed CATE.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if direction not in {"+", "-"}:
        raise ValueError("direction must be '+' or '-'")
    config = config or TreatmentMinerConfig()
    dag = dag if dag is not None else estimator.dag
    atoms = treatment_atoms(estimator, treatment_attributes, config, dag)
    if atoms is None:
        return []
    sign = 1.0 if direction == "+" else -1.0
    collected: dict[AtomSet, EffectEstimate] = {}

    level = atoms.first_level
    depth = 0
    while level and depth < config.max_levels:
        survivors = []
        estimates = estimator.estimate_many(level, grouping_pattern)
        for node, estimate in zip(level, estimates):
            if not estimate.is_valid() or sign * estimate.value <= config.near_zero:
                continue
            survivors.append((node, estimate))
            if estimate.p_value <= config.significance_level:
                collected[node] = estimate
        survivors.sort(key=lambda survivor: sign * survivor[1].value, reverse=True)
        if config.keep_fraction < 1.0 and survivors:
            survivors = survivors[:max(1, int(len(survivors) * config.keep_fraction))]
        level = atoms.join([node for node, _ in survivors])
        depth += 1

    ranked = sorted(collected.items(), key=lambda item: sign * item[1].value,
                    reverse=True)
    return [TreatmentCandidate(node.pattern(), estimate)
            for node, estimate in ranked[:k]]
