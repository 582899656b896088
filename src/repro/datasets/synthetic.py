"""The synthetic dataset of Section 6.1 with known ground truth.

Schema: ``G, G_1..G_i, T_1..T_j, O`` where

* ``G`` is the grouping attribute, one distinct value per tuple;
* ``G_1..G_i`` bucket the values of ``G`` into varying numbers of buckets and
  are therefore functionally determined by ``G`` (grouping-pattern attributes);
* ``T_1..T_j`` take independent uniform values in {1..5} (treatment attributes);
* ``O = T_1 - T_2 + T_3 - ... ± T_j`` plus optional Gaussian noise.

The treatment with the highest positive causal effect for every group sets odd
``T`` attributes high and even ``T`` attributes low, which is the ground truth
against which the mining accuracy (Figure 10) is evaluated.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import Column, Table
from repro.datasets.registry import DatasetBundle, register
from repro.graph import CausalDAG
from repro.sql import GroupByAvgQuery


def make_synthetic(n: int = 1000, n_grouping: int = 3, n_treatment: int = 4,
                   noise: float = 0.0, seed: int = 0) -> DatasetBundle:
    """Generate the synthetic dataset (``n`` tuples, ``i`` grouping and ``j`` treatment attributes)."""
    if n < 2:
        raise ValueError("need at least two tuples")
    if n_grouping < 1 or n_treatment < 1:
        raise ValueError("need at least one grouping and one treatment attribute")
    rng = np.random.default_rng(seed)

    group_ids = np.arange(1, n + 1)
    columns = [Column("G", group_ids, numeric=False)]

    grouping_names = []
    for g in range(1, n_grouping + 1):
        buckets = g + 1  # G_1 has 2 buckets, G_2 has 3, ...
        name = f"G{g}"
        grouping_names.append(name)
        values = [f"bucket{int(v)}" for v in (group_ids * buckets - 1) // n]
        columns.append(Column(name, values, numeric=False))

    treatment_names = []
    treatment_values = []
    for t in range(1, n_treatment + 1):
        name = f"T{t}"
        treatment_names.append(name)
        values = rng.integers(1, 6, size=n)
        treatment_values.append(values)
        columns.append(Column(name, values, numeric=False))

    signs = np.array([(-1.0) ** t for t in range(n_treatment)])  # O = T1 - T2 + T3 - ...
    outcome = np.zeros(n)
    true_effects = {}
    for idx, values in enumerate(treatment_values):
        outcome += signs[idx] * values
        true_effects[treatment_names[idx]] = float(signs[idx])
    if noise > 0:
        outcome = outcome + rng.normal(0.0, noise, size=n)
    columns.append(Column("O", outcome, numeric=True))

    table = Table(columns, name="synthetic")

    dag = CausalDAG([*grouping_names, *treatment_names, "O", "G"])
    for name in treatment_names:
        dag.add_edge(name, "O")

    query = GroupByAvgQuery(group_by="G", average="O", table_name="synthetic")
    return DatasetBundle(
        name="synthetic",
        table=table,
        dag=dag,
        query=query,
        grouping_attributes=grouping_names,
        treatment_attributes=treatment_names,
        ground_truth={
            "signs": {name: float(signs[idx]) for idx, name in enumerate(treatment_names)},
            "best_positive_assignment": {
                name: 5 if signs[idx] > 0 else 1
                for idx, name in enumerate(treatment_names)
            },
            "best_negative_assignment": {
                name: 1 if signs[idx] > 0 else 5
                for idx, name in enumerate(treatment_names)
            },
        },
    )


@register("synthetic")
def _load(**kwargs) -> DatasetBundle:
    return make_synthetic(**kwargs)
