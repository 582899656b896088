"""Common dataset bundle type, name-based registry and shared conditional draw."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dataframe import Table
from repro.graph import CausalDAG
from repro.sql import GroupByAvgQuery


@dataclass
class DatasetBundle:
    """A generated dataset together with its causal DAG and default query.

    Attributes
    ----------
    name:
        Dataset identifier.
    table:
        The generated database instance.
    dag:
        The ground-truth causal DAG used by the generator (and handed to
        CauSumX as background knowledge).
    query:
        The representative group-by-average query analysed in the paper.
    grouping_attributes / treatment_attributes:
        The attribute partition used in the paper's case study (overrides the
        automatic FD-based partition when provided).
    ground_truth:
        Optional generator-specific ground-truth information (e.g. the true
        treatment effects of the synthetic dataset).
    """

    name: str
    table: Table
    dag: CausalDAG
    query: GroupByAvgQuery
    grouping_attributes: list[str] | None = None
    treatment_attributes: list[str] | None = None
    ground_truth: dict = field(default_factory=dict)

    def describe(self) -> dict:
        """Table 3 style statistics for this dataset.

        The "max values per attribute" statistic is computed over the
        non-outcome attributes (the outcome is continuous and would dominate).
        """
        attrs = [a for a in self.table.attributes if a != self.query.average]
        stats = {
            "name": self.name,
            "tuples": self.table.n_rows,
            "attributes": self.table.n_cols,
            "max_values_per_attribute": max(
                len(self.table.domain(a)) for a in attrs),
        }
        return stats

    def to_store(self, store, config=None, name: str | None = None,
                 shard_rows: int | None = None):
        """Export the bundle into a :class:`~repro.storage.DatasetStore`.

        Writes the table as sharded columnar files *and* records the
        registration (DAG, config, grouping/treatment attributes) in the
        store's registry, so ``repro serve --store`` can serve the dataset
        directly.  Returns the :class:`~repro.storage.StoredDataset` handle.
        """
        return store.import_bundle(self, config=config, name=name,
                                   shard_rows=shard_rows)


_REGISTRY: dict[str, Callable[..., DatasetBundle]] = {}
_P_SUM_ATOL = np.sqrt(np.finfo(np.float64).eps)


def choice_by(uniforms: np.ndarray, keys: tuple, probabilities: Callable,
              values) -> np.ndarray:
    """Row ``i`` draws from ``values`` with ``p = probabilities(*key_i)``, where
    ``key_i`` is row ``i`` of the ``keys`` arrays (one call per distinct key).

    ``p`` is checked and made a cdf as ``Generator.choice(values, p=p)`` does,
    and row ``i`` takes the cdf's ``searchsorted`` of ``uniforms[i]``: the
    values a per-row ``choice`` loop draws from these uniforms, bit for bit.
    """
    code = np.zeros(len(uniforms), dtype=np.intp)
    for column in keys:
        levels, inverse = np.unique(column, return_inverse=True)
        code = code * len(levels) + inverse
    picks = np.empty(len(uniforms), dtype=np.intp)
    for group, first in zip(*np.unique(code, return_index=True)):
        p = np.asarray(probabilities(*(column[first] for column in keys)),
                       dtype=np.float64)
        if p.shape != (len(values),) or (p < 0).any() \
                or not abs(p.sum() - 1.0) <= _P_SUM_ATOL:
            raise ValueError(f"p must be {len(values)} non-negatives summing to 1: {p}")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        rows = code == group
        picks[rows] = cdf.searchsorted(uniforms[rows], side="right")
    return np.asarray(values)[picks]


def register(name: str):
    """Decorator registering a generator under a dataset name."""

    def wrapper(fn: Callable[..., DatasetBundle]):
        _REGISTRY[name] = fn
        return fn

    return wrapper


def list_datasets() -> list[str]:
    """Names of all registered dataset generators."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def load_dataset(name: str, **kwargs) -> DatasetBundle:
    """Generate a dataset by name (``stackoverflow``, ``adult``, ``german``,
    ``accidents``, ``cps``, or ``synthetic``)."""
    _ensure_loaded()
    if name not in _REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; available: {list_datasets()}")
    n = kwargs.get("n")
    if n is not None and n < 0:
        raise ValueError(f"dataset {name!r}: n must be >= 0, got {n}")
    return _REGISTRY[name](**kwargs)


def _ensure_loaded() -> None:
    """Import generator modules so their ``register`` decorators run."""
    from repro.datasets import (  # noqa: F401  (import for side effect)
        accidents, adult, cps, german, stackoverflow, synthetic,
    )
