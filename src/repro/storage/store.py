"""The store root: many datasets, one engine registry, warm-restart state.

Layout::

    <root>/
        STORE.json                   # {"format_version": 1}
        datasets/<name>/             # one StoredDataset directory each
        engine/
            registry.json            # dataset registrations (DAG, config, …)
            summaries.pkl            # pickled summary-cache entries

``registry.json`` records everything :meth:`ExplanationEngine.register_dataset`
needs besides the table itself — the causal DAG, the CauSumX configuration,
and the grouping/treatment attribute partitions — so
``ExplanationEngine.from_store`` can rebuild a fully registered engine from
the directory alone.  ``summaries.pkl`` holds the engine's LRU summary cache
(pickled, so restored summaries are byte-identical Python objects); entries
are validated against each dataset's committed manifest version on restore,
so a cache snapshot can never resurrect summaries for stale data.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

from repro.core import CauSumXConfig
from repro.dataframe import Table
from repro.graph import CausalDAG
from repro.mining.treatments import TreatmentMinerConfig
from repro.storage.dataset import StoredDataset
from repro.storage.format import (
    FORMAT_VERSION,
    StorageError,
    atomic_write_bytes,
    atomic_write_json,
    read_json,
)

_STORE_MARKER = "STORE.json"
_DATASETS = "datasets"
_ENGINE = "engine"
_REGISTRY = "registry.json"
_SUMMARIES = "summaries.pkl"


class DatasetStore:
    """A directory holding stored datasets plus persisted engine state."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        marker = self.root / _STORE_MARKER
        if not marker.exists():
            raise StorageError(
                f"{self.root} is not a dataset store (missing {_STORE_MARKER}; "
                f"run `repro store init` first)")
        spec = read_json(marker)
        if spec.get("format_version") != FORMAT_VERSION:
            raise StorageError(
                f"store format_version {spec.get('format_version')!r} "
                f"unsupported (this build reads {FORMAT_VERSION})")
        self._datasets: dict[str, StoredDataset] = {}
        self._telemetry = None

    def telemetry_log(self):
        """The store's shared query-telemetry sink (``<root>/telemetry/``).

        One :class:`~repro.obs.TelemetryLog` per store object — every engine
        built from this store appends to the same rotating files.  Creating
        the log touches no disk until the first record is written, and
        records are only written while telemetry is enabled, so this is free
        for stores that never serve with observability on.
        """
        if self._telemetry is None:
            from repro.obs import TelemetryLog

            self._telemetry = TelemetryLog(self.root / "telemetry")
        return self._telemetry

    def telemetry_reader(self):
        """A version-filtered reader over the store's telemetry files.

        The reader drops records whose dataset is unknown to the store or
        whose recorded data version falls outside the dataset's committed
        window — leftovers of a deleted-and-recreated store at the same
        path would otherwise pollute every aggregate that joins telemetry
        against current statistics (``repro obs summary``).
        """
        from repro.obs.telemetry import TelemetryReader

        versions = {name: self.dataset(name).manifest.version
                    for name in self.dataset_names()}
        return TelemetryReader(self.root / "telemetry", versions=versions)

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    def init(cls, root: str | Path) -> "DatasetStore":
        """Create an empty store at ``root`` (idempotent on an existing store)."""
        root = Path(root)
        if (root / _STORE_MARKER).exists():
            return cls(root)
        (root / _DATASETS).mkdir(parents=True, exist_ok=True)
        (root / _ENGINE).mkdir(parents=True, exist_ok=True)
        atomic_write_json(root / _STORE_MARKER,
                          {"format_version": FORMAT_VERSION})
        return cls(root)

    # ------------------------------------------------------------------ datasets

    def dataset_names(self) -> list[str]:
        base = self.root / _DATASETS
        if not base.exists():
            return []
        return sorted(p.name for p in base.iterdir()
                      if (p / "MANIFEST.json").exists())

    def dataset(self, name: str) -> StoredDataset:
        """Open (and cache) the handle for one stored dataset."""
        handle = self._datasets.get(name)
        if handle is None:
            directory = self.root / _DATASETS / name
            if not (directory / "MANIFEST.json").exists():
                raise StorageError(
                    f"no dataset {name!r} in store {self.root} "
                    f"(have: {self.dataset_names()})")
            handle = StoredDataset(directory)
            self._datasets[name] = handle
        return handle

    def import_table(self, name: str, table: Table,
                     shard_rows: int | None = None) -> StoredDataset:
        """Write an in-memory table as a new stored dataset (version 0)."""
        handle = StoredDataset.create(self.root / _DATASETS / name, name,
                                      table, shard_rows=shard_rows)
        self._datasets[name] = handle
        return handle

    def import_bundle(self, bundle, config: CauSumXConfig | None = None,
                      name: str | None = None,
                      shard_rows: int | None = None) -> StoredDataset:
        """Import a :class:`~repro.datasets.DatasetBundle` plus its registration.

        Writes the table shards *and* a registry entry (DAG, config,
        grouping/treatment attributes), so ``repro serve --store`` can serve
        the dataset without re-deriving anything.
        """
        name = name or bundle.name
        handle = self.import_table(name, bundle.table, shard_rows=shard_rows)
        self.register_entry(
            name, dag=bundle.dag, config=config,
            grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        return handle

    def compact(self, name: str, shard_rows: int | None = None,
                cluster_by: str | None = None,
                min_rows: int | None = None) -> dict:
        """Compact one stored dataset (see :meth:`StoredDataset.compact`)."""
        return self.dataset(name).compact(shard_rows=shard_rows,
                                          cluster_by=cluster_by,
                                          min_rows=min_rows)

    # ------------------------------------------------------------------ registry

    def registry(self) -> dict:
        path = self.root / _ENGINE / _REGISTRY
        if not path.exists():
            return {}
        return read_json(path)

    def register_entry(self, name: str, dag: CausalDAG | None = None,
                       config: CauSumXConfig | None = None,
                       grouping_attributes=None,
                       treatment_attributes=None) -> None:
        """Record (or replace) one dataset's engine registration."""
        registry = self.registry()
        registry[name] = {
            "dag": dag.to_dict() if dag is not None else None,
            "config": config_to_dict(config) if config is not None else None,
            "grouping_attributes": list(grouping_attributes)
            if grouping_attributes is not None else None,
            "treatment_attributes": list(treatment_attributes)
            if treatment_attributes is not None else None,
        }
        (self.root / _ENGINE).mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.root / _ENGINE / _REGISTRY, registry)

    # ------------------------------------------------------------------ warm restarts

    def snapshot(self, engine) -> dict:
        """Persist the engine's restorable state into the store.

        Refreshes ``registry.json`` from the engine's live registrations and
        pickles the summary-cache entries of every store-backed dataset.
        Returns ``{"datasets": ..., "summaries": ...}`` counts.  Summaries
        are keyed ``(dataset, version, fingerprint)``; on restore only the
        entries matching each dataset's committed manifest version are
        accepted, so snapshots taken moments before a crash can never serve
        stale explanations.
        """
        names = set(self.dataset_names())
        registered = 0
        for name in engine.datasets():
            if name not in names:
                continue
            state = engine.dataset_state(name)
            self.register_entry(
                name, dag=state.dag, config=state.config,
                grouping_attributes=state.grouping_attributes,
                treatment_attributes=state.treatment_attributes)
            registered += 1
        entries = [(key, summary)
                   for key, summary in engine.summary_cache_items()
                   if key[0] in names]
        payload = pickle.dumps({"format_version": FORMAT_VERSION,
                                "entries": entries},
                               protocol=pickle.HIGHEST_PROTOCOL)
        (self.root / _ENGINE).mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(self.root / _ENGINE / _SUMMARIES, payload)
        return {"datasets": registered, "summaries": len(entries)}

    def load_summaries(self) -> list[tuple]:
        """The pickled summary-cache entries, or ``[]`` when there are none.

        The snapshot is only a cache: a missing, unreadable, truncated or
        wrong-shaped file means a cold start, never a failed one.
        """
        path = self.root / _ENGINE / _SUMMARIES
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except Exception:  # noqa: BLE001 — damaged bytes raise an open set of types
            return []
        if not isinstance(payload, dict) or \
                payload.get("format_version") != FORMAT_VERSION:
            return []
        entries = payload.get("entries")
        if not isinstance(entries, list) or not all(
                isinstance(entry, tuple) and len(entry) == 2
                and isinstance(entry[0], tuple) and len(entry[0]) == 3
                for entry in entries):
            return []
        return entries

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        return {name: self.dataset(name).stats()
                for name in self.dataset_names()}


# ---------------------------------------------------------------------- config codec


def config_to_dict(config: CauSumXConfig) -> dict:
    """JSON-compatible encoding of a :class:`CauSumXConfig` (nested miner too)."""
    return dataclasses.asdict(config)


def config_from_dict(spec: dict) -> CauSumXConfig:
    spec = dict(spec)
    treatment = spec.pop("treatment", None)
    if isinstance(treatment, dict):
        spec["treatment"] = TreatmentMinerConfig(**treatment)
    elif treatment is not None:
        spec["treatment"] = treatment
    return CauSumXConfig(**spec)
