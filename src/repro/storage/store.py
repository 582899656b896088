"""The store root: many datasets, one engine registry, warm-restart state.

Layout::

    <root>/
        STORE.json                   # {"format_version": 1}
        datasets/<name>/             # one StoredDataset directory each
        engine/
            registry.json            # dataset registrations (DAG, config, …)
            summaries.jsonl          # indexed summary-cache snapshot

``registry.json`` records everything :meth:`ExplanationEngine.register_dataset`
needs besides the table itself — the causal DAG, the CauSumX configuration,
and the grouping/treatment attribute partitions — so
``ExplanationEngine.from_store`` can rebuild a fully registered engine from
the directory alone.  It is rewritten only when its bytes change.

``summaries.jsonl`` holds the engine's LRU summary cache.  Line 1 is the
index, ``{"format_version": 1, "index": [[dataset, version, fingerprint,
offset, length], ...]}``; each further line is one entry's body in the exact
summary codec (:func:`repro.core.encode_summary`), at ``offset`` bytes past
the index line.  Opening reads the index only; a body is decoded and
schema-checked on its entry's first hit, and a snapshot copies the bytes of
every entry it restored without decoding them.  Entries are validated
against each dataset's committed manifest version on restore, so a snapshot
can never resurrect summaries for stale data.  Nothing in the file is
executable: a damaged index means a cold start, a damaged body one miss.
The ``summaries.pkl`` earlier builds wrote is never read, and the next
snapshot deletes it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.core import CauSumXConfig, EncodedSummary, SummaryCodecError
from repro.dataframe import Table
from repro.graph import CausalDAG
from repro.mining.treatments import TreatmentMinerConfig
from repro.storage.dataset import StoredDataset
from repro.storage.format import (
    FORMAT_VERSION,
    StorageError,
    atomic_write_bytes,
    atomic_write_json,
    json_line,
    read_json,
)

_STORE_MARKER = "STORE.json"
_DATASETS = "datasets"
_ENGINE = "engine"
_REGISTRY = "registry.json"
_SUMMARIES = "summaries.jsonl"
_LEGACY_SUMMARIES = "summaries.pkl"


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
        against the current store (``repro obs summary``).
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
        registry[name] = _registration(dag, config, grouping_attributes,
                                       treatment_attributes)
        self._write_registry(registry)

    def _write_registry(self, registry: dict) -> None:
        """Commit ``registry.json`` unless the file already holds these bytes."""
        path = self.root / _ENGINE / _REGISTRY
        payload = json_line(registry)
        try:
            if path.read_bytes() == payload:
                return
        except OSError:
            pass
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, payload)

    # ------------------------------------------------------------------ warm restarts

    def snapshot(self, engine) -> dict:
        """Persist the engine's restorable state into the store.

        Refreshes ``registry.json`` from the engine's live registrations and
        writes the summary-cache entries of every store-backed dataset to
        ``summaries.jsonl``: entries restored from the previous snapshot
        contribute their stored bytes, only entries computed since are
        encoded.  Returns ``{"datasets": ..., "summaries": ...}`` counts.
        Summaries are keyed ``(dataset, version, fingerprint)``; on restore
        only the entries matching each dataset's committed manifest version
        are accepted, so snapshots taken moments before a crash can never
        serve stale explanations.
        """
        names = set(self.dataset_names())
        registry = self.registry()
        registered = 0
        for name in engine.datasets():
            if name not in names:
                continue
            state = engine.dataset_state(name)
            registry[name] = _registration(
                state.dag, state.config, state.grouping_attributes,
                state.treatment_attributes)
            registered += 1
        self._write_registry(registry)
        index, bodies, offset = [], [], 0
        for key, entry in engine.summary_cache_items():
            if key[0] not in names:
                continue
            try:
                blob = entry.blob()
            except SummaryCodecError:  # only a cache: leave the entry out
                continue
            index.append([*key, offset, len(blob)])
            bodies.append(blob)
            offset += len(blob) + 1
        head = json_line({"format_version": FORMAT_VERSION, "index": index})
        directory = self.root / _ENGINE
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(directory / _SUMMARIES,
                           head + b"\n".join([*bodies, b""]))
        (directory / _LEGACY_SUMMARIES).unlink(missing_ok=True)
        return {"datasets": registered, "summaries": len(index)}

    def load_summaries(self) -> list[tuple]:
        """``(key, EncodedSummary)`` per snapshot entry, or ``[]``.

        Parses the index line only; each body stays undecoded bytes until
        its entry's first hit.  The snapshot is only a cache: a missing,
        unreadable, truncated or wrong-shaped index means a cold start,
        never a failed one.
        """
        try:
            payload = (self.root / _ENGINE / _SUMMARIES).read_bytes()
            end = payload.index(b"\n")
            spec = json.loads(payload[:end])
        except (OSError, ValueError):
            return []
        if not isinstance(spec, dict) \
                or spec.get("format_version") != FORMAT_VERSION \
                or not isinstance(spec.get("index"), list):
            return []
        base = end + 1
        entries = []
        for item in spec["index"]:
            if not _index_item_ok(item, len(payload) - base):
                return []
            name, version, fingerprint, offset, length = item
            # A copy per entry: each owns exactly the bytes the summary
            # cache's byte cap weighs it by, and evicting it frees them.
            start = base + offset
            entries.append(((name, version, fingerprint), EncodedSummary(
                blob=payload[start:start + length])))
        return entries

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        return {name: self.dataset(name).stats()
                for name in self.dataset_names()}


# ---------------------------------------------------------------------- config codec


def _registration(dag, config, grouping_attributes,
                  treatment_attributes) -> dict:
    """One dataset's ``registry.json`` entry."""
    return {
        "dag": dag.to_dict() if dag is not None else None,
        "config": config_to_dict(config) if config is not None else None,
        "grouping_attributes": list(grouping_attributes)
        if grouping_attributes is not None else None,
        "treatment_attributes": list(treatment_attributes)
        if treatment_attributes is not None else None,
    }


def _index_item_ok(item, size: int) -> bool:
    """``[dataset, version, fingerprint, offset, length]`` inside ``size``."""
    if not isinstance(item, list) or \
            [type(field) for field in item] != [str, int, str, int, int]:
        return False
    offset, length = item[3], item[4]
    return 0 <= offset and 0 <= length and offset + length <= size


def config_to_dict(config: CauSumXConfig) -> dict:
    """JSON-compatible encoding of a :class:`CauSumXConfig` (nested miner too)."""
    return dataclasses.asdict(config)


def config_from_dict(spec: dict) -> CauSumXConfig:
    # Registries written by older versions may carry fields CauSumXConfig
    # has since retired (the mining thread count, the coverage weighting);
    # drop them on read, so the next registry write omits them.
    known = {f.name for f in dataclasses.fields(CauSumXConfig)}
    spec = {key: value for key, value in spec.items() if key in known}
    treatment = spec.pop("treatment", None)
    if isinstance(treatment, dict):
        spec["treatment"] = TreatmentMinerConfig(**treatment)
    elif treatment is not None:
        spec["treatment"] = treatment
    return CauSumXConfig(**spec)
