"""On-disk format primitives: manifest model, atomic commits, fingerprints.

A stored dataset is a directory::

    <dataset dir>/
        MANIFEST.json            # committed atomically via os.replace
        shards/
            shard-000000.npz     # uncompressed npz: one array per column
            shard-000001.npz
            ...

The manifest is the single source of truth: it names the schema (column name
+ kind), the *store vocabularies* (append-only, first-seen-ordered value
lists shared by every shard of a categorical column), the ordered shard list
with per-shard row counts, content fingerprints and zone maps, and a
monotonic ``version`` that advances by exactly one per committed append.
It is one line of compact, key-sorted JSON (``python -m json.tool
MANIFEST.json`` to read it); any JSON layout of the same document opens.

Commits are crash-safe by construction: new shard files are written to
``*.tmp-*`` names and ``os.replace``d into place *before* the manifest that
references them is itself atomically replaced.  A reader therefore either
sees the old manifest (ignoring any newer shard files and leftover temp
files) or the new manifest with all its shards present — never a torn state.
Stray ``*.tmp-*`` files from a crashed writer are ignored and cleaned up by
the next successful commit.

The same holds across an OS crash because every step reaches the disk before
the next one starts: shard bytes are fsynced before the shard's rename, the
``shards/`` directory (the renames) before the manifest is written, the
manifest's bytes before its rename, and the dataset directory after it.  A
durable manifest therefore never names a shard that is not durable too.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.storage.zonemap import zone_map_error

FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
SHARD_DIR = "shards"
TMP_MARKER = ".tmp-"

#: Kind tags used in the manifest schema.
NUMERIC = "numeric"
CATEGORICAL = "categorical"


class StorageError(RuntimeError):
    """Raised for malformed stores, manifests, or shard files."""


# ---------------------------------------------------------------------- atomic io


def fsync_directory(directory: Path) -> None:
    """Flush a directory's entries — the renames into it — to disk."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target directory so the replace never crosses
    filesystems; it is fsynced before the rename so a crash cannot leave a
    committed-but-empty file, and the directory after it so the rename itself
    is durable when this returns.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}{TMP_MARKER}{uuid.uuid4().hex}")
    with tmp.open("wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)


def _compact_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def json_line(payload) -> bytes:
    """``payload`` as one line of compact, key-sorted JSON.

    No ``indent``: that would route a 40-shard manifest through the
    pure-Python encoder (12 ms against 2 ms) on every append.
    """
    return (_compact_json(payload) + "\n").encode()


def atomic_write_json(path: Path, payload: dict) -> None:
    """Commit ``payload`` as one line of compact, key-sorted JSON."""
    atomic_write_bytes(Path(path), json_line(payload))


def read_json(path: Path) -> dict:
    with Path(path).open("rb") as handle:
        return json.loads(handle.read().decode())


def is_temp_file(name: str) -> bool:
    """Leftovers of interrupted commits — never part of the committed state."""
    return TMP_MARKER in name


def sweep_temp_files(directory: Path) -> int:
    """Best-effort removal of leftover temp files under ``directory``."""
    removed = 0
    for entry in Path(directory).glob(f"**/*{TMP_MARKER}*"):
        try:
            entry.unlink()
            removed += 1
        except OSError:  # pragma: no cover - concurrent cleanup
            pass
    return removed


def fingerprint_file(path: Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------- manifest model


@dataclass
class ShardInfo:
    """One committed shard: file, row count, fingerprint, zone maps."""

    shard_id: str
    file: str
    n_rows: int
    fingerprint: str
    #: ``{attribute: zone-map dict}`` — see :mod:`repro.storage.zonemap`.
    zone_maps: dict = field(default_factory=dict)
    #: ``to_dict()`` as compact JSON, encoded at the first commit that needs
    #: it (a benign race: concurrent encodes store identical text).
    _json: str | None = field(default=None, init=False, repr=False,
                              compare=False)

    def to_json(self) -> str:
        if self._json is None:
            self._json = _compact_json(self.to_dict())
        return self._json

    def to_dict(self) -> dict:
        return {"id": self.shard_id, "file": self.file, "n_rows": self.n_rows,
                "fingerprint": self.fingerprint, "zone_maps": self.zone_maps}

    @classmethod
    def from_dict(cls, spec: dict, kinds: dict[str, str]) -> "ShardInfo":
        """Parse one shard entry; ``kinds`` maps each schema column to its kind.

        Keys this version no longer writes (older manifests' per-shard
        group-by partials and column statistics) are ignored and dropped at
        the next commit.  A zone map that is not one of its column's kind
        raises :class:`StorageError`: scans trust zone maps to skip shards.
        """
        zone_maps = spec.get("zone_maps", {})
        if not isinstance(zone_maps, dict):
            raise StorageError(f"shard {spec['id']!r}: zone_maps is not an "
                               f"object")
        for attribute, zone_map in zone_maps.items():
            if attribute not in kinds:
                raise StorageError(f"shard {spec['id']!r}: zone map of "
                                   f"{attribute!r}, which is not a stored "
                                   f"column")
            error = zone_map_error(zone_map, kinds[attribute])
            if error is not None:
                raise StorageError(f"shard {spec['id']!r}: zone map of "
                                   f"{attribute!r} {error}")
        return cls(shard_id=spec["id"], file=spec["file"],
                   n_rows=int(spec["n_rows"]), fingerprint=spec["fingerprint"],
                   zone_maps=dict(zone_maps))


@dataclass
class Manifest:
    """The committed state of one stored dataset."""

    name: str
    schema: list[dict]                 # [{"name": ..., "kind": ...}] in order
    vocabs: dict[str, list]            # store vocab per categorical column
    shards: list[ShardInfo] = field(default_factory=list)
    version: int = 0
    format_version: int = FORMAT_VERSION

    @property
    def n_rows(self) -> int:
        return sum(s.n_rows for s in self.shards)

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(entry["name"] for entry in self.schema)

    def kind(self, attribute: str) -> str:
        for entry in self.schema:
            if entry["name"] == attribute:
                return entry["kind"]
        raise KeyError(f"unknown attribute {attribute!r}")

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "name": self.name,
            "version": self.version,
            "n_rows": self.n_rows,
            "schema": self.schema,
            "vocabs": self.vocabs,
            "shards": [s.to_dict() for s in self.shards],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "Manifest":
        if spec.get("format_version") != FORMAT_VERSION:
            raise StorageError(
                f"unsupported format_version {spec.get('format_version')!r} "
                f"(this build reads {FORMAT_VERSION})")
        schema = list(spec["schema"])
        kinds = {entry["name"]: entry["kind"] for entry in schema}
        return cls(
            name=spec["name"],
            schema=schema,
            vocabs={k: list(v) for k, v in spec.get("vocabs", {}).items()},
            shards=[ShardInfo.from_dict(s, kinds)
                    for s in spec.get("shards", [])],
            version=int(spec["version"]),
            format_version=int(spec["format_version"]),
        )

    def to_json_line(self) -> bytes:
        """``json_line(self.to_dict())``, splicing each shard's cached entry.

        Each top-level field is encoded on its own, in sorted key order, and
        joined with the shards' cached entries: an append re-encodes those
        fields, not every shard.
        """
        document = self.to_dict()
        shards = ",".join(shard.to_json() for shard in self.shards)
        parts = [f'"shards":[{shards}]' if key == "shards"
                 else _compact_json({key: document[key]})[1:-1]
                 for key in sorted(document)]
        return ("{" + ",".join(parts) + "}\n").encode()


def read_manifest_bytes(dataset_dir: Path) -> bytes:
    """The committed manifest's raw bytes (see :func:`parse_manifest`)."""
    path = Path(dataset_dir) / MANIFEST_NAME
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise StorageError(f"no {MANIFEST_NAME} in {dataset_dir}") from None


def parse_manifest(raw: bytes, dataset_dir: Path) -> Manifest:
    try:
        return Manifest.from_dict(json.loads(raw.decode()))
    except (KeyError, ValueError, TypeError) as exc:
        raise StorageError(f"malformed manifest "
                           f"{Path(dataset_dir) / MANIFEST_NAME}: {exc}") from exc


def commit_manifest(dataset_dir: Path, manifest: Manifest) -> bytes:
    """Atomically replace the dataset's manifest (the commit point).

    The shards it names were renamed into ``shards/`` by the caller; those
    renames are flushed first, so the manifest cannot outlive them.
    Returns the committed bytes.
    """
    dataset_dir = Path(dataset_dir)
    fsync_directory(dataset_dir / SHARD_DIR)
    payload = manifest.to_json_line()
    atomic_write_bytes(dataset_dir / MANIFEST_NAME, payload)
    return payload
