"""Persisted per-store query telemetry: size-capped, rotating JSON lines.

One :class:`TelemetryLog` lives under ``<store>/telemetry/`` and receives
one record per served explain/batch query: fingerprint, the executed scan's
shard skip/scan counts and rows in and out, cache-level outcomes, admission
queue wait, and the request's span-tree timings.  Every record carries the
dataset name and data version, so the history can be filtered per dataset
version.

Durability model: appends go to ``queries-<seq>.jsonl`` (``<seq>`` is the
rotation sequence number) entirely **outside the manifest critical path** —
the log has its own lock and its own files, and a failed telemetry write
never fails the query it describes (the engine swallows ``OSError`` here and
counts it).  When the active file exceeds ``max_bytes`` it is closed and the
next sequence number opened; only the newest ``max_files`` files are kept.

Reading is crash-tolerant: a process killed mid-append leaves a torn final
line, and a leftover file from an older run may interleave with newer
sequences — :func:`read_records` skips unparseable lines (counting them)
and walks files in sequence order, so consumers (``repro obs``) always see
every intact record.
"""

from __future__ import annotations

import json
import re
import weakref
from pathlib import Path
from typing import Iterator

from repro.analysis.lockwatch import named_lock

#: Telemetry file name shape: queries-<rotation sequence>.jsonl
FILE_RE = re.compile(r"^queries-(\d{6})\.jsonl$")

DEFAULT_MAX_BYTES = 4 << 20
DEFAULT_MAX_FILES = 4

#: Env var overriding whether telemetry records are persisted ("0"/"1");
#: unset = follow the tracer (REPRO_TRACE).
ENV_VAR = "REPRO_TELEMETRY"


def telemetry_enabled() -> bool:
    """Whether query telemetry should be persisted.

    ``REPRO_TELEMETRY`` decides when set; otherwise telemetry follows the
    tracer's enabled state, so ``REPRO_TRACE=1`` turns on the full
    observability stack in one switch and the default (everything off)
    keeps the serving path byte-identical and allocation-free.
    """
    import os

    from repro.obs import trace

    raw = os.environ.get(ENV_VAR)
    if raw is not None and raw.strip() != "":
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return trace.enabled()


def _file_name(sequence: int) -> str:
    return f"queries-{sequence:06d}.jsonl"


class TelemetryLog:
    """Rotating JSON-lines sink for query-telemetry records (thread-safe)."""

    def __init__(self, directory: str | Path,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 max_files: int = DEFAULT_MAX_FILES):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if max_files < 1:
            raise ValueError("max_files must be at least 1")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._lock = named_lock("TelemetryLog._lock")
        self._handle = None  # guarded-by: _lock
        self._closer = None  # guarded-by: _lock
        self._sequence = 0  # guarded-by: _lock
        self._size = 0  # guarded-by: _lock
        self._written = 0  # guarded-by: _lock
        self._errors = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ writing

    def record(self, payload: dict) -> bool:
        """Append one record; ``True`` when it was durably written.

        Never raises on I/O failure — telemetry must not fail the query it
        describes.  Failed appends are counted under ``stats()["errors"]``.
        """
        line = json.dumps(payload, default=str) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            try:
                if self._handle is None:
                    self._open_locked()
                if self._size + len(data) > self.max_bytes and self._size > 0:
                    self._rotate_locked()
                self._handle.write(data)
                self._handle.flush()
                self._size += len(data)
                self._written += 1
                return True
            except OSError:
                self._errors += 1
                return False

    def _open_locked(self) -> None:  # guarded-by: _lock
        """Open (resuming) the highest-sequence file, rotating if it is full.

        Leftover files from a crashed process are resumed, not clobbered:
        appends continue after any torn final line, which readers skip.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        sequences = sorted(self._sequences())
        self._sequence = sequences[-1] if sequences else 0
        path = self.directory / _file_name(self._sequence)
        self._size = path.stat().st_size if path.exists() else 0
        if self._size >= self.max_bytes:
            self._sequence += 1
            self._size = 0
            path = self.directory / _file_name(self._sequence)
        self._append_to_locked(path)
        if self._size and not self._ends_with_newline(path):
            # Terminate a torn final line left by a crashed writer, so the
            # next record starts on its own line (readers skip the torn
            # one either way).
            self._handle.write(b"\n")
            self._handle.flush()
            self._size += 1
        self._prune_locked()

    @staticmethod
    def _ends_with_newline(path: Path) -> bool:
        with path.open("rb") as probe:
            probe.seek(-1, 2)
            return probe.read(1) == b"\n"

    def _rotate_locked(self) -> None:  # guarded-by: _lock
        self._sequence += 1
        self._size = 0
        self._append_to_locked(self.directory / _file_name(self._sequence))
        self._prune_locked()

    def _append_to_locked(self, path: Path) -> None:  # guarded-by: _lock
        """Switch appends to ``path``; the file is closed on the next switch
        or when this log is collected."""
        if self._handle is not None:
            self._handle.close()
            self._closer.detach()
        self._handle = path.open("ab")
        self._closer = weakref.finalize(self, self._handle.close)

    def _prune_locked(self) -> None:  # guarded-by: _lock
        sequences = sorted(self._sequences())
        for stale in sequences[:-self.max_files]:
            try:
                (self.directory / _file_name(stale)).unlink()
            except OSError:
                self._errors += 1

    def _sequences(self) -> list[int]:
        if not self.directory.exists():
            return []
        out = []
        for path in self.directory.iterdir():
            match = FILE_RE.match(path.name)
            if match:
                out.append(int(match.group(1)))
        return out

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # ------------------------------------------------------------------ reading

    def files(self) -> list[Path]:
        """Telemetry files in rotation order (oldest first)."""
        return [self.directory / _file_name(s)
                for s in sorted(self._sequences())]

    def read(self) -> tuple[list[dict], int]:
        """``(records, corrupt_line_count)`` across all retained files."""
        return read_records(self.directory)

    def stats(self) -> dict:
        with self._lock:
            written, errors = self._written, self._errors
        files = self.files()
        return {"files": len(files),
                "bytes": sum(p.stat().st_size for p in files if p.exists()),
                "written": written, "errors": errors}


def iter_records(directory: str | Path) -> Iterator[dict | None]:
    """Yield each parsed record, ``None`` per corrupt/torn line."""
    directory = Path(directory)
    if not directory.exists():
        return
    names = sorted((int(m.group(1)), p) for p in directory.iterdir()
                   if (m := FILE_RE.match(p.name)))
    for _, path in names:
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                yield None
                continue
            yield record if isinstance(record, dict) else None


def read_records(directory: str | Path) -> tuple[list[dict], int]:
    """All intact records in rotation order plus the corrupt-line count."""
    records: list[dict] = []
    corrupt = 0
    for record in iter_records(directory):
        if record is None:
            corrupt += 1
        else:
            records.append(record)
    return records, corrupt


class TelemetryReader:
    """Version-filtered reading of telemetry.

    The consumer-facing API over the raw JSONL files: ``repro obs`` goes
    through it instead of parsing lines itself.  When ``versions`` maps
    dataset names to their current committed manifest versions, records for
    unknown datasets or with a data version outside
    ``[min_versions.get(name, 0), versions[name]]``
    are **skipped as stale**: telemetry files outlive store rebuilds (the
    log is outside the manifest protocol by design), so a re-imported store
    can see leftover records whose versions never existed in its history.
    Without ``versions`` every intact record passes (bare-directory use).
    """

    def __init__(self, directory: str | Path,
                 versions: dict[str, int] | None = None,
                 min_versions: dict[str, int] | None = None):
        self.directory = Path(directory)
        self.versions = versions
        self.min_versions = min_versions or {}

    def _fresh(self, record: dict) -> bool:
        if self.versions is None:
            return True
        dataset = record.get("dataset")
        version = record.get("version")
        if dataset not in self.versions or not isinstance(version, int):
            return False
        return self.min_versions.get(dataset, 0) <= version <= \
            self.versions[dataset]

    def read(self) -> tuple[list[dict], int, int]:
        """``(fresh records, corrupt lines, stale records skipped)``."""
        records: list[dict] = []
        corrupt = stale = 0
        for record in iter_records(self.directory):
            if record is None:
                corrupt += 1
            elif self._fresh(record):
                records.append(record)
            else:
                stale += 1
        return records, corrupt, stale
