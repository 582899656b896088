"""One stored dataset: sharded columnar data + manifest + zone-map scans.

:class:`StoredDataset` owns a dataset directory (see
:mod:`repro.storage.format` for the layout) and provides the write path
(:meth:`create` / :meth:`append`) and the read path (:meth:`load_table`).

The read path returns a :class:`ShardedTable` — a drop-in
:class:`~repro.dataframe.Table` whose columns are
:class:`~repro.dataframe.LazyColumn` views over memory-mapped shard arrays:
nothing is decoded until a column's rows are actually touched, and
``select`` with a pattern condition runs the shard scan
(:meth:`ShardedTable.plan_shard_select`): per-shard zone maps skip the
shards that cannot contain matching rows, and one mask AND over the rest
selects the rows.  That is the one scan path over stored data; a group-by
over a loaded table builds its groups from the rows exactly as it would in
memory.

Vocabularies are *interned per dataset*: every shard's categorical codes
point into one shared append-only store vocabulary, so shards written years
apart agree on their encoding and appends never rewrite committed shards.
Loaded columns re-expose the deterministic sorted vocabulary the in-memory
:class:`~repro.dataframe.Column` uses, via a per-column O(vocab) code remap
applied lazily per shard — when the store vocabulary happens to be sorted
already (the common import case), codes pass through as the raw memory map.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.analysis.lockwatch import named_lock
from repro.dataframe import MISSING_CODE, Column, LazyColumn, Pattern, Predicate, Table
from repro.dataframe.column import sorted_code_remap
from repro.obs import trace
# map_morsels is a module attribute here because benchmarks/e2e/spans.py
# (_MAP_MORSELS_CONSUMERS) rebinds it.
from repro.parallel import map_morsels
from repro.plan.execute import scan_indices
from repro.plan.planner import GLOBAL_PLANNER_STATS, ScanPlan
from repro.storage.format import (
    CATEGORICAL,
    NUMERIC,
    SHARD_DIR,
    TMP_MARKER,
    Manifest,
    ShardInfo,
    StorageError,
    commit_manifest,
    fingerprint_file,
    is_temp_file,
    parse_manifest,
    read_manifest_bytes,
    sweep_temp_files,
)
from repro.storage.shard import open_shard, write_shard
from repro.storage.zonemap import (
    categorical_zone_map,
    numeric_zone_map,
    shard_may_match,
    store_code,
)

_JSON_SAFE = (str, int, float, bool)


@contextmanager
def _append_lock(directory: Path):
    """Advisory cross-process exclusive lock on a dataset directory.

    Uses ``flock`` on a dedicated ``.lock`` file so two writers (separate
    handles or separate ``repro serve --store`` processes) cannot interleave
    shard writes and manifest commits.  On platforms without ``fcntl`` the
    lock degrades to the caller's in-process lock.
    """
    handle = (directory / ".lock").open("a+b")
    try:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        yield
    finally:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_UN)
        handle.close()


class StoredDataset:
    """Handle on one dataset directory (manifest + shards)."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._lock = named_lock("StoredDataset._lock")
        # The bytes of the manifest this handle last parsed or committed.
        self._manifest_bytes = read_manifest_bytes(self.directory)  # guarded-by: _lock
        self.manifest = parse_manifest(self._manifest_bytes, self.directory)

    # ------------------------------------------------------------------ write path

    @classmethod
    def create(cls, directory: str | Path, name: str, table: Table,
               shard_rows: int | None = None) -> "StoredDataset":
        """Create a dataset directory from an in-memory table (version 0).

        ``shard_rows`` splits the initial import into fixed-size shards (one
        shard when omitted), giving zone-map pruning something to skip.
        """
        directory = Path(directory)
        if (directory / "MANIFEST.json").exists():
            raise StorageError(f"dataset already exists at {directory}")
        if shard_rows is not None and shard_rows < 1:
            raise StorageError(f"shard_rows must be positive, got {shard_rows}")
        (directory / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        schema = [{"name": c.name,
                   "kind": NUMERIC if c.numeric else CATEGORICAL}
                  for c in table.columns()]
        manifest = Manifest(name=name, schema=schema,
                            vocabs={c.name: [] for c in table.columns()
                                    if not c.numeric})
        dataset = cls.__new__(cls)
        dataset.directory = directory
        dataset._lock = named_lock("StoredDataset._lock")
        rows_per_shard = shard_rows or table.n_rows
        start = 0
        while start < table.n_rows:
            stop = min(start + rows_per_shard, table.n_rows)
            batch = table.take(np.arange(start, stop))
            manifest.shards.append(dataset._write_shard(manifest, batch))
            start = stop
        dataset._manifest_bytes = commit_manifest(directory, manifest)
        dataset.manifest = manifest
        sweep_temp_files(directory)
        return dataset

    def append(self, batch: Table, expected_version: int | None = None
               ) -> ShardInfo:
        """Durably append a batch as one new shard and commit the manifest.

        The shard file is fully written and renamed into place *before* the
        manifest referencing it is atomically replaced — each step flushed
        to disk before the next (see :mod:`repro.storage.format`) — so a
        crash at any point leaves the previous committed state readable.
        ``version`` advances by exactly one per successful append.

        Appends are serialised against *other handles and processes* via an
        advisory ``flock`` on the dataset directory (POSIX; best-effort
        elsewhere): the manifest is re-read under the lock (and re-parsed
        only when its bytes changed), so concurrent appenders chain cleanly
        instead of overwriting each other's shard files, and a stale
        ``expected_version`` fails fast.  A zero-row batch is refused: it
        would commit an empty shard and a new version for nothing.
        """
        if batch.n_rows == 0:
            raise StorageError("cannot append a zero-row batch")
        with self._lock, _append_lock(self.directory):
            manifest = self._committed_manifest()
            if expected_version is not None and \
                    manifest.version != expected_version:
                raise StorageError(
                    f"append expected version {expected_version}, "
                    f"store is at {manifest.version}")
            self._validate_batch(manifest, batch)
            # Stage the commit on a fresh Manifest object: live readers
            # snapshot ``self.manifest`` outside the writer lock, so the
            # object a reader holds must never mutate — the staged one is
            # published only after (and exactly as) it was committed, and a
            # vocabulary the batch extends is copied before it grows.
            committed = _staged(manifest)
            shard = self._write_shard(committed, batch)
            committed.shards.append(shard)
            self._manifest_bytes = commit_manifest(self.directory, committed)
            sweep_temp_files(self.directory)
            self.manifest = committed
            return shard

    def _validate_batch(self, manifest: Manifest, batch: Table) -> None:
        if batch.attributes != manifest.attributes:
            raise StorageError(
                f"batch schema {list(batch.attributes)} does not match "
                f"stored schema {list(manifest.attributes)}")
        for attribute in batch.attributes:
            column = batch.column(attribute)
            stored_numeric = manifest.kind(attribute) == NUMERIC
            if column.numeric != stored_numeric and \
                    column.n_missing() < len(column):
                raise StorageError(
                    f"batch column {attribute!r} is "
                    f"{'numeric' if column.numeric else 'categorical'}, "
                    f"store holds a "
                    f"{'numeric' if stored_numeric else 'categorical'} column")

    def _write_shard(self, manifest: Manifest, batch: Table,
                     shard_seq: int | None = None) -> ShardInfo:
        """Encode, write, fingerprint, and rename one shard (no commit)."""
        arrays: dict[str, np.ndarray] = {}
        zone_maps: dict[str, dict] = {}
        for attribute in manifest.attributes:
            column = batch.column(attribute)
            if manifest.kind(attribute) == NUMERIC:
                values = _as_float64(column)
                arrays[attribute] = values
                zone_maps[attribute] = numeric_zone_map(values)
            else:
                codes = _as_store_codes(column, manifest.vocabs, attribute)
                arrays[attribute] = codes
                zone_maps[attribute] = categorical_zone_map(codes)
        if shard_seq is None:
            shard_seq = _next_shard_seq(manifest)
        shard_id = f"shard-{shard_seq:06d}"
        relative = f"{SHARD_DIR}/{shard_id}.npz"
        final = self.directory / relative
        tmp = final.with_name(f"{final.name}{TMP_MARKER}{uuid.uuid4().hex}")
        write_shard(tmp, arrays)
        fingerprint = fingerprint_file(tmp)
        os.replace(tmp, final)
        return ShardInfo(shard_id=shard_id, file=relative, n_rows=batch.n_rows,
                         fingerprint=fingerprint, zone_maps=zone_maps)

    # ------------------------------------------------------------------ maintenance

    def compact(self, shard_rows: int | None = None,
                cluster_by: str | None = None,
                min_rows: int | None = None) -> dict:
        """Merge undersized shards and optionally re-cluster by a sort key.

        Two modes, both running under the dataset's cross-process append
        lock and committing through the usual atomic-manifest protocol (new
        shard files land under fresh monotonic names *before* the manifest
        referencing them replaces the old one; the replaced files are
        unlinked only after the commit):

        * **merge** (default): runs of adjacent shards smaller than
          ``min_rows`` (default: the largest current shard) are rewritten
          into shards of up to ``shard_rows`` rows (default: ``min_rows``),
          preserving row order.  Right-sized shards are left untouched —
          their bytes, fingerprints, and zone maps are not rewritten.
        * **re-cluster** (``cluster_by=<attribute>``): the *whole* dataset
          is stably sorted by the attribute (missing values last) and
          rewritten into shards of ``shard_rows`` rows (default: the
          largest current shard), which is what makes zone maps selective
          for predicates over that attribute.

        Every rewritten shard gets fresh zone maps and content
        fingerprints.  ``version`` advances by one.  Live readers are
        unaffected: a loaded table pins every shard's descriptor (the
        unlinked inodes stay readable), and an in-flight ``load_table``
        that loses the race retries on the fresh manifest.

        Invalid arguments raise :class:`StorageError` whether or not the
        dataset holds any shard.
        """
        if shard_rows is not None and shard_rows < 1:
            raise StorageError(
                f"shard_rows must be positive, got {shard_rows}")
        if min_rows is not None and min_rows < 1:
            raise StorageError(f"min_rows must be positive, got {min_rows}")
        with self._lock, _append_lock(self.directory):
            manifest = self._committed_manifest()
            # Shards are written against the staged copy, so the published
            # manifest never mutates (see ``append``).
            committed = _staged(manifest)
            before = len(manifest.shards)
            if cluster_by is not None and \
                    cluster_by not in manifest.attributes:
                raise StorageError(
                    f"cluster key {cluster_by!r} is not a stored attribute "
                    f"(schema: {list(manifest.attributes)})")
            if before == 0:
                return {"name": manifest.name, "version": manifest.version,
                        "shards_before": 0, "shards_after": 0,
                        "rewritten": 0, "cluster_by": cluster_by}
            largest = max(s.n_rows for s in manifest.shards)
            if min_rows is None:
                min_rows = shard_rows if shard_rows is not None else largest
            target = shard_rows if shard_rows is not None \
                else max(min_rows, largest)
            seq = _next_shard_seq(manifest)
            new_shards: list[ShardInfo] = []
            replaced: list[ShardInfo] = []

            def rewrite(batch: Table) -> None:
                nonlocal seq
                start = 0
                while start < batch.n_rows:
                    stop = min(start + target, batch.n_rows)
                    part = batch.take(np.arange(start, stop))
                    new_shards.append(self._write_shard(
                        committed, part, shard_seq=seq))
                    seq += 1
                    start = stop

            if cluster_by is not None:
                table = self.load_table()
                column = table.column(cluster_by)
                keys = column.values if column.numeric else column.codes
                if column.numeric:
                    # argsort puts NaN last already; keep the sort stable.
                    order = np.argsort(keys, kind="stable")
                else:
                    # Sentinel -1 (missing) sorts first; rotate it to the end.
                    order = np.argsort(keys, kind="stable")
                    n_missing = int((keys == MISSING_CODE).sum())
                    order = np.concatenate([order[n_missing:],
                                            order[:n_missing]])
                replaced = list(manifest.shards)
                rewrite(table.take(order))
            else:
                run: list[ShardInfo] = []

                def flush_run() -> None:
                    if len(run) >= 2:
                        replaced.extend(run)
                        rewrite(self._decode_shards(manifest, run))
                    else:
                        new_shards.extend(run)
                    run.clear()

                for shard in manifest.shards:
                    if shard.n_rows < min_rows:
                        run.append(shard)
                    else:
                        flush_run()
                        new_shards.append(shard)
                flush_run()

            if not replaced:  # nothing to rewrite: no version churn
                return {"name": manifest.name, "version": manifest.version,
                        "shards_before": before, "shards_after": before,
                        "rewritten": 0, "cluster_by": cluster_by}
            # The staged manifest's version is also what a live reader's
            # lost-race retry in ``load_table`` compares against.
            committed.shards = new_shards
            self._manifest_bytes = commit_manifest(self.directory, committed)
            sweep_temp_files(self.directory)
            self.manifest = committed
            kept = {s.file for s in new_shards}
            for shard in replaced:
                if shard.file in kept:  # pragma: no cover - defensive
                    continue
                try:
                    (self.directory / shard.file).unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            return {"name": committed.name, "version": committed.version,
                    "shards_before": before, "shards_after": len(new_shards),
                    "rewritten": len(replaced), "cluster_by": cluster_by}

    def _decode_shards(self, manifest: Manifest,
                       shards: list[ShardInfo]) -> Table:
        """Materialise a run of committed shards as one in-memory table.

        Goes through the same :class:`_ShardHandle` decode path the read
        side uses (one archive open per shard, the shared store→sorted code
        remap), so a compaction rewrite can never diverge from what a
        reader would have seen.
        """
        decoders: dict[str, np.ndarray | None] = {}
        sorted_vocabs: dict[str, tuple] = {}
        for attribute in manifest.attributes:
            if manifest.kind(attribute) == NUMERIC:
                continue
            sorted_vocabs[attribute], decoders[attribute] = _sorted_remap(
                manifest.vocabs[attribute])
        handles = [_ShardHandle(self.directory / shard.file, shard, decoders)
                   for shard in shards]
        columns = []
        for attribute in manifest.attributes:
            parts = [handle.decoded(attribute) for handle in handles]
            merged = np.concatenate(parts) if len(parts) > 1 else parts[0]
            if manifest.kind(attribute) == NUMERIC:
                columns.append(Column._from_numeric_data(
                    attribute, np.asarray(merged, dtype=np.float64)))
            else:
                columns.append(Column.from_codes(
                    attribute, np.asarray(merged, dtype=np.int32),
                    sorted_vocabs[attribute]))
        return Table(columns, name=manifest.name)

    # ------------------------------------------------------------------ read path

    def reload(self) -> Manifest:
        """Re-read the committed manifest (picks up appends by other handles)."""
        with self._lock:
            return self._committed_manifest()

    def _committed_manifest(self) -> Manifest:  # guarded-by: _lock
        """The committed manifest, published on ``self.manifest``.

        Parsed only when MANIFEST.json's bytes differ from the ones this
        handle last parsed or committed: a handle's own commits never cost
        it a parse, another writer's commit costs one.
        """
        raw = read_manifest_bytes(self.directory)
        if raw != self._manifest_bytes:
            self.manifest = parse_manifest(raw, self.directory)
            self._manifest_bytes = raw
        return self.manifest

    def load_table(self) -> "ShardedTable":
        """The dataset as a lazily-loaded, zone-map-pruned table.

        Every shard's descriptor is opened here, eagerly, and handed to its
        lazy handle: an open descriptor pins the inode, so a compaction
        that commits a new manifest and unlinks our files *after* this
        returns cannot break the table's lazy first-touch loads.  If the
        compaction wins the race *before* we open (a referenced file is
        already gone), the committed manifest has necessarily moved on —
        reload it and retry; a missing file on an unchanged version is real
        corruption and raises.
        """
        while True:
            manifest = self.manifest
            try:
                return self._load_table_at(manifest)
            except FileNotFoundError as exc:
                if self.reload().version == manifest.version:
                    raise StorageError(
                        f"manifest references missing shard in "
                        f"{self.directory}: {exc}") from exc

    def _load_table_at(self, manifest: Manifest) -> "ShardedTable":
        decoders: dict[str, np.ndarray | None] = {}
        sorted_vocabs: dict[str, tuple] = {}
        for attribute in manifest.attributes:
            if manifest.kind(attribute) != CATEGORICAL:
                continue
            store_vocab = manifest.vocabs[attribute]
            sorted_vocab, remap = _sorted_remap(store_vocab)
            sorted_vocabs[attribute] = sorted_vocab
            decoders[attribute] = remap
        handles = []
        for shard in manifest.shards:
            path = self.directory / shard.file
            if is_temp_file(path.name):  # never committed; defensive
                continue
            handles.append(_ShardHandle(path, shard, decoders,
                                        file=path.open("rb")))
        return ShardedTable(manifest, handles, sorted_vocabs)

    def verify(self) -> None:
        """Check every committed shard's content fingerprint (integrity scan)."""
        for shard in self.manifest.shards:
            actual = fingerprint_file(self.directory / shard.file)
            if actual != shard.fingerprint:
                raise StorageError(
                    f"shard {shard.shard_id} fingerprint mismatch: "
                    f"manifest {shard.fingerprint[:12]}…, file {actual[:12]}…")

    def nbytes(self) -> int:
        """Total committed shard bytes on disk."""
        return sum((self.directory / shard.file).stat().st_size
                   for shard in self.manifest.shards
                   if (self.directory / shard.file).exists())

    def stats(self) -> dict:
        return {"name": self.manifest.name, "version": self.manifest.version,
                "rows": self.manifest.n_rows,
                "shards": len(self.manifest.shards), "bytes": self.nbytes()}


class _ShardHandle:
    """Lazily opened, memory-mapped view of one committed shard."""

    def __init__(self, path: Path, info: ShardInfo,
                 decoders: dict[str, np.ndarray | None],
                 file=None):
        self.path = path
        self.info = info
        self._decoders = decoders
        # An already-open descriptor pins the inode, so a concurrent
        # compaction unlinking the path cannot break a later lazy open
        # (None: open by path at first touch; writer-side use only).
        self._file = file
        self._lock = named_lock("_ShardHandle._lock")
        self._arrays: dict[str, np.ndarray] | None = None  # guarded-by: _lock

    @property
    def n_rows(self) -> int:
        return self.info.n_rows

    def arrays(self) -> dict[str, np.ndarray]:
        with self._lock:
            if self._arrays is None:
                arrays = open_shard(
                    self.path if self._file is None else self._file)
                for name, array in arrays.items():
                    if array.shape != (self.n_rows,):
                        raise StorageError(
                            f"shard {self.path.name}: column {name!r} has "
                            f"shape {array.shape}, the manifest says "
                            f"{self.n_rows} rows")
                self._arrays = arrays
            return self._arrays

    def is_open(self) -> bool:
        """Whether the shard archive has been opened (any row data touched)."""
        with self._lock:
            return self._arrays is not None

    def decoded(self, attribute: str) -> np.ndarray:
        """The column's rows in in-memory encoding (sorted-vocab codes/floats)."""
        raw = self.arrays()[attribute]
        remap = self._decoders.get(attribute)
        if remap is None:
            return raw  # numeric, or store vocab already sorted: zero-copy
        return remap[raw]  # store codes -> sorted codes; sentinel wraps


class ShardedTable(Table):
    """A :class:`Table` over committed shards with zone-map pruned scans.

    Columns are lazy: each one concatenates its shards' (memory-mapped)
    arrays on first touch.  ``select`` with a pattern condition prunes whole
    shards via the manifest's zone maps before any mask is evaluated, so a
    selective scan only decodes the shards that can contain matches — and
    returns exactly what the in-memory ``Table.select`` would.
    """

    def __init__(self, manifest: Manifest, handles: list[_ShardHandle],
                 sorted_vocabs: dict[str, tuple]):
        self._manifest = manifest
        self._handles = handles
        self._sorted_vocabs = sorted_vocabs
        self._stats_lock = named_lock("ShardedTable._stats_lock")
        self._scans = 0  # guarded-by: _stats_lock
        self._shards_scanned = 0  # guarded-by: _stats_lock
        self._zone_map_skipped = 0  # guarded-by: _stats_lock
        self._rows_skipped = 0  # guarded-by: _stats_lock
        columns = [self._lazy_column(attribute, handles)
                   for attribute in manifest.attributes]
        super().__init__(columns, name=manifest.name)

    @property
    def version(self) -> int:
        return self._manifest.version

    @property
    def n_shards(self) -> int:
        return len(self._handles)

    def _lazy_column(self, attribute: str,
                     handles: list[_ShardHandle]) -> LazyColumn:
        numeric = self._manifest.kind(attribute) == NUMERIC
        length = sum(h.n_rows for h in handles)

        def loader() -> np.ndarray:
            if not handles:
                return np.empty(0, dtype=np.float64 if numeric else np.int32)
            if len(handles) == 1:
                return handles[0].decoded(attribute)  # the memory map itself
            # Shards decode one by one and concatenate in handle order.
            parts = map_morsels(lambda h: h.decoded(attribute), handles)
            return np.concatenate(parts)

        return LazyColumn(attribute, numeric, length, loader,
                          vocab=self._sorted_vocabs.get(attribute, ()))

    # ------------------------------------------------------------------ pruned scans

    def select(self, condition) -> Table:
        """Pattern selections skip shards by zone map, then AND one mask."""
        if not isinstance(condition, (Pattern, Predicate)):
            return super().select(condition)
        return self.plan_shard_select(condition)[0]

    def plan_shard_select(self, condition):
        """Zone-map pruned scan: ``(filtered table, ScanPlan)``.

        Every shard whose zone maps prove that some conjunct matches none of
        its rows is skipped; one mask AND (:func:`scan_indices`) over the
        surviving shards selects the rows.  The skip is a conservative
        proof, so the result equals the in-memory ``Table.select`` row for
        row.  A single-shard table skips nothing.
        """
        if not trace.enabled():
            return self._plan_shard_select(condition)
        with trace.trace_span("storage.shard_scan",
                              dataset=self.name) as span:
            filtered, plan = self._plan_shard_select(condition)
            span.set(shards_total=plan.shards_total,
                     zone_map_skipped=plan.shards_zone_map_skipped,
                     rows_out=plan.rows_out)
        return filtered, plan

    def _plan_shard_select(self, condition):
        predicates = [condition] if isinstance(condition, Predicate) else \
            list(condition.predicates)
        vocabs = self._manifest.vocabs
        # Each equality literal's store code is resolved once per scan, not
        # once per shard: the lookup walks the append-ordered vocabulary.
        conjuncts = [(p, vocabs.get(p.attribute),
                      store_code(p.value, vocabs.get(p.attribute)))
                     for p in predicates]
        survivors = []
        zone_skipped = rows_skipped = 0
        prune = len(self._handles) > 1
        for handle in self._handles:
            if prune and not all(
                    shard_may_match(handle.info.zone_maps.get(p.attribute),
                                    p, vocab, code)
                    for p, vocab, code in conjuncts):
                zone_skipped += 1
                rows_skipped += handle.n_rows
                continue
            survivors.append(handle)
        if prune:  # single-shard tables keep their counters at zero
            with self._stats_lock:
                self._scans += 1
                self._shards_scanned += len(self._handles)
                self._zone_map_skipped += zone_skipped
                self._rows_skipped += rows_skipped
            GLOBAL_PLANNER_STATS.record_shards(zone_skipped, len(survivors))
        subset = self if len(survivors) == len(self._handles) else \
            self._subset(survivors)
        indices = scan_indices(subset, condition)
        plan = ScanPlan(shards_total=len(self._handles),
                        shards_zone_map_skipped=zone_skipped,
                        shards_scanned=len(survivors),
                        rows_in=subset.n_rows, rows_out=int(indices.size))
        return subset.take(indices), plan

    def _subset(self, handles: list[_ShardHandle]) -> Table:
        """A plain lazy table over a subset of shards (same encodings)."""
        if not handles:
            columns = []
            for attribute in self._manifest.attributes:
                if self._manifest.kind(attribute) == NUMERIC:
                    columns.append(Column._from_numeric_data(
                        attribute, np.empty(0, dtype=np.float64)))
                else:
                    columns.append(Column.from_codes(
                        attribute, np.empty(0, dtype=np.int32),
                        self._sorted_vocabs[attribute]))
            return Table(columns, name=self.name)
        return Table([self._lazy_column(a, handles)
                      for a in self._manifest.attributes], name=self.name)

    def scan_stats(self) -> dict:
        """Cumulative pruning counters for this table handle.

        ``shards_skipped`` counts the shards zone maps skipped (also
        reported as ``zone_map_skipped``); ``shards_open`` says how many
        shard archives have actually been opened.
        """
        shards_open = sum(1 for handle in self._handles if handle.is_open())
        with self._stats_lock:
            return {"scans": self._scans,
                    "shards_scanned": self._shards_scanned,
                    "shards_skipped": self._zone_map_skipped,
                    "zone_map_skipped": self._zone_map_skipped,
                    "rows_skipped": self._rows_skipped,
                    "shards_open": shards_open}


# ---------------------------------------------------------------------- naming


def _next_shard_seq(manifest: Manifest) -> int:
    """One past the highest shard sequence number ever committed.

    Shard names are monotonic, *not* positional: compaction removes entries
    from the middle of the shard list, so ``len(shards)`` can collide with a
    kept shard's name — the max-derived sequence never can.  Files named
    below the returned sequence but absent from the manifest are leftovers
    of an interrupted rewrite; they are never referenced and get atomically
    replaced if the name is ever reused.
    """
    highest = -1
    for shard in manifest.shards:
        suffix = shard.shard_id.rsplit("-", 1)[-1]
        if suffix.isdigit():
            highest = max(highest, int(suffix))
    return highest + 1


# ---------------------------------------------------------------------- encoding


def _as_float64(column: Column) -> np.ndarray:
    if column.numeric:
        return np.asarray(column.values, dtype=np.float64)
    if column.n_missing() == len(column):  # all-missing batch column adopts
        return np.full(len(column), np.nan)
    raise StorageError(f"column {column.name!r} is categorical, "
                       "store expects numeric")


def _staged(manifest: Manifest) -> Manifest:
    """The next version of ``manifest``, sharing its shard entries and
    vocabulary lists — the dicts and lists that hold them are copies."""
    return Manifest(name=manifest.name, schema=manifest.schema,
                    vocabs=dict(manifest.vocabs), shards=list(manifest.shards),
                    version=manifest.version + 1)


def _as_store_codes(column: Column, vocabs: dict[str, list],
                    attribute: str) -> np.ndarray:
    """Encode a column against the dataset's append-only store vocabulary.

    New values are appended to ``vocabs[attribute]`` in first-seen order,
    so codes already written in previous shards stay valid forever.  The
    list is copied before its first new value (copy-on-write), so a list a
    published manifest holds never mutates.
    """
    if column.numeric:
        if column.n_missing() == len(column):
            return np.full(len(column), MISSING_CODE, dtype=np.int32)
        raise StorageError(f"column {column.name!r} is numeric, "
                           "store expects categorical")
    store_vocab = vocabs[attribute]
    index = {value: code for code, value in enumerate(store_vocab)}
    remap = np.empty(len(column.vocab) + 1, dtype=np.int32)
    grown = None
    for local_code, value in enumerate(column.vocab):
        store_code = index.get(value)
        if store_code is None:
            if not isinstance(value, _JSON_SAFE):
                raise StorageError(
                    f"column {column.name!r}: value {value!r} of type "
                    f"{type(value).__name__} cannot live in a JSON vocabulary")
            if grown is None:
                grown = vocabs[attribute] = list(store_vocab)
            store_code = len(grown)
            grown.append(value)
            index[value] = store_code
        remap[local_code] = store_code
    remap[len(column.vocab)] = MISSING_CODE  # sentinel -1 wraps to last slot
    return remap[column.codes]


def _sorted_remap(store_vocab) -> tuple[tuple, np.ndarray | None]:
    """``(sorted vocab, store-code -> sorted-code remap)``.

    Delegates to :func:`repro.dataframe.column.sorted_code_remap` — the one
    source of the deterministic vocabulary order — so loaded columns are
    indistinguishable from freshly factorized ones.  ``remap`` is ``None``
    when the store vocabulary is already sorted: codes then pass through
    untouched (zero-copy reads).
    """
    return sorted_code_remap(store_vocab)
