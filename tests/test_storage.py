"""Tests for the on-disk sharded columnar store (``repro.storage``).

Covers the ISSUE 4 checklist: manifest versioning, atomic-commit crash
simulation (leftover temp files are ignored), mmap-backed table equality
with the in-memory table, hypothesis-based zone-map pruning correctness
against unpruned scans, engine warm restarts with byte-identical summaries,
and the cross-engine memory budget.
"""

from __future__ import annotations

import base64
import datetime
import json
import mmap
import os
import pickle
import re
import sys
import threading
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CauSumX, CauSumXConfig, summary_to_dict
from repro.dataframe import Column, LazyColumn, Op, Pattern, Predicate, Table
from repro.datasets import load_dataset
from repro.mining.treatments import TreatmentMinerConfig
from repro.service import ExplanationEngine, LRUCache, MemoryBudget
from repro.storage import (
    DatasetStore,
    ShardedTable,
    StorageError,
    StoredDataset,
    config_from_dict,
    open_shard,
    write_shard,
)
from repro.dataframe import MISSING_CODE
from repro.storage import store as store_module
from repro.storage.format import (
    TMP_MARKER,
    Manifest,
    ShardInfo,
    json_line,
)
from repro.storage.zonemap import categorical_zone_map


def _table(n: int = 400, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    countries = ["US", "India", "China", "France", "Japan"]
    roles = ["Dev", "DS", "QA", None]
    return Table.from_columns({
        "Country": [countries[i] for i in rng.integers(0, len(countries), n)],
        "Role": [roles[i] for i in rng.integers(0, len(roles), n)],
        "Age": np.where(rng.random(n) < 0.05, np.nan,
                        rng.integers(18, 70, n).astype(float)),
        "Salary": rng.normal(100.0, 25.0, n),
    }, name="people")


@pytest.fixture
def store(tmp_path):
    return DatasetStore.init(tmp_path / "store")


def assert_mapped(array: np.ndarray, path) -> None:
    """``array`` is a read-only, zero-copy view whose base chain ends in an
    ``mmap.mmap`` of the shard file at ``path``."""
    assert not array.flags.writeable
    assert not array.flags.owndata
    base = array
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    assert isinstance(base, mmap.mmap)
    assert base[:] == path.read_bytes()


class TestShardFiles:
    def test_write_and_mmap_read(self, tmp_path):
        arrays = {"a": np.arange(10, dtype=np.float64),
                  "b": np.arange(10, dtype=np.int32)}
        path = tmp_path / "s.npz"
        write_shard(path, arrays)
        loaded = open_shard(path)
        for name in arrays:
            assert_mapped(loaded[name], path)  # genuinely memory-mapped
        assert np.array_equal(loaded["a"], arrays["a"])
        assert np.array_equal(loaded["b"], arrays["b"])
        assert loaded["b"].dtype == np.int32

    def test_object_arrays_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_shard(tmp_path / "bad.npz",
                        {"x": np.array(["a", None], dtype=object)})


def _member_offsets(path, column: str) -> tuple[int, int]:
    """``(local header offset, npy data offset)`` of one shard member."""
    with zipfile.ZipFile(path) as archive:
        header = archive.getinfo(column + ".npy").header_offset
    raw = path.read_bytes()
    name_len = int.from_bytes(raw[header + 26:header + 28], "little")
    extra_len = int.from_bytes(raw[header + 28:header + 30], "little")
    return header, header + 30 + name_len + extra_len


def _patch(path, offset: int, data: bytes) -> None:
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(data)] = data
    path.write_bytes(bytes(raw))


def _rewrite(path, savez=np.savez, **changes) -> None:
    """Re-write a shard's members through ``savez``, some replaced."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays.update(changes)
    with path.open("wb") as handle:
        savez(handle, **arrays)


def _overrun_shape(path) -> None:
    _, data = _member_offsets(path, "Salary")
    header = path.read_bytes()[data:data + 128]
    assert b"(100,)" in header
    _patch(path, data, header.replace(b"(100,)", b"(150,)"))


def _short_columns(path) -> None:
    with np.load(path) as archive:
        short = {name: archive[name][:90] for name in archive.files}
    _rewrite(path, **short)


#: damage id -> (damage applied to a 100-row shard, expected reason).
SHARD_DAMAGE = {
    "not-a-zip": (lambda p: p.write_bytes(b"no zip here " * 40),
                  "not a zip archive, or truncated"),
    "truncated": (lambda p: p.write_bytes(p.read_bytes()[:p.stat().st_size
                                                          // 2]),
                  "not a zip archive, or truncated"),
    "zero-tailed": (lambda p: _patch(p, p.stat().st_size - 64, bytes(64)),
                    "not a zip archive, or truncated"),
    "compressed": (lambda p: _rewrite(p, savez=np.savez_compressed),
                   "is compressed"),
    "bad-local-header": (
        lambda p: _patch(p, _member_offsets(p, "Role")[0], b"XXXX"),
        "bad local header"),
    "bad-npy-magic": (
        lambda p: _patch(p, _member_offsets(p, "Role")[1], b"\x00BADPY"),
        "bad npy magic"),
    "bad-npy-version": (
        lambda p: _patch(p, _member_offsets(p, "Role")[1] + 6, b"\x09"),
        "unsupported npy version"),
    "object-dtype": (
        lambda p: _rewrite(p, Role=np.array(["x"] * 100, dtype=object)),
        "object dtype"),
    "shape-overrun": (_overrun_shape, r"shape \(150,\) overruns"),
    "row-count": (_short_columns, "the manifest says 100 rows"),
}


class TestDamagedShards:
    """A damaged shard is a :class:`StorageError` naming the shard and the
    reason, raised before any of its arrays is exposed."""

    @pytest.mark.parametrize("damage", sorted(SHARD_DAMAGE))
    def test_damaged_shard_is_a_typed_refusal(self, store, damage):
        table = _table()
        dataset = store.import_table("people", table, shard_rows=100)
        path = dataset.directory / dataset.manifest.shards[1].file
        apply, reason = SHARD_DAMAGE[damage]
        apply(path)
        loaded = StoredDataset(dataset.directory).load_table()
        with pytest.raises(StorageError,
                           match=re.escape(path.name) + ".*" + reason):
            for column in loaded.columns():
                column.values if column.numeric else column.codes

    def test_zip64_archive_maps(self, tmp_path, monkeypatch):
        """Shards past 4 GiB carry zip64 records; a lowered limit makes a
        small one, so the zip64 path of the directory reader is exercised."""
        arrays = {"a": np.arange(50, dtype=np.float64),
                  "b": np.arange(50, dtype=np.int32)}
        path = tmp_path / "s.npz"
        with monkeypatch.context() as patched:
            patched.setattr(zipfile, "ZIP64_LIMIT", 16)
            write_shard(path, arrays)
        assert b"PK\x06\x06" in path.read_bytes()  # zip64 end record
        loaded = open_shard(path)
        for name, array in arrays.items():
            assert np.array_equal(loaded[name], array)
            assert_mapped(loaded[name], path)


class TestRoundTrip:
    def test_loaded_table_equals_in_memory(self, store):
        table = _table()
        dataset = store.import_table("people", table, shard_rows=100)
        loaded = dataset.load_table()
        assert isinstance(loaded, ShardedTable)
        assert loaded.n_shards == 4
        assert all(isinstance(c, LazyColumn) and not c.materialized
                   for c in loaded.columns())
        assert loaded == table  # triggers materialization column by column
        # Sorted vocabularies match a fresh factorization exactly.
        for attribute in table.attributes:
            if not table.is_numeric(attribute):
                assert loaded.column(attribute).vocab == \
                    table.column(attribute).vocab
                assert np.array_equal(loaded.column(attribute).codes,
                                      table.column(attribute).codes)
        dataset.verify()  # fingerprints hold

    def test_single_shard_numeric_is_memmap(self, store):
        table = _table(50)
        dataset = store.import_table("p", table)
        loaded = dataset.load_table()
        path = dataset.directory / dataset.manifest.shards[0].file
        assert_mapped(loaded.column("Salary").values, path)

    def test_manifest_versioning_per_append(self, store):
        table = _table(100)
        dataset = store.import_table("people", table)
        assert dataset.manifest.version == 0
        batch = _table(10, seed=1)
        dataset.append(batch)
        assert dataset.manifest.version == 1
        dataset.append(_table(5, seed=2), expected_version=1)
        assert dataset.manifest.version == 2
        with pytest.raises(StorageError):
            dataset.append(batch, expected_version=0)  # stale writer fenced
        reopened = StoredDataset(dataset.directory)
        assert reopened.manifest.version == 2
        assert reopened.manifest.n_rows == 115
        assert reopened.load_table() == \
            table.concat(_table(10, seed=1)).concat(_table(5, seed=2))

    def test_append_extends_interned_vocab_without_rewriting_shards(self, store):
        table = Table.from_columns({"c": ["b", "d"], "x": [1.0, 2.0]})
        dataset = store.import_table("t", table)
        first_shard = dataset.manifest.shards[0]
        before = (dataset.directory / first_shard.file).read_bytes()
        dataset.append(Table.from_columns({"c": ["a", "b"], "x": [3.0, 4.0]}))
        after = (dataset.directory / first_shard.file).read_bytes()
        assert before == after  # committed shards are immutable
        manifest = StoredDataset(dataset.directory).manifest
        assert manifest.vocabs["c"] == ["b", "d", "a"]  # append-only interning
        loaded = dataset.load_table()
        combined = table.concat(Table.from_columns({"c": ["a", "b"],
                                                    "x": [3.0, 4.0]}))
        assert loaded.column("c").vocab == ("a", "b", "d")  # sorted on load
        assert loaded == combined

    def test_kind_mismatch_rejected_but_all_missing_adopts(self, store):
        table = _table(30)
        dataset = store.import_table("people", table)
        bad = _table(5, seed=3)
        bad = Table([c if c.name != "Age" else Column("Age", ["x"] * 5)
                     for c in bad.columns()], name=bad.name)
        with pytest.raises(StorageError):
            dataset.append(bad)
        allmissing = _table(5, seed=4)
        allmissing = Table([c if c.name != "Role"
                            else Column("Role", [None] * 5, numeric=False)
                            for c in allmissing.columns()], name=allmissing.name)
        dataset.append(allmissing)
        assert dataset.load_table().n_rows == 35


class TestAtomicity:
    def test_leftover_temp_files_ignored_and_swept(self, store):
        table = _table(60)
        dataset = store.import_table("people", table, shard_rows=20)
        # Simulate a crashed writer: stray temp shard + temp manifest.
        junk_shard = dataset.directory / "shards" / \
            f"shard-000099.npz{TMP_MARKER}deadbeef"
        junk_shard.write_bytes(b"\x00garbage")
        junk_manifest = dataset.directory / f"MANIFEST.json{TMP_MARKER}cafe"
        junk_manifest.write_text("{not json")
        reopened = StoredDataset(dataset.directory)
        assert reopened.manifest.version == 0
        assert reopened.load_table() == table  # junk never observed
        # The next committed append sweeps the leftovers.
        reopened.append(_table(5, seed=9))
        assert not junk_shard.exists()
        assert not junk_manifest.exists()

    def test_uncommitted_shard_is_invisible(self, store):
        """A shard file without a manifest commit does not exist logically."""
        table = _table(40)
        dataset = store.import_table("people", table, shard_rows=20)
        extra = dataset.directory / "shards" / "shard-000077.npz"
        write_shard(extra, {"Country": np.zeros(3, dtype=np.int32),
                            "Role": np.zeros(3, dtype=np.int32),
                            "Age": np.zeros(3), "Salary": np.zeros(3)})
        reopened = StoredDataset(dataset.directory)
        assert reopened.manifest.n_rows == 40
        assert reopened.load_table().n_rows == 40

    def test_manifest_is_one_compact_key_sorted_line(self, store):
        dataset = store.import_table("people", _table(60), shard_rows=20)
        dataset.append(_table(5, seed=1))
        raw = (dataset.directory / "MANIFEST.json").read_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        document = json.loads(raw)
        assert raw.decode() == json.dumps(
            document, sort_keys=True, separators=(",", ":")) + "\n"
        assert document["version"] == 1 and len(document["shards"]) == 4

    def test_indented_manifest_opens_appends_and_compacts(self, store):
        """The layout older builds wrote — same document, ``indent=2``."""
        table = _table(60)
        dataset = store.import_table("people", table, shard_rows=20)
        path = dataset.directory / "MANIFEST.json"

        def reindent():
            path.write_text(json.dumps(json.loads(path.read_text()), indent=2,
                                       sort_keys=True) + "\n")

        reindent()
        reopened = StoredDataset(dataset.directory)
        assert reopened.load_table() == table
        batch = _table(7, seed=4)
        reopened.append(batch)
        assert path.read_text().count("\n") == 1  # re-committed compact
        assert StoredDataset(dataset.directory).load_table() == \
            table.concat(batch)
        reindent()
        compacting = StoredDataset(dataset.directory)
        assert compacting.compact(shard_rows=40)["rewritten"] == 4
        final = StoredDataset(dataset.directory)
        assert final.manifest.version == 2
        assert final.load_table() == table.concat(batch)
        final.verify()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="names flushed descriptors through procfs")
    def test_append_flushes_every_step_before_the_next(self, store,
                                                       monkeypatch):
        """A durable manifest never names a shard that is not durable.

        Shard bytes, shard rename, ``shards/`` entries, manifest bytes,
        manifest rename, dataset-directory entries — in that order.
        """
        dataset = store.import_table("people", _table(40), shard_rows=20)
        directory = str(dataset.directory)
        events = []

        def label(path: str) -> str:
            relative = os.path.relpath(path, directory)
            if relative == ".":
                return "dataset dir"
            if relative == "shards":
                return "shards dir"
            return "shard" if relative.startswith("shards") else \
                relative.partition(TMP_MARKER)[0]

        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(
                ("fsync", label(os.readlink(f"/proc/self/fd/{fd}"))))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("rename", label(str(dst))))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        dataset.append(_table(5, seed=1))
        assert events == [
            ("fsync", "shard"), ("rename", "shard"), ("fsync", "shards dir"),
            ("fsync", "MANIFEST.json"), ("rename", "MANIFEST.json"),
            ("fsync", "dataset dir"),
        ]

    def test_malformed_manifest_raises_storage_error(self, tmp_path):
        directory = tmp_path / "broken"
        (directory / "shards").mkdir(parents=True)
        (directory / "MANIFEST.json").write_text(json.dumps(
            {"format_version": 999, "name": "x", "version": 0, "schema": []}))
        with pytest.raises(StorageError):
            StoredDataset(directory)

    @pytest.mark.parametrize("column, zone_map, message", [
        # A numeric column mapped as categorical: before the check, the
        # scan read `Age = <present value>` as unsatisfiable and returned
        # no rows.
        pytest.param(
            "Age", {"kind": "categorical", "codes": [], "n_missing": 0},
            "has kind 'categorical', the schema says 'numeric'",
            id="numeric-as-categorical"),
        pytest.param(
            "Country", {"kind": "categorical", "codes": "abc",
                        "n_missing": 0},
            "has codes 'abc'", id="codes-not-a-list"),
        pytest.param(
            "Country", ["kind", "categorical"], "is a list, not an object",
            id="map-is-a-list"),
        pytest.param(
            "Country", {"kind": "categorical", "codes": [0, -1],
                        "n_missing": 0},
            "not a list of non-negative integers", id="negative-code"),
        pytest.param(
            "Country", {"kind": "categorical", "codes": [0]},
            "has no integer n_missing", id="no-n-missing"),
        pytest.param(
            "Age", {"kind": "numeric", "min": 5.0, "max": None,
                    "n_missing": 0},
            "has min 5.0 and max None", id="half-null-bounds"),
        pytest.param(
            "Age", {"kind": "numeric", "min": "18", "max": 70.0,
                    "n_missing": 0},
            "has min '18'", id="string-bound"),
        pytest.param(
            "Age", {"kind": "numeric", "max": 70.0, "n_missing": 0},
            "has no min or no max", id="no-min"),
        pytest.param(
            "Age", {"kind": "numeric", "min": 70.0, "max": 18.0,
                    "n_missing": 0},
            "has min 70.0 and max 18.0", id="min-above-max"),
        pytest.param(
            "Salary", {"kind": "numeric", "min": 1.0, "max": 2.0,
                       "n_missing": True},
            "has no integer n_missing", id="bool-n-missing"),
        pytest.param(
            "Nope", {"kind": "numeric", "min": None, "max": None,
                     "n_missing": 0},
            "which is not a stored column", id="unknown-column"),
    ])
    def test_malformed_zone_map_is_a_typed_refusal(self, store, column,
                                                   zone_map, message):
        """A zone map that does not fit its column's schema kind refuses to
        open, naming the shard and the column, instead of pruning shards
        that hold matching rows."""
        dataset = store.import_table("people", _table(60), shard_rows=20)
        path = dataset.directory / "MANIFEST.json"
        spec = json.loads(path.read_text())
        spec["shards"][1]["zone_maps"][column] = zone_map
        path.write_text(json.dumps(spec))
        with pytest.raises(StorageError) as refusal:
            StoredDataset(dataset.directory)
        assert str(refusal.value).startswith(
            f"shard 'shard-000001': zone map of {column!r}")
        assert message in str(refusal.value)

    def test_zone_maps_not_an_object_is_a_typed_refusal(self, store):
        dataset = store.import_table("people", _table(60), shard_rows=20)
        path = dataset.directory / "MANIFEST.json"
        spec = json.loads(path.read_text())
        spec["shards"][2]["zone_maps"] = [["Age", None]]
        path.write_text(json.dumps(spec))
        with pytest.raises(StorageError, match="shard 'shard-000002': "
                                               "zone_maps is not an object"):
            StoredDataset(dataset.directory)

    def test_zone_map_without_present_values_opens(self, store):
        table = Table.from_columns({"x": [np.nan, np.nan, 1.0, 2.0],
                                    "c": [None, None, "a", "b"]})
        dataset = store.import_table("t", table, shard_rows=2)
        assert dataset.manifest.shards[0].zone_maps == {
            "x": {"kind": "numeric", "min": None, "max": None,
                  "n_missing": 2},
            "c": {"kind": "categorical", "codes": [], "n_missing": 2}}
        loaded = StoredDataset(dataset.directory).load_table()
        pattern = Pattern.of(("x", ">=", 1.0))
        assert loaded.select(pattern) == table.select(pattern)


class TestZoneMapPruning:
    def test_pruned_scan_skips_shards_and_matches_unpruned(self, store):
        rng = np.random.default_rng(1)
        n = 800
        # Sorted by Age so shards carry disjoint ranges (prunable).
        age = np.sort(rng.integers(18, 70, n).astype(float))
        table = Table.from_columns({
            "Age": age,
            "City": [f"c{i % 7}" for i in range(n)],
            "Pay": rng.normal(50, 10, n),
        })
        dataset = store.import_table("t", table, shard_rows=100)
        loaded = dataset.load_table()
        pattern = Pattern.of(("Age", "<", float(age[30])))
        result = loaded.select(pattern)
        assert result == table.select(pattern)
        stats = loaded.scan_stats()
        assert stats["scans"] == 1
        assert stats["shards_skipped"] >= 5  # most shards proved irrelevant
        # The base-class full-mask path over the same shards skips nothing.
        unpruned = dataset.load_table()
        assert Table.select(unpruned, pattern) == result
        assert unpruned.scan_stats()["scans"] == 0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_pruning_never_changes_results(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        n = data.draw(st.integers(20, 120))
        cats = ["a", "b", "c", "d", None]
        table = Table.from_columns({
            "cat": [cats[i] for i in rng.integers(0, len(cats), n)],
            "num": np.where(rng.random(n) < 0.2, np.nan,
                            rng.integers(-5, 6, n).astype(float)),
        })
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(
                f"{tmp}/d", "d", table,
                shard_rows=data.draw(st.integers(5, 40)))
            loaded = dataset.load_table()
            predicates = []
            for _ in range(data.draw(st.integers(1, 2))):
                if data.draw(st.booleans()):
                    predicates.append(Predicate(
                        "cat", data.draw(st.sampled_from(list(Op))),
                        data.draw(st.sampled_from(["a", "b", "c", "d", "zz"]))))
                else:
                    predicates.append(Predicate(
                        "num", data.draw(st.sampled_from(list(Op))),
                        data.draw(st.integers(-7, 7))))
            pattern = Pattern(predicates)
            assert loaded.select(pattern) == Table.select(loaded, pattern) \
                == table.select(pattern)

    def test_empty_survivor_set_yields_empty_table(self, store):
        table = Table.from_columns({"x": [1.0, 2.0, 3.0, 4.0],
                                    "c": ["a", "a", "b", "b"]})
        loaded = store.import_table("t", table, shard_rows=2).load_table()
        result = loaded.select(Pattern.of(("x", ">", 100)))
        assert result.n_rows == 0
        assert result.attributes == table.attributes
        assert result.column("c").vocab == table.column("c").vocab
        assert loaded.scan_stats()["shards_skipped"] == 2


def _config() -> CauSumXConfig:
    return CauSumXConfig(
        k=3, theta=0.6, apriori_threshold=0.15, sample_size=None,
        treatment=TreatmentMinerConfig(max_levels=2,
                                       max_values_per_attribute=8))


def _payload(summary) -> str:
    as_dict = summary_to_dict(summary)
    as_dict.pop("timings", None)
    return json.dumps(as_dict, sort_keys=True, default=str)


def _snapshot_parts(path) -> tuple[dict, list[bytes]]:
    """The index and the entry bodies of a ``summaries.jsonl`` snapshot."""
    head, _, bodies = path.read_bytes().partition(b"\n")
    spec = json.loads(head)
    return spec, [bodies[offset:offset + length]
                  for *_, offset, length in spec["index"]]


def _write_snapshot(path, spec: dict, bodies: list[bytes]) -> None:
    """Re-emit a snapshot, its index offsets recomputed for ``bodies``."""
    offset = 0
    for item, body in zip(spec["index"], bodies):
        item[3:] = [offset, len(body)]
        offset += len(body) + 1
    path.write_bytes(b"\n".join([json.dumps(spec).encode(), *bodies])
                     + b"\n")


class TestWarmRestart:
    QUERY = "SELECT Country, AVG(Salary) FROM SO GROUP BY Country"

    @pytest.fixture(scope="class")
    def bundle(self):
        return load_dataset("stackoverflow", n=300, seed=0)

    def test_full_lifecycle_byte_identical(self, tmp_path, bundle):
        """import → serve → append → restart → byte-identical to in-memory."""
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config(), shard_rows=100)

        engine = ExplanationEngine.from_store(store)
        served = engine.explain("stackoverflow", self.QUERY)
        reference = CauSumX(bundle.table, bundle.dag, _config()).explain(
            self.QUERY, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert _payload(served) == _payload(reference)

        rows = [bundle.table.row(i) for i in range(8)]
        report = engine.append_rows("stackoverflow", rows)
        assert report["version"] == 1
        post_append = engine.explain("stackoverflow", self.QUERY)
        snapshot = engine.snapshot()
        assert snapshot["summaries"] >= 1

        # Restart: committed shards + registry + summary cache from disk only.
        restarted = ExplanationEngine.from_store(store)
        summary, info = restarted.explain_with_info("stackoverflow", self.QUERY)
        assert info["cached"]  # warm: no recomputation
        assert summary == post_append  # indistinguishable once restored
        assert _payload(summary) == _payload(post_append)
        # And the warm summary equals a fresh in-memory run on the full data.
        combined = bundle.table.concat(
            Table.from_rows(rows, schema=list(bundle.table.attributes)))
        fresh = CauSumX(combined, bundle.dag, _config()).explain(
            self.QUERY, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert _payload(summary) == _payload(fresh)

    def test_snapshot_ignores_stale_versions(self, tmp_path, bundle):
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config())
        engine = ExplanationEngine.from_store(store)
        engine.explain("stackoverflow", self.QUERY)
        engine.snapshot()
        # Data moves on *after* the snapshot: restored entries must be dropped.
        store.dataset("stackoverflow").append(
            Table.from_rows([bundle.table.row(0)],
                            schema=list(bundle.table.attributes)))
        restarted = ExplanationEngine.from_store(store)
        assert restarted.stats().get("restored_summaries", 0) == 0
        _, info = restarted.explain_with_info("stackoverflow", self.QUERY)
        assert not info["cached"]

    @pytest.mark.parametrize("damage", ["missing", "truncated",
                                        "wrong-shape", "wrong-entries"])
    def test_damaged_snapshot_means_cold_start(self, tmp_path, bundle, damage):
        """``engine/summaries.jsonl`` is only a cache: a damaged index
        never bricks a restart."""
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config())
        engine = ExplanationEngine.from_store(store)
        engine.explain("stackoverflow", self.QUERY)
        assert engine.snapshot()["summaries"] == 1
        path = store.root / "engine" / "summaries.jsonl"
        if damage == "missing":
            path.unlink()
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-20])
        elif damage == "wrong-shape":
            path.write_bytes(b'[["stackoverflow", 0, "fp"]]\n')
        else:
            spec, bodies = _snapshot_parts(path)
            spec["index"] = ["stackoverflow"]
            path.write_bytes(b"\n".join([json.dumps(spec).encode(),
                                         *bodies]) + b"\n")
        restarted = ExplanationEngine.from_store(store)
        assert restarted.stats()["restored_summaries"] == 0
        _, info = restarted.explain_with_info("stackoverflow", self.QUERY)
        assert not info["cached"]

    @pytest.mark.parametrize("damage", ["unparseable", "schema"])
    def test_damaged_body_is_one_counted_miss(self, tmp_path, bundle,
                                              damage):
        """A body that fails to parse or schema-check is dropped on its
        first hit and counted; the request is served as a miss."""
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config())
        engine = ExplanationEngine.from_store(store)
        live = engine.explain("stackoverflow", self.QUERY)
        engine.snapshot()
        path = store.root / "engine" / "summaries.jsonl"
        spec, (body,) = _snapshot_parts(path)
        if damage == "unparseable":
            body = body[:len(body) // 2]
        else:
            assert b'"k":3,' in body
            body = body.replace(b'"k":3,', b'"k":"3",')
        _write_snapshot(path, spec, [body])
        restarted = ExplanationEngine.from_store(store)
        assert restarted.stats()["restored_summaries"] == 1  # index is fine
        summary, info = restarted.explain_with_info("stackoverflow",
                                                    self.QUERY)
        assert not info["cached"]
        assert _payload(summary) == _payload(live)
        stats = restarted.stats()
        assert stats["summaries_rejected"] == 1
        assert stats["metrics"]["repro_store_summaries_rejected_total"] == 1
        _, info = restarted.explain_with_info("stackoverflow", self.QUERY)
        assert info["cached"]  # the recomputed summary took its place

    def test_legacy_pickle_snapshot_is_never_read(self, tmp_path, bundle,
                                                  monkeypatch):
        """A store holding only an earlier build's ``summaries.pkl`` opens
        cold, never unpickles it, and loses it at the next snapshot."""
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config())
        engine = ExplanationEngine.from_store(store)
        summary = engine.explain("stackoverflow", self.QUERY)
        ((key, _),) = engine.summary_cache_items()
        legacy = store.root / "engine" / "summaries.pkl"
        legacy.write_bytes(pickle.dumps(
            {"format_version": 1, "entries": [(key, summary)]},
            protocol=pickle.HIGHEST_PROTOCOL))
        assert not (store.root / "engine" / "summaries.jsonl").exists()

        def refuse(*args, **kwargs):
            raise AssertionError("a store file was unpickled")

        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        restarted = ExplanationEngine.from_store(DatasetStore(store.root))
        assert restarted.stats()["restored_summaries"] == 0
        served, info = restarted.explain_with_info("stackoverflow",
                                                   self.QUERY)
        assert not info["cached"]
        reference = CauSumX(bundle.table, bundle.dag, _config()).explain(
            self.QUERY, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert _payload(served) == _payload(reference)
        restarted.snapshot()
        assert not legacy.exists()
        assert (store.root / "engine" / "summaries.jsonl").exists()

    def test_snapshot_copies_restored_bytes_without_decoding(
            self, tmp_path, bundle, monkeypatch):
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config())
        engine = ExplanationEngine.from_store(store)
        engine.explain("stackoverflow", self.QUERY)
        engine.explain("stackoverflow", self.QUERY.replace("Country", "Role"))
        engine.snapshot()
        path = store.root / "engine" / "summaries.jsonl"
        written = path.read_bytes()
        # Each restored entry owns its body (no view pinning the whole
        # file), so a memory budget frees what it weighs on eviction.
        _, bodies = _snapshot_parts(path)
        assert [entry.blob() for _, entry in store.load_summaries()] == bodies
        assert all(type(entry.blob()) is bytes
                   for _, entry in store.load_summaries())

        def refuse(blob):
            raise AssertionError("a restored body was decoded")

        monkeypatch.setattr("repro.core.export.decode_summary", refuse)
        restarted = ExplanationEngine.from_store(store)
        assert restarted.snapshot()["summaries"] == 2
        assert path.read_bytes() == written

    def test_concurrent_first_hits_decode_equal_summaries(self, tmp_path,
                                                          bundle):
        """Threads racing on one undecoded entry may each decode it (a
        benign race, no lock); every one gets an equal summary."""
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config())
        engine = ExplanationEngine.from_store(store)
        live = engine.explain("stackoverflow", self.QUERY)
        engine.snapshot()
        restarted = ExplanationEngine.from_store(store)
        barrier = threading.Barrier(8)
        results = []

        def hit():
            barrier.wait(timeout=30)
            results.append(restarted.explain_with_info("stackoverflow",
                                                       self.QUERY))

        threads = [threading.Thread(target=hit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [info["cached"] for _, info in results] == [True] * 8
        assert all(summary == live for summary, _ in results)

    def test_unchanged_registry_is_not_rewritten(self, tmp_path, bundle,
                                                 monkeypatch):
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config())
        engine = ExplanationEngine.from_store(store)
        engine.explain("stackoverflow", self.QUERY)
        written = []
        original = store_module.atomic_write_bytes

        def recording(path, payload):
            written.append(path.name)
            original(path, payload)

        monkeypatch.setattr(store_module, "atomic_write_bytes", recording)
        engine.snapshot()
        engine.snapshot()
        assert written == ["summaries.jsonl", "summaries.jsonl"]

    def test_snapshot_requires_store(self):
        engine = ExplanationEngine()
        with pytest.raises(ValueError):
            engine.snapshot()


class TestManifestCompatibility:
    """Manifests that carry the retired per-shard ``predicate_indexes``
    key still open, answer identically, and shed it when next committed."""

    QUERY = ("SELECT Country, AVG(Salary) FROM SO "
             "WHERE Gender = 'Male' GROUP BY Country")

    @pytest.fixture
    def indexed_store(self, tmp_path):
        bundle = load_dataset("stackoverflow", n=300, seed=0)
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config(), shard_rows=100)
        path = store.dataset("stackoverflow").directory / "MANIFEST.json"
        manifest = json.loads(path.read_text())
        male = np.asarray(bundle.table.column("Gender").values) == "Male"
        start = 0
        for shard in manifest["shards"]:
            mask = male[start:start + shard["n_rows"]]
            start += shard["n_rows"]
            packed = np.packbits(mask.astype(np.uint8))
            shard["predicate_indexes"] = {"Gender == 'Male'": {
                "bits": base64.b64encode(packed.tobytes()).decode("ascii"),
                "n_rows": int(mask.size), "matches": int(mask.sum()),
                "nbytes": int(packed.nbytes),
                "attribute": "Gender", "op": "==", "value": "Male"}}
        path.write_text(json.dumps(manifest))
        return DatasetStore(store.root), bundle, path

    def test_opens_and_answers_like_in_memory(self, indexed_store):
        store, bundle, _ = indexed_store
        reference = CauSumX(bundle.table, bundle.dag, _config()).explain(
            self.QUERY, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        engine = ExplanationEngine.from_store(store)
        served = engine.explain("stackoverflow", self.QUERY)
        assert _payload(served) == _payload(reference)

    @pytest.mark.parametrize("commit", ["append", "compact"])
    def test_next_commit_sheds_the_key(self, indexed_store, commit):
        store, bundle, path = indexed_store
        assert "predicate_indexes" in path.read_text()
        if commit == "append":
            store.dataset("stackoverflow").append(Table.from_rows(
                [bundle.table.row(0)], schema=list(bundle.table.attributes)))
        else:
            assert store.compact("stackoverflow",
                                 shard_rows=150)["rewritten"] == 3
        assert "predicate_indexes" not in path.read_text()
        store.dataset("stackoverflow").verify()


def _legacy_column_stats(shard: Table, vocabs: dict) -> dict:
    """A shard's ``column_stats`` manifest entry as earlier versions wrote
    it: an equi-depth histogram per numeric column, store-code frequencies
    per categorical one."""
    entries = {}
    for column in shard.columns():
        n = len(column)
        if column.numeric:
            present = np.sort(column.values[~np.isnan(column.values)])
            edges = np.quantile(present, np.linspace(0, 1, 5)).tolist() \
                if present.size else []
            counts = np.diff(np.searchsorted(present, edges[1:],
                                             side="right"),
                             prepend=0).tolist() if present.size else []
            entries[column.name] = {
                "kind": "numeric", "n": n, "n_missing": n - present.size,
                "min": float(present[0]) if present.size else None,
                "max": float(present[-1]) if present.size else None,
                "n_distinct": int(np.unique(present).size),
                "edges": edges, "counts": counts}
        else:
            values = [v for v in column.values if v is not None]
            codes, counts = np.unique([vocabs[column.name].index(v)
                                       for v in values], return_counts=True)
            entries[column.name] = {
                "kind": "categorical", "n": n, "n_missing": n - len(values),
                "n_distinct": int(codes.size), "codes": codes.tolist(),
                "counts": counts.tolist(), "other": 0}
    return entries


class TestColumnStatsCompatibility:
    """Manifests that carry the retired per-shard ``column_stats`` key
    still open, scan and explain like the in-memory table, and shed it when
    next committed."""

    QUERY = ("SELECT Country, AVG(Salary) FROM SO "
             "WHERE Gender = 'Male' AND Continent != 'Asia' "
             "GROUP BY Country")

    @pytest.fixture
    def stats_store(self, tmp_path):
        bundle = load_dataset("stackoverflow", n=300, seed=0)
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config(), shard_rows=100)
        dataset = store.dataset("stackoverflow")
        loaded = dataset.load_table()
        path = dataset.directory / "MANIFEST.json"
        manifest = json.loads(path.read_text())
        start = 0
        for shard in manifest["shards"]:
            stop = start + shard["n_rows"]
            shard["column_stats"] = _legacy_column_stats(
                loaded.take(np.arange(start, stop)), manifest["vocabs"])
            start = stop
        path.write_text(json.dumps(manifest))
        return DatasetStore(store.root), bundle, path

    def test_opens_and_scans_like_in_memory(self, stats_store):
        store, bundle, _ = stats_store
        loaded = store.dataset("stackoverflow").load_table()
        salary = bundle.table.column("Salary").values
        for pattern in (Pattern.of(("Gender", "==", "Male")),
                        Pattern.of(("Gender", "==", "Male"),
                                   ("Continent", "!=", "Asia")),
                        Pattern.of(("Country", ">", "India"),
                                   ("Salary", "<=", float(salary[7]))),
                        Pattern.of(("Salary", "!=", float("nan"))),
                        Pattern.of(("Country", "==", "Atlantis"))):
            assert loaded.select(pattern) == bundle.table.select(pattern)

    def test_explain_byte_identical_to_in_memory(self, stats_store):
        store, bundle, _ = stats_store
        salary = bundle.table.column("Salary").values
        assert np.any(salary != np.round(salary))  # a float outcome
        reference = CauSumX(bundle.table, bundle.dag, _config()).explain(
            self.QUERY, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        engine = ExplanationEngine.from_store(store)
        served = engine.explain("stackoverflow", self.QUERY)
        assert _payload(served) == _payload(reference)

    @pytest.mark.parametrize("commit", ["append", "compact"])
    def test_next_commit_sheds_the_key(self, stats_store, commit):
        store, bundle, path = stats_store
        assert "column_stats" in path.read_text()
        if commit == "append":
            store.dataset("stackoverflow").append(Table.from_rows(
                [bundle.table.row(0)], schema=list(bundle.table.attributes)))
        else:
            assert store.compact("stackoverflow",
                                 cluster_by="Country")["rewritten"] == 3
        assert "column_stats" not in path.read_text()
        store.dataset("stackoverflow").verify()


class TestRegistryCompatibility:
    """Registries whose configs carry the retired ``n_jobs`` field (every
    registry written before it was removed) still open, answer like the
    in-memory oracle, and drop the field at their next commit."""

    QUERY = "SELECT Country, AVG(Salary) FROM SO GROUP BY Country"

    def test_legacy_n_jobs_opens_answers_and_is_shed(self, tmp_path):
        bundle = load_dataset("stackoverflow", n=300, seed=0)
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config(), shard_rows=100)
        path = store.root / "engine" / "registry.json"
        registry = json.loads(path.read_text())
        registry["stackoverflow"]["config"]["n_jobs"] = 1
        path.write_text(json.dumps(registry))
        reference = CauSumX(bundle.table, bundle.dag, _config()).explain(
            self.QUERY, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        engine = ExplanationEngine.from_store(store)
        assert _payload(engine.explain("stackoverflow", self.QUERY)) == \
            _payload(reference)
        engine.snapshot()
        config = json.loads(path.read_text())["stackoverflow"]["config"]
        assert "n_jobs" not in config
        assert config_from_dict(config) == _config()


class TestMemoryBudget:
    def test_cross_cache_global_lru_eviction(self):
        budget = MemoryBudget(capacity_bytes=100)
        a = LRUCache(10, budget=budget, weigher=len)
        b = LRUCache(10, budget=budget, weigher=len)
        a.put("a1", b"x" * 40)
        b.put("b1", b"x" * 40)
        a.put("a2", b"x" * 40)  # over cap: evicts a1 (globally oldest)
        assert "a1" not in a
        assert "b1" in b and "a2" in a
        b.get("b1")
        a.put("a3", b"x" * 40)  # over cap: a2 is now globally oldest
        assert "a2" not in a and "b1" in b
        stats = budget.stats()
        assert stats["evictions"] == 2
        assert stats["bytes"] <= 100
        assert stats["bytes_evicted"] == 80

    def test_engine_budget_eviction_surfaces_in_stats(self):
        bundle = load_dataset("stackoverflow", n=200, seed=0)
        budget = MemoryBudget(capacity_bytes=1)  # everything evicts
        engine = ExplanationEngine(memory_budget=budget)
        engine.register_dataset("so", bundle.table, dag=bundle.dag,
                                config=_config(),
                                grouping_attributes=bundle.grouping_attributes,
                                treatment_attributes=bundle.treatment_attributes)
        engine.explain("so", "SELECT Country, AVG(Salary) FROM SO "
                             "GROUP BY Country")
        stats = engine.stats()
        assert stats["memory_budget"]["evictions"] >= 1
        assert stats["summary_cache"]["entries"] == 0
        # Correctness unaffected: the query just recomputes.
        engine.explain("so", "SELECT Country, AVG(Salary) FROM SO "
                             "GROUP BY Country")

    def test_unencodable_summary_is_served_uncached(self):
        # A categorical column keeps any hashable, here dates; the summary
        # codec has no JSON form for them, so a budgeted cache cannot weigh
        # the summary and the request serves it uncached instead of failing.
        bundle = load_dataset("stackoverflow", n=200, seed=0)
        columns = {name: list(bundle.table.column(name).values)
                   for name in bundle.table.attributes}
        days = {country: datetime.date(2020, 1, i + 1) for i, country in
                enumerate(sorted(set(columns["Country"]), key=str))}
        columns["Country"] = [days[c] for c in columns["Country"]]
        table = Table.from_columns(columns)
        engine = ExplanationEngine(
            memory_budget=MemoryBudget(capacity_bytes=1 << 20))
        engine.register_dataset("so", table, dag=bundle.dag, config=_config(),
                                grouping_attributes=bundle.grouping_attributes,
                                treatment_attributes=bundle.treatment_attributes)
        query = "SELECT Country, AVG(Salary) FROM SO GROUP BY Country"
        expected = CauSumX(table, bundle.dag, _config()).explain(
            query, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)
        assert any(isinstance(value, datetime.date)
                   for key in expected.all_groups for value in key)
        for _ in range(2):
            summary = engine.explain("so", query)
            assert _payload(summary) == _payload(expected)
        assert engine.stats()["summary_cache"]["entries"] == 0

    def test_unbudgeted_cache_reports_zero_bytes(self):
        cache = LRUCache(4)
        cache.put("k", "value")
        assert cache.stats().bytes == 0


class TestWriterSafety:
    def test_non_positive_shard_rows_rejected(self, store):
        with pytest.raises(StorageError):
            store.import_table("t", _table(10), shard_rows=0)
        with pytest.raises(StorageError):
            store.import_table("t2", _table(10), shard_rows=-1)

    def test_independent_handles_chain_appends(self, store):
        table = _table(20)
        dataset = store.import_table("people", table)
        other = StoredDataset(dataset.directory)  # separate handle, own lock
        dataset.append(_table(3, seed=1))
        other.append(_table(4, seed=2))  # re-reads committed state under flock
        dataset.append(_table(5, seed=3))
        final = StoredDataset(dataset.directory)
        assert final.manifest.version == 3
        assert final.manifest.n_rows == 32
        assert len({s.shard_id for s in final.manifest.shards}) == 4
        final.verify()  # every fingerprint matches its bytes

    def test_sorted_code_remap_is_shared_contract(self):
        from repro.dataframe.column import sorted_code_remap

        vocab, remap = sorted_code_remap(["b", "d", "a"])
        assert vocab == ("a", "b", "d")
        assert list(remap[:-1]) == [1, 2, 0] and remap[-1] == -1
        vocab, remap = sorted_code_remap(["a", "b"])
        assert vocab == ("a", "b") and remap is None


# ---------------------------------------------------------------------- commit path

_json_scalars = st.one_of(st.text(max_size=6), st.integers(-10**6, 10**6),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.booleans())


_zone_map_numbers = st.floats(allow_nan=False)


@st.composite
def _zone_maps(draw, kind: str) -> dict:
    """A well-formed zone map of a ``kind`` column."""
    n_missing = draw(st.integers(0, 500))
    if kind == "categorical":
        return {"kind": kind, "n_missing": n_missing,
                "codes": sorted(draw(st.sets(st.integers(0, 500),
                                             max_size=3)))}
    bounds = draw(st.none() | st.lists(_zone_map_numbers, min_size=2,
                                       max_size=2))
    lo, hi = sorted(bounds) if bounds else (None, None)
    return {"kind": kind, "min": lo, "max": hi, "n_missing": n_missing}


@st.composite
def _manifests(draw) -> Manifest:
    """Manifests with random schemas, vocabularies (any unicode), and shard
    zone maps of each column's kind."""
    names = draw(st.lists(st.text(min_size=1, max_size=5), min_size=1,
                          max_size=3, unique=True))
    schema = [{"name": name,
               "kind": draw(st.sampled_from(["numeric", "categorical"]))}
              for name in names]
    vocabs = {entry["name"]: draw(st.lists(_json_scalars, max_size=5))
              for entry in schema if entry["kind"] == "categorical"}
    counts = st.integers(0, 500)
    shards = []
    for seq in range(draw(st.integers(0, 4))):
        shards.append(ShardInfo(
            shard_id=f"shard-{seq:06d}", file=f"shards/shard-{seq:06d}.npz",
            n_rows=draw(counts), fingerprint=draw(st.text(max_size=8)),
            zone_maps={entry["name"]: draw(_zone_maps(entry["kind"]))
                       for entry in schema}))
    return Manifest(name=draw(st.text(max_size=6)), schema=schema,
                    vocabs=vocabs, shards=shards,
                    version=draw(st.integers(0, 10**6)))


def _old_categorical_zone_map(store_codes: np.ndarray) -> dict:
    """The zone-map builder as it was before the one-bincount rewrite."""
    present = np.unique(store_codes)
    return {"kind": "categorical",
            "codes": [int(c) for c in present if c != MISSING_CODE],
            "n_missing": int((store_codes == MISSING_CODE).sum())}


class TestManifestCommitPath:
    @settings(max_examples=60, deadline=None)
    @given(manifest=_manifests(), extra=_manifests())
    def test_spliced_bytes_equal_json_line(self, manifest, extra):
        expected = json_line(manifest.to_dict())
        assert manifest.to_json_line() == expected
        assert manifest.to_json_line() == expected  # cached shard entries
        # Every drawn zone map fits its column, so the bytes parse back.
        assert Manifest.from_dict(json.loads(expected)) == manifest
        # A later commit splices the cached entries next to new ones.
        manifest.shards.extend(extra.shards)
        manifest.version += 1
        assert manifest.to_json_line() == json_line(manifest.to_dict())

    def test_committed_bytes_are_json_line_of_the_document(self, store):
        """Non-ASCII values, before and after a clustered compaction."""
        table = Table.from_columns({
            "City": ["Zürich", "東京", "São Paulo", "Zürich"] * 5,
            "Fare": np.arange(20.0)})
        dataset = store.import_table("fares", table, shard_rows=6)
        path = dataset.directory / "MANIFEST.json"

        def assert_canonical():
            raw = path.read_bytes()
            assert raw == json_line(json.loads(raw))

        dataset.append(Table.from_columns({"City": ["Ürümqi", "東京"],
                                           "Fare": [1.5, 2.5]}))
        assert_canonical()
        dataset.compact(cluster_by="City", shard_rows=8)
        assert_canonical()
        dataset.append(Table.from_columns({"City": ["Đà Nẵng"],
                                           "Fare": [3.0]}))
        assert_canonical()
        assert StoredDataset(dataset.directory).load_table().n_rows == 23

    def test_appends_through_one_handle_parse_the_manifest_once(
            self, store, monkeypatch):
        dataset = store.import_table("people", _table(40), shard_rows=20)
        parses = []
        parse = Manifest.from_dict.__func__

        def counting(cls, spec):
            parses.append(spec["version"])
            return parse(cls, spec)

        monkeypatch.setattr(Manifest, "from_dict", classmethod(counting))
        handle = StoredDataset(dataset.directory)
        for seed in range(5):
            handle.append(_table(5, seed=seed))
        handle.compact(shard_rows=100)
        assert parses == [0]  # the open; never again under the flock
        # Another writer's commit changes the bytes: one re-parse, then none.
        StoredDataset(dataset.directory).append(_table(3, seed=9))
        handle.append(_table(2, seed=10), expected_version=7)
        handle.append(_table(2, seed=11), expected_version=8)
        assert parses == [0, 6, 7]
        assert StoredDataset(dataset.directory).load_table().n_rows == 72

    def test_failed_append_leaves_vocabularies_untouched(self, store):
        table = Table.from_columns({"a": ["x", "y"], "b": [1.0, 2.0],
                                    "c": ["p", "q"]})
        dataset = store.import_table("t", table)
        published = dataset.manifest
        bad = Table.from_columns({
            "a": ["x", "new"], "b": [3.0, 4.0],
            "c": [datetime.date(2020, 1, 1), datetime.date(2020, 1, 2)]})
        with pytest.raises(StorageError, match="JSON vocabulary"):
            dataset.append(bad)
        assert dataset.manifest is published
        assert dataset.manifest.vocabs == {"a": ["x", "y"], "c": ["p", "q"]}
        dataset.append(Table.from_columns({"a": ["y"], "b": [5.0],
                                           "c": ["r"]}))
        assert StoredDataset(dataset.directory).manifest.vocabs == \
            {"a": ["x", "y"], "c": ["p", "q", "r"]}
        assert published.vocabs == {"a": ["x", "y"], "c": ["p", "q"]}

    def test_zero_row_batch_is_refused(self, store):
        dataset = store.import_table("people", _table(40), shard_rows=20)
        with pytest.raises(StorageError, match="zero-row"):
            dataset.append(_table(10).take(np.arange(0)))
        assert dataset.manifest.version == 0
        assert len(StoredDataset(dataset.directory).manifest.shards) == 2

    @settings(max_examples=200, deadline=None)
    @given(codes=st.lists(st.integers(-1, 12), max_size=80)
           | st.lists(st.integers(-1, 10**6), max_size=8))
    def test_one_bincount_matches_the_unique_sorts(self, codes):
        """A categorical zone map from one count pass serializes
        byte-identically to the ``np.unique`` builder it replaced — missing
        values included, and codes far sparser than the shard (counted by a
        sort, not a bincount over the vocabulary)."""
        codes = np.asarray(codes, dtype=np.int32)
        assert json_line(categorical_zone_map(codes)) == json_line(
            _old_categorical_zone_map(codes))
