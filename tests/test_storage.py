"""Tests for the on-disk sharded columnar store (``repro.storage``).

Covers the ISSUE 4 checklist: manifest versioning, atomic-commit crash
simulation (leftover temp files are ignored), mmap-backed table equality
with the in-memory table, hypothesis-based zone-map pruning correctness
against unpruned scans, engine warm restarts with byte-identical summaries,
and the cross-engine memory budget.
"""

from __future__ import annotations

import base64
import json
import os
import pickle

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
from repro.storage.format import TMP_MARKER, load_manifest


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


class TestShardFiles:
    def test_write_and_mmap_read(self, tmp_path):
        arrays = {"a": np.arange(10, dtype=np.float64),
                  "b": np.arange(10, dtype=np.int32)}
        path = tmp_path / "s.npz"
        write_shard(path, arrays)
        loaded = open_shard(path)
        assert isinstance(loaded["a"], np.memmap)  # genuinely memory-mapped
        assert np.array_equal(loaded["a"], arrays["a"])
        assert np.array_equal(loaded["b"], arrays["b"])
        assert loaded["b"].dtype == np.int32

    def test_object_arrays_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_shard(tmp_path / "bad.npz",
                        {"x": np.array(["a", None], dtype=object)})


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
        loaded = store.import_table("p", table).load_table()
        assert isinstance(loaded.column("Salary").values, np.memmap)

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
        manifest = load_manifest(dataset.directory)
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
        unpruned = dataset.load_table(prune=False)
        assert unpruned.select(pattern) == result
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
            assert loaded.select(pattern) == table.select(pattern)

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

    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape",
                                        "wrong-entries"])
    def test_damaged_snapshot_means_cold_start(self, tmp_path, bundle, damage):
        """``engine/summaries.pkl`` is only a cache: damage never bricks
        a restart."""
        store = DatasetStore.init(tmp_path / "store")
        bundle.to_store(store, config=_config())
        engine = ExplanationEngine.from_store(store)
        engine.explain("stackoverflow", self.QUERY)
        assert engine.snapshot()["summaries"] == 1
        path = store.root / "engine" / "summaries.pkl"
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-20])
        elif damage == "wrong-shape":
            path.write_bytes(pickle.dumps([("stackoverflow", 0, "fp")]))
        else:
            payload = pickle.loads(path.read_bytes())
            payload["entries"] = ["stackoverflow"]
            path.write_bytes(pickle.dumps(payload))
        restarted = ExplanationEngine.from_store(store)
        assert restarted.stats()["restored_summaries"] == 0
        _, info = restarted.explain_with_info("stackoverflow", self.QUERY)
        assert not info["cached"]

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
