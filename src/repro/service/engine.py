"""The explanation-serving engine: persistent state shared across queries.

A one-shot ``CauSumX(table, dag).explain(sql)`` call re-parses the SQL,
re-materialises the aggregate view, re-enumerates lattice atoms, and
re-evaluates every predicate mask from scratch.  :class:`ExplanationEngine`
is the long-lived alternative an interactive service needs: datasets are
registered once, queries are canonicalised and fingerprinted, and results are
served through a hierarchy of caches —

1. **plan cache** — SQL text → parsed :class:`~repro.sql.GroupByAvgQuery`;
2. **population cache** — (WHERE clause, outcome) → a
   :class:`~repro.causal.CATEEstimator` whose shared
   :class:`~repro.dataframe.MaskCache` and lattice-atom cache are reused by
   *every* query over that filtered population, whatever it groups by;
3. **summary cache** — fingerprint → finished
   :class:`~repro.core.ExplanationSummary` (LRU with hit/miss/eviction
   statistics).

Identical in-flight requests are *single-flighted*: concurrent callers with
the same fingerprint block on one computation and all receive the identical
summary object.  ``explain_many`` additionally deduplicates fingerprints
within a batch.

Data is versioned: :meth:`append_rows` concatenates new rows onto a
registered table (merging dictionary vocabularies, see ``Table.concat``),
bumps the dataset's monotonic data version, and invalidates the summaries
tied to older versions.  Cached populations and WHERE masks outlive the
append: the first request on the new version extends them from the rows it
already filtered, each predicate mask evaluated on the appended rows only
(:meth:`~repro.dataframe.MaskCache.extended`).

Results are *byte-identical* to fresh one-shot runs on the same canonical
query: every cache level only removes recomputation, never changes inputs
(``benchmarks/bench_engine_cache.py`` gates this).

Engines can be **store-backed** (:mod:`repro.storage`): datasets registered
with a :class:`~repro.storage.StoredDataset` handle write every
:meth:`append_rows` batch through to disk as a committed shard before the
in-memory swap, :meth:`ExplanationEngine.from_store` rebuilds a fully
registered engine (tables memory-mapped, summary cache restored) from a
store directory, and :meth:`snapshot` persists the warm state back — a
restarted ``repro serve --store`` process answers its first repeated query
from the cache, byte-identical to the summary it served before the restart.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.lockwatch import named_lock
from repro.causal import CATEEstimator
from repro.core import (
    CauSumX,
    CauSumXConfig,
    EncodedSummary,
    ExplanationSummary,
    SummaryCodecError,
)
from repro.dataframe import MaskCache, Pattern, Table
from repro.graph import CausalDAG
from repro.obs import trace
from repro.obs.registry import unified_engine_metrics
from repro.obs.telemetry import telemetry_enabled
from repro.parallel import GLOBAL_PARALLEL_STATS
from repro.plan import GLOBAL_PLANNER_STATS, ScanPlan, lower_query
from repro.service.lru import LRUCache
from repro.sql import (
    AggregateView,
    GroupByAvgQuery,
    normalize_query,
    parse_query,
)


#: Distinct WHERE predicates whose masks one dataset's cache may hold before
#: it is flushed (each mask costs ``n_rows`` bytes; recomputing is one
#: vectorized kernel pass, so flushing beats unbounded growth).
WHERE_MASK_CACHE_LIMIT = 128


@dataclass(frozen=True)
class DatasetState:
    """An immutable snapshot of one registered dataset at one data version."""

    name: str
    table: Table
    dag: CausalDAG | None
    config: CauSumXConfig
    grouping_attributes: tuple[str, ...] | None
    treatment_attributes: tuple[str, ...] | None
    version: int = 0
    #: Optional :class:`~repro.storage.StoredDataset` backing this dataset:
    #: appends are written through to disk before the in-memory swap.
    store: object | None = None
    #: Which registration of ``name`` this is: ``register_dataset`` draws a
    #: fresh, larger number, appends keep it.  Within one registration a
    #: later version's table is an earlier one's plus appended rows.
    registration: int = 0

    @property
    def epoch(self) -> tuple[int, int]:
        """``(registration, version)``: orders every state of one name."""
        return self.registration, self.version


def _extends(cached: tuple[int, int], state: DatasetState) -> bool:
    """Whether an entry built at ``cached`` (an epoch) covers a prefix of
    ``state``'s table: same registration, older version."""
    return cached[0] == state.registration and cached[1] < state.version


@dataclass
class _Population:
    """A cached filtered population: its WHERE pattern and shared estimator,
    built over the dataset at ``epoch`` (see :attr:`DatasetState.epoch`)."""

    where: Pattern
    estimator: CATEEstimator
    epoch: tuple[int, int]


@dataclass
class _Flight:
    """Bookkeeping for one in-flight summary computation (single-flight)."""

    done: threading.Event = field(default_factory=threading.Event)
    summary: ExplanationSummary | None = None
    error: BaseException | None = None


class ExplanationEngine:
    """Serves explanation summaries for registered datasets, statefully.

    Parameters
    ----------
    summary_cache_size / population_cache_size / plan_cache_size:
        Capacities of the three cache levels.
    memory_budget:
        Optional shared :class:`~repro.service.MemoryBudget`: the summary
        cache weighs its entries (codec bytes) against the budget's global
        cap, and the budget may evict the globally least-recently-used
        summaries across *every* engine attached to it.
    max_workers:
        Ignored; accepted for benchmarks/e2e/workloads.py (ENGINE_KWARGS).
    """

    def __init__(self, summary_cache_size: int = 256,
                 population_cache_size: int = 32, plan_cache_size: int = 512,
                 memory_budget=None, max_workers: int | None = None):
        self.memory_budget = memory_budget
        self._datasets_lock = named_lock("ExplanationEngine._datasets_lock")
        self._datasets: dict[str, DatasetState] = {}  # guarded-by: _datasets_lock
        # Serialises mutations (append_rows) without blocking readers: the
        # heavy table/mask construction happens under this lock only, while
        # _datasets_lock is held just for the snapshot and the final swap.
        self._mutation_lock = named_lock("ExplanationEngine._mutation_lock")
        self._plan_cache = LRUCache(plan_cache_size)
        self._population_cache = LRUCache(population_cache_size)
        self._summary_cache = LRUCache(
            summary_cache_size, budget=memory_budget,
            weigher=_summary_nbytes if memory_budget is not None else None)
        # Values are EncodedSummary entries: restored ones decode on first hit.
        self._flights_lock = named_lock("ExplanationEngine._flights_lock")
        self._flights: dict[tuple, _Flight] = {}  # guarded-by: _flights_lock
        #: name -> (epoch, MaskCache over the registered table): the shared
        #: cache in-memory WHERE scans route repeated conjuncts through.
        self._where_masks: dict[str, tuple[tuple[int, int], MaskCache]] = {}  # guarded-by: _datasets_lock
        self._registrations = 0  # guarded-by: _mutation_lock
        self._computations = 0  # guarded-by: _flights_lock
        self._coalesced = 0  # guarded-by: _flights_lock
        self._batch_deduped = 0  # guarded-by: _flights_lock
        self._store = None  # DatasetStore when built via from_store
        self._restored_summaries = 0  # guarded-by: _flights_lock
        self._summaries_rejected = 0  # guarded-by: _flights_lock
        # HTTP-tier metrics hook (repro.net): attached once before serving
        # starts, read-only afterwards, so no lock is needed.
        self._http_metrics = None
        # Query-telemetry sink (repro.obs): attached once (from_store wires
        # the store's log), read-only afterwards, so no lock is needed.
        self._telemetry = None

    # ------------------------------------------------------------------ registration

    def register_dataset(self, name: str, table: Table,
                         dag: CausalDAG | None = None,
                         config: CauSumXConfig | None = None,
                         grouping_attributes: Sequence[str] | None = None,
                         treatment_attributes: Sequence[str] | None = None,
                         version: int | None = None,
                         store=None) -> DatasetState:
        """Register (or replace) a dataset under ``name``.

        Re-registering an existing name installs the new table/DAG/config and
        bumps the data version, invalidating every cache entry of the old
        registration.  ``version`` pins the data version explicitly (used
        when restoring from a store, where the committed manifest version
        must line up with restored cache keys); ``store`` attaches a
        :class:`~repro.storage.StoredDataset` for durable appends.
        """
        with self._mutation_lock, self._datasets_lock:
            previous = self._datasets.get(name)
            if version is None:
                version = previous.version + 1 if previous is not None else 0
            self._registrations += 1
            state = DatasetState(
                name=name, table=table, dag=dag,
                config=config or CauSumXConfig(),
                grouping_attributes=tuple(grouping_attributes)
                if grouping_attributes is not None else None,
                treatment_attributes=tuple(treatment_attributes)
                if treatment_attributes is not None else None,
                version=version,
                store=store,
                registration=self._registrations,
            )
            self._datasets[name] = state
            if previous is not None:
                self._invalidate(name)
            return state

    def register_bundle(self, bundle, config: CauSumXConfig | None = None,
                        name: str | None = None) -> DatasetState:
        """Register a :class:`~repro.datasets.DatasetBundle` in one call."""
        return self.register_dataset(
            name or bundle.name, bundle.table, dag=bundle.dag, config=config,
            grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes,
        )

    @classmethod
    def from_store(cls, store, **engine_kwargs) -> "ExplanationEngine":
        """Rebuild a fully registered engine from a store directory.

        Every stored dataset is loaded as a memory-mapped
        :class:`~repro.storage.ShardedTable` (no rows are read until
        queries touch them) and registered with the DAG / config / attribute
        partition recorded in the store's registry at the dataset's committed
        manifest version.  Persisted summary-cache entries whose
        ``(dataset, version)`` still matches are restored undecoded (each
        body is decoded on its first hit), so repeated queries after a
        restart are served from cache, byte-identical to the summaries
        computed before the restart.
        """
        from repro.graph import CausalDAG as _DAG  # local alias; already imported
        from repro.storage import DatasetStore, config_from_dict

        if not isinstance(store, DatasetStore):
            store = DatasetStore(store)
        engine = cls(**engine_kwargs)
        engine._store = store
        engine._telemetry = store.telemetry_log()
        registry = store.registry()
        for name in store.dataset_names():
            stored = store.dataset(name)
            entry = registry.get(name) or {}
            dag = _DAG.from_dict(entry["dag"]) if entry.get("dag") else None
            config = config_from_dict(entry["config"]) \
                if entry.get("config") else None
            engine.register_dataset(
                name, stored.load_table(), dag=dag, config=config,
                grouping_attributes=entry.get("grouping_attributes"),
                treatment_attributes=entry.get("treatment_attributes"),
                version=stored.manifest.version, store=stored)
        restored = 0
        for key, entry in store.load_summaries():
            name, version = key[0], key[1]
            with engine._datasets_lock:
                state = engine._datasets.get(name)
            if state is not None and state.version == version:
                engine._summary_cache.put(key, entry)
                restored += 1
        with engine._flights_lock:
            engine._restored_summaries = restored
        return engine

    def snapshot(self) -> dict:
        """Persist registrations + summary cache to the backing store.

        Only available on engines built via :meth:`from_store` (or with a
        store attached through :attr:`attach_store`).  Returns the persisted
        entry counts.
        """
        if self._store is None:
            raise ValueError("engine has no backing store; build it with "
                             "ExplanationEngine.from_store or attach_store()")
        return self._store.snapshot(self)

    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.storage.DatasetStore` for :meth:`snapshot`."""
        self._store = store

    def detach_store(self) -> None:
        """Detach the backing store from the engine and all its datasets.

        Afterwards :meth:`snapshot` refuses and :meth:`append_rows` mutates
        in memory only.  The HTTP tier's tenant registry uses this for
        non-default tenants restored from a shared store: several tenants
        appending to the same stored dataset would race on its committed
        version, so only the reserved ``default`` tenant keeps durability.
        """
        self._store = None
        with self._mutation_lock, self._datasets_lock:
            for name, state in list(self._datasets.items()):
                if state.store is not None:
                    self._datasets[name] = replace(state, store=None)

    def attach_telemetry(self, log) -> None:
        """Attach a :class:`~repro.obs.TelemetryLog` query-telemetry sink.

        One record per served :meth:`explain` — fingerprint, the executed
        scan's shard and row counts, cache outcomes, span timings — is
        appended whenever telemetry is enabled
        (:func:`~repro.obs.telemetry_enabled`); attaching alone changes
        nothing.  :meth:`from_store` attaches the store's own log
        automatically.  Attach before serving begins — the reference is
        read without locking.
        """
        self._telemetry = log

    def attach_http_metrics(self, metrics) -> None:
        """Attach the HTTP tier's serving metrics (:mod:`repro.net`).

        Any object with a ``snapshot() -> dict`` method; once attached,
        :meth:`stats` surfaces it under the ``"http"`` key so the JSON-lines
        ``stats`` op and ``GET /metrics`` report the same numbers.  Attach
        before serving begins — the reference is read without locking.
        """
        self._http_metrics = metrics

    def summary_cache_items(self) -> list[tuple]:
        """Snapshot of ``(key, EncodedSummary)`` entries (for store snapshots)."""
        return list(self._summary_cache.items())

    def datasets(self) -> list[str]:
        with self._datasets_lock:
            return sorted(self._datasets)

    def dataset_state(self, name: str) -> DatasetState:
        with self._datasets_lock:
            if name not in self._datasets:
                raise KeyError(f"unknown dataset {name!r}; registered: "
                               f"{sorted(self._datasets)}")
            return self._datasets[name]

    # ------------------------------------------------------------------ serving

    def explain(self, name: str, query: GroupByAvgQuery | str,
                use_summary_cache: bool = True) -> ExplanationSummary:
        """Serve one explanation summary (cached, single-flighted)."""
        return self.explain_with_info(name, query, use_summary_cache)[0]

    def explain_with_info(self, name: str, query: GroupByAvgQuery | str,
                          use_summary_cache: bool = True,
                          ) -> tuple[ExplanationSummary, dict]:
        """Like :meth:`explain` but also return serving metadata.

        The info dictionary reports the query ``fingerprint``, the dataset
        ``version`` served, wall-clock ``seconds``, and whether the summary
        came from the cache (``cached``) or from another thread's concurrent
        computation (``coalesced``).
        """
        start = time.perf_counter()
        # Observability rides along only when someone is listening: outcomes
        # stays None on the default path, so serving allocates nothing extra.
        telemetered = self._telemetry is not None and telemetry_enabled()
        outcomes = {} if (telemetered or trace.enabled()) else None
        with trace.trace_span("engine.explain", dataset=name) as span:
            summary, info, canonical, scan_plan = self._explain_serve(
                name, query, use_summary_cache, outcomes, start)
        if telemetered:
            self._record_telemetry(info, outcomes, span, canonical, scan_plan)
        return summary, info

    def _explain_serve(self, name: str, query: GroupByAvgQuery | str,
                       use_summary_cache: bool, outcomes: dict | None,
                       start: float
                       ) -> tuple[ExplanationSummary, dict, GroupByAvgQuery,
                                  ScanPlan | None]:
        """The serving core of :meth:`explain_with_info`.

        ``outcomes`` (when not ``None``) collects per-cache-level hit/miss
        outcomes for the telemetry record as serving passes each level.  The
        fourth element is the :class:`~repro.plan.ScanPlan` this request
        executed — ``None`` when it executed none (summary hit, coalesced
        follower, WHERE-less query).
        """
        state = self.dataset_state(name)
        canonical = self._canonical(query, outcomes)
        # The canonical query lowers to the plan IR; the plan's fingerprint
        # is the cache key (two spellings of one question share a plan).
        plan = lower_query(canonical)
        fingerprint = plan.fingerprint
        key = (name, state.version, fingerprint)
        info = {"dataset": name, "version": state.version,
                "fingerprint": fingerprint, "cached": False, "coalesced": False}

        if use_summary_cache:
            summary = self._cached_summary(key)
            if summary is not None:
                if outcomes is not None:
                    outcomes["summary"] = "hit"
                info["cached"] = True
                info["seconds"] = time.perf_counter() - start
                return summary, info, canonical, None
        if outcomes is not None:
            outcomes["summary"] = "miss"

        while True:
            with self._flights_lock:
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = _Flight()
                    self._flights[key] = flight
            if leader:
                if outcomes is not None:
                    outcomes["flight"] = "leader"
                try:
                    summary, scan_plan = self._compute(state, canonical, plan,
                                                       outcomes)
                    if use_summary_cache:
                        self._cache_summary(key, summary)
                    flight.summary = summary
                except BaseException as exc:
                    flight.error = exc
                    raise
                finally:
                    with self._flights_lock:
                        self._flights.pop(key, None)
                    flight.done.set()
                info["seconds"] = time.perf_counter() - start
                return summary, info, canonical, scan_plan
            flight.done.wait()
            if flight.error is None and flight.summary is not None:
                with self._flights_lock:
                    self._coalesced += 1
                if outcomes is not None:
                    outcomes["flight"] = "coalesced"
                info["coalesced"] = True
                info["seconds"] = time.perf_counter() - start
                return flight.summary, info, canonical, None
            # The leader failed; retry (and possibly become the leader).

    def _record_telemetry(self, info: dict, outcomes: dict | None, span,
                          canonical: GroupByAvgQuery,
                          scan_plan: ScanPlan | None) -> None:
        """Append one query-telemetry record; never fails the query."""
        root = trace.current_root()
        record = {
            "kind": "explain",
            "unix_ts": round(time.time(), 3),
            "dataset": info["dataset"],
            "version": info["version"],
            "fingerprint": info["fingerprint"],
            "sql": canonical.to_sql(),
            "cached": info["cached"],
            "coalesced": info["coalesced"],
            "duration_ms": round(info["seconds"] * 1000.0, 3),
            "trace_id": getattr(span, "trace_id", None)
            or trace.current_trace_id(),
            "queue_wait_ms":
                root.attrs.get("queue_wait_ms") if root is not None else None,
            "cache_outcomes": outcomes,
            "plan": scan_plan.to_dict() if scan_plan is not None else None,
            "spans": trace.span_dict(span),
        }
        self._telemetry.record(record)

    def explain_many(self, name: str, queries: Sequence[GroupByAvgQuery | str],
                     use_summary_cache: bool = True) -> list[ExplanationSummary]:
        """Serve a batch of queries, deduplicating identical fingerprints.

        Duplicate queries are computed once, in first-occurrence order,
        sharing the population-level caches.  Results are returned in input
        order, duplicates receiving the same summary object.
        """
        canonicals = [self._canonical(q) for q in queries]
        fingerprints = [lower_query(c).fingerprint for c in canonicals]
        first_index: dict[str, int] = {}
        for i, fp in enumerate(fingerprints):
            first_index.setdefault(fp, i)
        with self._flights_lock:
            self._batch_deduped += len(queries) - len(first_index)
        computed = {fp: self.explain(name, canonicals[i], use_summary_cache)
                    for fp, i in first_index.items()}
        return [computed[fp] for fp in fingerprints]

    def explain_plan(self, name: str, query: GroupByAvgQuery | str) -> dict:
        """Describe how one query would execute, without mining treatments.

        Returns the lowered logical plan and what the WHERE scan measured:
        shards skipped by zone map and scanned, rows in and out.  The scan
        really runs — that is where the counts come from.
        """
        state = self.dataset_state(name)
        canonical = self._canonical(query)
        plan = lower_query(canonical)
        view = self._view(state, canonical)
        scan = view.scan_plan.to_dict() if view.scan_plan is not None else None
        return {
            "dataset": name,
            "version": state.version,
            "fingerprint": plan.fingerprint,
            "sql": canonical.to_sql(),
            "logical_plan": plan.render(),
            "scan": scan,
            "rows": {"table": state.table.n_rows,
                     "filtered": view.table.n_rows},
            "groups": view.m,
        }

    # ------------------------------------------------------------------ incremental data

    def append_rows(self, name: str,
                    rows: Table | Sequence[Mapping]) -> dict:
        """Append rows to a registered dataset and bump its data version.

        The new table is built with ``Table.concat`` (vocabulary merge, no
        re-factorization of the existing rows).  The summaries of the old
        data version are invalidated; cached populations and WHERE masks
        stay and are *extended* by the first request on the new version
        (``masks_carried`` counts the masks they hold), so nothing here
        scans the table.  A batch of zero rows — ``[]`` or an empty
        :class:`Table` — changes nothing.

        Appends are serialised against each other, but readers keep serving
        the old data version during the construction work; only the final
        swap + summary invalidation takes the registry lock.
        """
        with self._mutation_lock:
            state = self.dataset_state(name)
            unchanged = {"dataset": name, "version": state.version,
                         "appended_rows": 0, "n_rows": state.table.n_rows,
                         "invalidated": 0, "masks_carried": 0}
            if isinstance(rows, Table):
                appended = rows
            else:
                rows = list(rows)
                if not rows:
                    return unchanged
                unknown = set()
                for row in rows:
                    unknown.update(set(row) - set(state.table.attributes))
                if unknown:
                    raise ValueError(
                        f"appended rows carry unknown attribute(s) "
                        f"{sorted(unknown)}; dataset {name!r} schema is "
                        f"{list(state.table.attributes)}")
                appended = Table.from_rows(rows, schema=list(state.table.attributes))
            if appended.attributes != state.table.attributes:
                raise ValueError(
                    f"appended rows have schema {list(appended.attributes)}, "
                    f"dataset {name!r} has {list(state.table.attributes)}")
            for attribute in state.table.attributes:
                incoming = appended.column(attribute)
                if incoming.numeric != state.table.is_numeric(attribute) \
                        and incoming.n_missing() < len(incoming):
                    kind = "numeric" if state.table.is_numeric(attribute) \
                        else "categorical"
                    raise ValueError(
                        f"appended values for {attribute!r} do not match the "
                        f"dataset's {kind} column kind")
            if appended.n_rows == 0:
                return unchanged
            new_table = state.table.concat(appended)
            new_state = replace(state, table=new_table, version=state.version + 1)

            # Durability first: a store-backed dataset commits the batch as a
            # new shard (atomic manifest replace) *before* the in-memory swap,
            # so a crash after this point replays cleanly from disk and a
            # crash before it changes nothing.  The batch is sliced from the
            # concatenated table so its columns carry the merged vocabularies.
            if state.store is not None:
                batch = new_table.take(
                    np.arange(state.table.n_rows, new_table.n_rows))
                state.store.append(batch, expected_version=state.version)

            masks_carried = sum(
                len(p.estimator.mask_cache)
                for key, p in self._population_cache.items()
                if key[0] == name and p.estimator.mask_cache is not None)
            with self._datasets_lock:
                invalidated = self._summary_cache.purge(
                    lambda key: key[0] == name)
                self._datasets[name] = new_state
            return {"dataset": name, "version": new_state.version,
                    "appended_rows": appended.n_rows,
                    "n_rows": new_table.n_rows,
                    "invalidated": invalidated,
                    "masks_carried": masks_carried}

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        """A JSON-compatible snapshot of all cache levels and serving counters."""
        with self._datasets_lock:
            datasets = {
                state.name: {"version": state.version,
                             "rows": state.table.n_rows,
                             "attributes": state.table.n_cols}
                for state in self._datasets.values()
            }
        mask_stats = {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}
        for _, population in self._population_cache.items():
            cache = population.estimator.mask_cache
            if cache is None:
                continue
            snapshot = cache.stats()
            mask_stats["hits"] += snapshot.hits
            mask_stats["misses"] += snapshot.misses
            mask_stats["entries"] += snapshot.entries
            mask_stats["bytes"] += snapshot.bytes

        def level(cache: LRUCache) -> dict:
            snapshot = cache.stats()
            return {"hits": snapshot.hits, "misses": snapshot.misses,
                    "evictions": snapshot.evictions,
                    "invalidations": snapshot.invalidations,
                    "entries": snapshot.entries, "capacity": snapshot.capacity,
                    "bytes": snapshot.bytes,
                    "hit_rate": round(snapshot.hit_rate, 4)}

        with self._flights_lock:
            computations = self._computations
            coalesced = self._coalesced
            batch_deduped = self._batch_deduped
            restored_summaries = self._restored_summaries
            summaries_rejected = self._summaries_rejected
        storage: dict = {}
        with self._datasets_lock:
            states = list(self._datasets.values())
        for state in states:
            entry: dict = {}
            if state.store is not None:
                entry.update(state.store.stats())
            scan_stats = getattr(state.table, "scan_stats", None)
            if callable(scan_stats):
                entry["scan"] = scan_stats()
            if entry:
                storage[state.name] = entry
        with self._datasets_lock:
            where_masks = {name: entry[1].stats()
                           for name, entry in self._where_masks.items()}
        planner = {
            **GLOBAL_PLANNER_STATS.snapshot(),
            "where_mask_caches": {
                name: {"hits": s.hits, "misses": s.misses,
                       "entries": s.entries, "bytes": s.bytes}
                for name, s in where_masks.items()},
        }
        result = {
            "datasets": datasets,
            "planner": planner,
            # Per-shard loop batches and morsels run.
            "parallel": GLOBAL_PARALLEL_STATS.snapshot(),
            "plan_cache": level(self._plan_cache),
            "population_cache": level(self._population_cache),
            "summary_cache": level(self._summary_cache),
            "mask_caches": mask_stats,
            "computations": computations,
            "coalesced": coalesced,
            "batch_deduped": batch_deduped,
        }
        if storage:
            result["storage"] = storage
            result["restored_summaries"] = restored_summaries
            result["summaries_rejected"] = summaries_rejected
        if self.memory_budget is not None:
            result["memory_budget"] = self.memory_budget.stats()
        if self._http_metrics is not None:
            result["http"] = self._http_metrics.snapshot()
        if self._telemetry is not None:
            result["telemetry"] = self._telemetry.stats()
        # The unified repro_<layer>_<name> view of the same numbers; the
        # classic keys above are the stable API, this is the metrics-scrape
        # vocabulary (shared with GET /metrics).
        result["metrics"] = unified_engine_metrics(result)
        return result

    @property
    def computations(self) -> int:
        """Number of full summary computations performed (cache misses)."""
        with self._flights_lock:
            return self._computations

    # ------------------------------------------------------------------ internals

    def _cached_summary(self, key: tuple) -> ExplanationSummary | None:
        """The cached summary for ``key``, decoding a restored entry.

        A restored body that fails to decode or schema-check is dropped
        and counted; the request proceeds as a miss.
        """
        entry = self._summary_cache.get(key)
        if entry is None:
            return None
        try:
            return entry.summary()
        except SummaryCodecError:
            self._summary_cache.purge(lambda k: k == key)
            with self._flights_lock:
                self._summaries_rejected += 1
            return None

    def _cache_summary(self, key: tuple, summary: ExplanationSummary) -> None:
        """Cache a computed summary, unless a memory budget must weigh it
        and the codec cannot encode it (a group or predicate value JSON
        has no form for): then it is served uncached."""
        try:
            self._summary_cache.put(key, EncodedSummary(summary))
        except SummaryCodecError:
            pass

    def _canonical(self, query: GroupByAvgQuery | str,
                   outcomes: dict | None = None) -> GroupByAvgQuery:
        if isinstance(query, str):
            parsed = self._plan_cache.get(query)
            if outcomes is not None:
                outcomes["plan"] = "miss" if parsed is None else "hit"
            if parsed is None:
                parsed = parse_query(query)
                self._plan_cache.put(query, parsed)
            query = parsed
        return normalize_query(query)

    def _compute(self, state: DatasetState, canonical: GroupByAvgQuery,
                 plan, outcomes: dict | None = None
                 ) -> tuple[ExplanationSummary, ScanPlan | None]:
        """The summary and the ``ScanPlan`` its view's WHERE scan executed."""
        with self._flights_lock:
            self._computations += 1
        view = self._view(state, canonical)
        population = self._population(state, plan, view, outcomes)
        algorithm = CauSumX(state.table, state.dag, state.config)
        with trace.trace_span("engine.mine",
                              groups=view.m) if trace.enabled() else trace.NOOP:
            summary = algorithm.explain(
                canonical,
                grouping_attributes=state.grouping_attributes,
                treatment_attributes=state.treatment_attributes,
                view=view, estimator=population.estimator)
        return summary, view.scan_plan

    def _view(self, state: DatasetState,
              canonical: GroupByAvgQuery) -> AggregateView:
        with trace.trace_span("engine.view_materialize", dataset=state.name):
            return AggregateView(state.table, canonical,
                                 mask_cache=self._where_mask_cache(state))

    def _where_mask_cache(self, state: DatasetState) -> MaskCache:
        """The per-dataset-version mask cache WHERE conjuncts route through.

        Different queries over one dataset repeat the same WHERE predicates;
        routing the scan through a shared
        :class:`~repro.dataframe.MaskCache` makes a repeated predicate one
        cached AND instead of a kernel pass.  (Storage-backed tables skip it
        in ``plan_shard_select``: full-table masks would decode the shards
        their zone maps skip.)

        The cache is bounded: each entry is one ``n_rows``-byte mask, so
        once a workload of ever-distinct predicates pushes past
        ``WHERE_MASK_CACHE_LIMIT`` entries the cache is flushed rather than
        allowed to grow for the life of the process (unlike the LRU levels,
        masks are cheap to recompute and expensive to keep).
        """
        with self._datasets_lock:
            epoch, cache = self._where_masks.get(state.name, ((-1, -1), None))
            if epoch == state.epoch:
                if len(cache) > WHERE_MASK_CACHE_LIMIT:
                    cache.clear()
                return cache
            if epoch > state.epoch:
                # A reader still mid-flight on an older epoch (a newer reader
                # already replaced or extended the cache): serve it a private
                # throwaway cache instead of clobbering the warm entry.
                return MaskCache(state.table)
            if _extends(epoch, state) and len(cache) <= WHERE_MASK_CACHE_LIMIT:
                cache = cache.extended(state.table)  # inherit the older masks
            else:
                cache = MaskCache(state.table)
            self._where_masks[state.name] = (state.epoch, cache)
            return cache

    def _population(self, state: DatasetState, plan, view: AggregateView,
                    outcomes: dict | None = None) -> _Population:
        """The request's population, extending one cached at an older version.

        Within one registration only appends happen, so ``view.table`` is
        the cached population's table followed by the appended rows that
        pass the WHERE clause: the new estimator inherits the old masks.  An
        entry of another registration is a miss.  A reader on an older epoch
        than the cached entry builds a private population and never replaces
        the newer one.
        """
        key = (state.name, plan.where_key, plan.average)
        cached = self._population_cache.get(key)
        if cached is not None and cached.epoch == state.epoch:
            if outcomes is not None:
                outcomes["population"] = "hit"
            return cached
        carried = cached is not None and _extends(cached.epoch, state)
        if outcomes is not None:
            outcomes["population"] = "hit" if carried else "miss"
        estimator = self._make_estimator(state, view.table, plan.average)
        old_masks = cached.estimator.mask_cache if carried else None
        if old_masks is not None and estimator.mask_cache is not None:
            estimator.mask_cache = old_masks.extended(view.table)
        population = _Population(plan.filter, estimator, state.epoch)
        if cached is None or cached.epoch < state.epoch:
            self._population_cache.put(
                key, population,
                keep=lambda current: current.epoch >= state.epoch)
        return population

    @staticmethod
    def _make_estimator(state: DatasetState, table: Table,
                        average: str) -> CATEEstimator:
        return CauSumX.build_estimator(table, average, state.dag, state.config)

    def _invalidate(self, name: str) -> int:  # guarded-by: _datasets_lock
        """Drop every cache entry belonging to dataset ``name`` (any version).

        A re-registered table need not extend the old one; a reader still on
        the old registration may put an entry back, but its older epoch
        makes it a miss for the new registration (:func:`_extends`)."""
        invalidated = 0
        for cache in (self._summary_cache, self._population_cache):
            invalidated += cache.purge(lambda key: key[0] == name)
        self._where_masks.pop(name, None)
        return invalidated


def _summary_nbytes(entry: EncodedSummary) -> int:
    """Approximate retained bytes of a summary: its codec size.

    Deterministic, cheap relative to computing a summary, proportional to
    what the cache keeps alive, and computed once: a snapshot writes the
    same bytes.
    """
    return len(entry.blob())
