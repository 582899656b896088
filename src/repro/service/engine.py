"""The explanation-serving engine: persistent state shared across queries.

A one-shot ``CauSumX(table, dag).explain(sql)`` call re-parses the SQL,
re-materialises the aggregate view, re-enumerates lattice atoms, and
re-evaluates every predicate mask from scratch.  :class:`ExplanationEngine`
is the long-lived alternative an interactive service needs: datasets are
registered once, queries are canonicalised and fingerprinted, and results are
served through a hierarchy of caches —

1. **plan cache** — SQL text → canonical
   :class:`~repro.sql.GroupByAvgQuery`, which carries its own
   ``fingerprint`` and ``where_key``;
2. **population memo** — one per data version (:class:`DatasetState`):
   (WHERE clause, outcome) → a :class:`~repro.causal.CATEEstimator` whose
   shared :class:`~repro.dataframe.MaskCache` and lattice-atom cache are
   reused by *every* query over that filtered population, whatever it
   groups by;
3. **summary cache** — fingerprint → finished
   :class:`~repro.core.ExplanationSummary` (LRU with hit/miss/eviction
   statistics, optionally capped in bytes).

Identical in-flight requests are *single-flighted*: concurrent callers with
the same fingerprint block on one computation and all receive the identical
summary object.

Distinct misses of one engine run one at a time: a flight leader computes
(view, population, mining) under the engine's compute gate.  Mining is a
Python loop over short numpy calls that each release the interpreter lock;
two interleaved misses hand it back and forth and both finish later than
the same two run back to back (the new-GIL convoy, CPython bpo-7946).  The
gate is per engine, so one tenant's long miss never queues another
tenant's.  Hits, coalesced followers, :meth:`~ExplanationEngine.append_rows`,
:meth:`~ExplanationEngine.explain_plan`, stats and snapshots never take it.
It is taken with no engine lock held, so it is the outermost edge of the
lock order.

Data is versioned: :meth:`append_rows` concatenates new rows onto a
registered table (merging dictionary vocabularies, see ``Table.concat``),
bumps the dataset's monotonic data version, and invalidates the summaries
tied to older versions.  The new :class:`DatasetState` inherits the old
one's memos: the WHERE memo is extended onto the new table, and each
cached population's masks wait in the new population memo until the first
request on that population extends them over its filtered rows
(:meth:`~repro.dataframe.MaskCache.extended`: a predicate mask is
evaluated on the appended rows only, on first lookup).  Every memo hangs
off the one state it belongs to, so a request still computing on an older
state never reads or replaces a newer one's, what it leaves behind goes
with that state, and a re-registration starts with none.

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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
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
from repro.dataframe import MaskCache, Table
from repro.graph import CausalDAG
from repro.obs import trace
from repro.obs.registry import REGISTRY, unified_engine_metrics
from repro.obs.telemetry import telemetry_enabled
from repro.parallel import GLOBAL_PARALLEL_STATS
from repro.plan import GLOBAL_PLANNER_STATS, ScanPlan
from repro.service.lru import LRUCache, LRUStats
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
#: Capacity of one data version's population memo: estimators, one per
#: (WHERE clause, outcome), and the masks an append carried in.
POPULATION_CACHE_SIZE = 32
#: Capacity of the plan cache: SQL text -> canonical query.
PLAN_CACHE_SIZE = 512
#: Kept for the e2e benchmark's span recorder, which rebinds this name to
#: time a lowering step the engine no longer has (its span reads 0).
lower_query = normalize_query


@contextmanager
def _holding(gate):
    """Hold an engine's compute gate; a contended wait is observed as
    ``repro_engine_compute_wait_seconds`` and the root trace attribute
    ``compute_wait_ms`` (an uncontended entry records nothing)."""
    queued_at = None
    if not gate.acquire(blocking=False):
        queued_at = time.perf_counter()
        gate.acquire()
    try:
        if queued_at is not None:
            waited = time.perf_counter() - queued_at
            REGISTRY.histogram(
                "repro_engine_compute_wait_seconds").observe(waited)
            trace.set_root_attr(compute_wait_ms=round(waited * 1000.0, 3))
        yield
    finally:
        gate.release()


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
    #: The WHERE memo this version's in-memory scans route repeated
    #: conjuncts through (engine-set: built at registration, extended onto
    #: the new table by each append).
    where_masks: MaskCache | None = field(default=None, compare=False)
    #: ``(where_key, average)`` -> this version's estimator for that
    #: filtered population, or the masks an append carried in for it.
    populations: LRUCache = field(
        default_factory=lambda: LRUCache(POPULATION_CACHE_SIZE),
        compare=False)

    def view(self, canonical: GroupByAvgQuery) -> AggregateView:
        """The query's view, its WHERE scan routed through this version's
        mask memo (a stored table skips it until its first append, see
        ``plan/execute.py``).

        The memo is bounded: each entry is one ``n_rows``-byte mask, so
        once ever-distinct predicates push it past
        ``WHERE_MASK_CACHE_LIMIT`` entries it is flushed (masks are cheap
        to recompute and expensive to keep).
        """
        if len(self.where_masks) > WHERE_MASK_CACHE_LIMIT:
            self.where_masks.clear()
        with trace.trace_span("engine.view_materialize", dataset=self.name):
            return AggregateView(self.table, canonical,
                                 mask_cache=self.where_masks)

    def explain(self, canonical: GroupByAvgQuery
                ) -> tuple[ExplanationSummary, ScanPlan | None, bool]:
        """The summary, the ``ScanPlan`` its WHERE scan executed, and whether
        the population memo held the query's population (a miss builds its
        estimator over any masks an append carried in: ``view.table`` is
        their table followed by the appended rows that pass the WHERE)."""
        view = self.view(canonical)
        key = (canonical.where_key, canonical.average)
        estimator = memo = self.populations.get(key)
        if not isinstance(memo, CATEEstimator):
            estimator = CauSumX.build_estimator(
                view.table, canonical.average, self.dag, self.config)
            if memo is not None:
                estimator.mask_cache = memo.extended(view.table)
            self.populations.put(key, estimator)
        algorithm = CauSumX(self.table, self.dag, self.config)
        with trace.trace_span("engine.mine",
                              groups=view.m) if trace.enabled() else trace.NOOP:
            summary = algorithm.explain(
                canonical,
                grouping_attributes=self.grouping_attributes,
                treatment_attributes=self.treatment_attributes,
                view=view, estimator=estimator)
        return summary, view.scan_plan, memo is not None

    def appended(self, table: Table) -> "DatasetState":
        """The next version, over ``table`` (this one's rows, then appended
        ones), inheriting this version's WHERE masks and, in LRU order, every
        cached population's masks."""
        populations = LRUCache(POPULATION_CACHE_SIZE)
        for key, memo in self.populations.items():
            populations.put(key, memo.mask_cache
                            if isinstance(memo, CATEEstimator) else memo)
        where = self.where_masks
        return replace(self, table=table, version=self.version + 1,
                       where_masks=where.extended(table)
                       if len(where) <= WHERE_MASK_CACHE_LIMIT
                       else MaskCache(table),
                       populations=populations)

    def release_bindings(self) -> int:
        """Release this version's estimators' bindings; returns how many."""
        return sum(memo.release_bindings()
                   for _, memo in self.populations.items()
                   if isinstance(memo, CATEEstimator))


@dataclass
class _Flight:
    """Bookkeeping for one in-flight summary computation (single-flight)."""

    done: threading.Event = field(default_factory=threading.Event)
    entry: EncodedSummary | None = None
    error: BaseException | None = None


class ExplanationEngine:
    """Serves explanation summaries for registered datasets, statefully.

    Parameters
    ----------
    summary_cache_size:
        Capacity of the summary cache (the plan cache holds
        ``PLAN_CACHE_SIZE`` entries, each version's population memo
        ``POPULATION_CACHE_SIZE``).
    summary_cache_bytes:
        Optional byte cap of the summary cache: it weighs its entries
        (codec and body bytes) and evicts least-recently-used ones to stay
        under the cap.
    max_workers:
        Ignored; accepted for benchmarks/e2e/workloads.py (ENGINE_KWARGS).
    """

    def __init__(self, summary_cache_size: int = 256,
                 summary_cache_bytes: int | None = None,
                 max_workers: int | None = None):
        self._datasets_lock = named_lock("ExplanationEngine._datasets_lock")
        self._datasets: dict[str, DatasetState] = {}  # guarded-by: _datasets_lock
        # Serialises mutations (append_rows) without blocking readers: the
        # heavy table/mask construction happens under this lock only, while
        # _datasets_lock is held just for the snapshot and the final swap.
        self._mutation_lock = named_lock("ExplanationEngine._mutation_lock")
        # Serialises this engine's summary computations (module docstring).
        self._compute_gate = named_lock("ExplanationEngine._compute_gate")
        self._plan_cache = LRUCache(PLAN_CACHE_SIZE)
        self._summary_cache = LRUCache(
            summary_cache_size, max_bytes=summary_cache_bytes,
            weigher=_summary_nbytes if summary_cache_bytes is not None
            else None)
        # Values are EncodedSummary entries: restored ones decode on first hit.
        self._flights: dict[tuple, _Flight] = {}  # guarded-by: _datasets_lock
        # Population-memo counters of replaced states (stats never go back).
        self._retired = dict.fromkeys(  # guarded-by: _datasets_lock
            ("hits", "misses", "evictions", "invalidations"), 0)
        self._computations = 0  # guarded-by: _datasets_lock
        self._coalesced = 0  # guarded-by: _datasets_lock
        self._store = None  # DatasetStore when built via from_store
        self._restored_summaries = 0  # guarded-by: _datasets_lock
        self._summaries_rejected = 0  # guarded-by: _datasets_lock
        # HTTP-tier metrics hook (repro.net): attached once before serving
        # starts, read-only afterwards, so no lock is needed.
        self._http_metrics = None
        # Query-telemetry sink (repro.obs): from_store sets the store's log
        # before serving starts, read-only afterwards, so no lock is needed.
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
        must line up with restored cache keys; a re-registration may pin
        only a larger one); ``store`` attaches a
        :class:`~repro.storage.StoredDataset` for durable appends.
        """
        with self._mutation_lock, self._datasets_lock:
            previous = self._datasets.get(name)
            if version is None:
                version = previous.version + 1 if previous is not None else 0
            elif previous is not None and version <= previous.version:
                raise ValueError(
                    f"cannot re-register {name!r} at version {version}: it "
                    f"is registered at version {previous.version}")
            state = DatasetState(
                name=name, table=table, dag=dag,
                config=config or CauSumXConfig(),
                grouping_attributes=tuple(grouping_attributes)
                if grouping_attributes is not None else None,
                treatment_attributes=tuple(treatment_attributes)
                if treatment_attributes is not None else None,
                version=version,
                store=store,
                where_masks=MaskCache(table),
            )
            self._datasets[name] = state
            if previous is not None:
                self._summary_cache.purge(lambda key: key[0] == name)
                self._retire(previous)
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
        body is decoded on its first hit, or at restore when a byte cap
        weighs it), so repeated queries after a restart are served
        from cache, byte-identical to the summaries computed before the
        restart.
        """
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
            dag = CausalDAG.from_dict(entry["dag"]) if entry.get("dag") else None
            config = config_from_dict(entry["config"]) \
                if entry.get("config") else None
            engine.register_dataset(
                name, stored.load_table(), dag=dag, config=config,
                grouping_attributes=entry.get("grouping_attributes"),
                treatment_attributes=entry.get("treatment_attributes"),
                version=stored.manifest.version, store=stored)
        restored = rejected = 0
        for key, entry in store.load_summaries():
            name, version = key[0], key[1]
            with engine._datasets_lock:
                state = engine._datasets.get(name)
            if state is not None and state.version == version:
                try:
                    engine._summary_cache.put(key, entry)
                except SummaryCodecError:  # the byte cap decoded a bad body
                    rejected += 1
                    continue
                restored += 1
        with engine._datasets_lock:
            engine._restored_summaries = restored
            engine._summaries_rejected = rejected
        return engine

    def snapshot(self) -> dict:
        """Persist registrations + summary cache to the backing store.

        Only available on engines built via :meth:`from_store` (and not
        since detached).  Returns the persisted entry counts.
        """
        if self._store is None:
            raise ValueError("engine has no backing store; build it with "
                             "ExplanationEngine.from_store")
        return self._store.snapshot(self)

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

    def explain(self, name: str,
                query: GroupByAvgQuery | str) -> ExplanationSummary:
        """Serve one explanation summary (cached, single-flighted)."""
        return self.explain_with_info(name, query)[0]

    def explain_with_info(self, name: str, query: GroupByAvgQuery | str
                          ) -> tuple[ExplanationSummary, dict]:
        """Like :meth:`explain` but also return serving metadata.

        The info dictionary reports the query ``fingerprint``, the dataset
        ``version`` served, wall-clock ``seconds``, whether the summary came
        from the cache (``cached``) or from another thread's concurrent
        computation (``coalesced``), and the summary-cache ``entry``
        (:class:`~repro.core.EncodedSummary`) whose presentation body the
        serving fronts send, encoded once per entry.
        """
        start = time.perf_counter()
        # Observability rides along only when someone is listening: outcomes
        # stays None on the default path, so serving allocates nothing extra.
        telemetered = self._telemetry is not None and telemetry_enabled()
        outcomes = {} if (telemetered or trace.enabled()) else None
        with trace.trace_span("engine.explain", dataset=name) as span:
            entry, info, canonical, scan_plan = self._explain_serve(
                name, query, outcomes, start)
        if telemetered:
            self._record_telemetry(info, outcomes, span, canonical, scan_plan)
        info["entry"] = entry
        return entry.summary(), info

    def _explain_serve(self, name: str, query: GroupByAvgQuery | str,
                       outcomes: dict | None, start: float
                       ) -> tuple[EncodedSummary, dict, GroupByAvgQuery,
                                  ScanPlan | None]:
        """The serving core of :meth:`explain_with_info`.

        ``outcomes`` (when not ``None``) collects per-cache-level hit/miss
        outcomes for the telemetry record as serving passes each level.  The
        fourth element is the :class:`~repro.plan.ScanPlan` this request
        executed — ``None`` when it executed none (summary hit, coalesced
        follower, WHERE-less query).
        """
        state = self.dataset_state(name)
        # The canonical query's fingerprint is the cache key (two spellings
        # of one question share it).
        canonical = self._canonical(query, outcomes)
        fingerprint = canonical.fingerprint
        key = (name, state.version, fingerprint)
        info = {"dataset": name, "version": state.version,
                "fingerprint": fingerprint, "cached": False, "coalesced": False}

        entry = self._cached_entry(key)
        if entry is not None:
            if outcomes is not None:
                outcomes["summary"] = "hit"
            info["cached"] = True
            info["seconds"] = time.perf_counter() - start
            return entry, info, canonical, None
        if outcomes is not None:
            outcomes["summary"] = "miss"

        while True:
            with self._datasets_lock:
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = _Flight()
                    self._flights[key] = flight
            if leader:
                if outcomes is not None:
                    outcomes["flight"] = "leader"
                try:
                    with _holding(self._compute_gate):
                        summary, scan_plan = self._compute(
                            state, canonical, outcomes)
                    entry = EncodedSummary(summary)
                    self._cache_entry(state, key, entry)
                    flight.entry = entry
                except BaseException as exc:
                    flight.error = exc
                    raise
                finally:
                    with self._datasets_lock:
                        self._flights.pop(key, None)
                    flight.done.set()
                info["seconds"] = time.perf_counter() - start
                return entry, info, canonical, scan_plan
            flight.done.wait()
            if flight.error is None and flight.entry is not None:
                with self._datasets_lock:
                    self._coalesced += 1
                if outcomes is not None:
                    outcomes["flight"] = "coalesced"
                info["coalesced"] = True
                info["seconds"] = time.perf_counter() - start
                return flight.entry, info, canonical, None
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

    def explain_plan(self, name: str, query: GroupByAvgQuery | str) -> dict:
        """Describe how one query would execute, without mining treatments.

        Returns the query's logical plan and what the WHERE scan measured:
        shards skipped by zone map and scanned, rows in and out.  The scan
        really runs — that is where the counts come from.
        """
        state = self.dataset_state(name)
        canonical = self._canonical(query)
        view = state.view(canonical)
        scan = view.scan_plan.to_dict() if view.scan_plan is not None else None
        return {
            "dataset": name,
            "version": state.version,
            "fingerprint": canonical.fingerprint,
            "sql": canonical.to_sql(),
            "logical_plan": canonical.logical_plan,
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
        re-factorization of the existing rows).  The old data version's
        summaries are invalidated; the new state inherits its WHERE memo
        and its populations' masks (:meth:`DatasetState.appended`), to be
        *extended* on first use (``masks_carried`` counts the carried
        population masks), so nothing here scans the table.  The old
        estimators' bindings, which no request on the new version can
        reuse, are released.  A batch of zero rows —
        ``[]`` or an empty :class:`Table` — changes nothing.

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

            # Durability first: a store-backed dataset commits the batch as a
            # new shard (atomic manifest replace) *before* the in-memory swap,
            # so a crash after this point replays cleanly from disk and a
            # crash before it changes nothing.  The batch is sliced from the
            # concatenated table so its columns carry the merged vocabularies.
            if state.store is not None:
                batch = new_table.take(
                    np.arange(state.table.n_rows, new_table.n_rows))
                state.store.append(batch, expected_version=state.version)

            new_state = state.appended(new_table)
            masks_carried = sum(len(masks) for _, masks
                                in new_state.populations.items())
            with self._datasets_lock:
                invalidated = self._summary_cache.purge(
                    lambda key: key[0] == name)
                self._datasets[name] = new_state
                self._retire(state)
            # The next request builds a fresh estimator over the carried
            # masks, so no old binding is reachable from it.
            REGISTRY.counter("repro_engine_bindings_released_total").inc(
                state.release_bindings())
            return {"dataset": name, "version": new_state.version,
                    "appended_rows": appended.n_rows,
                    "n_rows": new_table.n_rows,
                    "invalidated": invalidated,
                    "masks_carried": masks_carried}

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        """A JSON-compatible snapshot of all cache levels and serving counters."""
        with self._datasets_lock:
            states = list(self._datasets.values())
            retired = dict(self._retired)
            computations = self._computations
            coalesced = self._coalesced
            restored_summaries = self._restored_summaries
            summaries_rejected = self._summaries_rejected
        datasets = {
            state.name: {"version": state.version,
                         "rows": state.table.n_rows,
                         "attributes": state.table.n_cols}
            for state in states
        }
        # The cached populations' masks, and those an append carried in.
        caches = [memo.mask_cache if isinstance(memo, CATEEstimator) else memo
                  for state in states for _, memo in state.populations.items()]
        mask_stats = _summed([asdict(cache.stats()) for cache in caches],
                             ("hits", "misses", "entries", "bytes"))
        # Every version's population memo, plus the replaced versions'.
        populations = LRUStats(**_summed(
            [retired, *(asdict(state.populations.stats()) for state in states)],
            ("hits", "misses", "evictions", "invalidations", "entries",
             "capacity", "bytes")))

        def level(snapshot: LRUStats) -> dict:
            return {**asdict(snapshot), "hit_rate": round(snapshot.hit_rate, 4)}

        storage: dict = {}
        for state in states:
            entry: dict = {}
            if state.store is not None:
                entry.update(state.store.stats())
            scan_stats = getattr(state.table, "scan_stats", None)
            if callable(scan_stats):
                entry["scan"] = scan_stats()
            if entry:
                storage[state.name] = entry
        planner = {
            **GLOBAL_PLANNER_STATS.snapshot(),
            "where_mask_caches": {state.name: asdict(state.where_masks.stats())
                                  for state in states},
        }
        result = {
            "datasets": datasets,
            "planner": planner,
            # Per-shard loop batches and morsels run.
            "parallel": GLOBAL_PARALLEL_STATS.snapshot(),
            "plan_cache": level(self._plan_cache.stats()),
            "population_cache": level(populations),
            "summary_cache": level(self._summary_cache.stats()),
            "mask_caches": mask_stats,
            "computations": computations,
            "coalesced": coalesced,
        }
        if storage:
            result["storage"] = storage
            result["restored_summaries"] = restored_summaries
            result["summaries_rejected"] = summaries_rejected
        if self._summary_cache.max_bytes is not None:
            result["memory_budget"] = self._summary_cache.byte_cap_stats()
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
        with self._datasets_lock:
            return self._computations

    # ------------------------------------------------------------------ internals

    def _cached_entry(self, key: tuple) -> EncodedSummary | None:
        """The cache entry for ``key``, its restored body decoded.

        A restored body that fails to decode or schema-check is dropped
        and counted; the request proceeds as a miss.
        """
        entry = self._summary_cache.get(key)
        if entry is None:
            return None
        try:
            entry.summary()
            return entry
        except SummaryCodecError:
            self._summary_cache.purge(lambda k: k == key)
            with self._datasets_lock:
                self._summaries_rejected += 1
            return None

    def _cache_entry(self, state: DatasetState, key: tuple,
                     entry: EncodedSummary) -> None:
        """Cache a computed summary's entry while ``state`` is still its
        dataset's current version.

        An append or re-registration that swapped ``state`` out while the
        entry was computed has already purged that version's keys; the put
        is undone under the lock the swap holds, so no stale entry keeps a
        slot or reaches a snapshot.  The entry is also served uncached when
        the byte cap must weigh it and the codec cannot encode it (a group
        or predicate value JSON has no form for).
        """
        try:
            self._summary_cache.put(key, entry)
        except SummaryCodecError:
            return
        with self._datasets_lock:
            if self._datasets.get(state.name) is not state:
                self._summary_cache.purge(lambda k: k == key)

    def _canonical(self, query: GroupByAvgQuery | str,
                   outcomes: dict | None = None) -> GroupByAvgQuery:
        """The canonical query, memoised by SQL text: a repeated text skips
        parsing, normalising and hashing."""
        if not isinstance(query, str):
            return normalize_query(query)
        canonical = self._plan_cache.get(query)
        if outcomes is not None:
            outcomes["plan"] = "miss" if canonical is None else "hit"
        if canonical is None:
            canonical = normalize_query(parse_query(query))
            self._plan_cache.put(query, canonical)
        return canonical

    def _compute(self, state: DatasetState, canonical: GroupByAvgQuery,
                 outcomes: dict | None = None
                 ) -> tuple[ExplanationSummary, ScanPlan | None]:
        """The summary and the ``ScanPlan`` its view's WHERE scan executed."""
        with self._datasets_lock:
            self._computations += 1
        summary, scan_plan, hit = state.explain(canonical)
        if outcomes is not None:
            outcomes["population"] = "hit" if hit else "miss"
        return summary, scan_plan

    def _retire(self, state: DatasetState) -> None:  # guarded-by: _datasets_lock
        """Fold a replaced state's population-memo counts into the engine's,
        its entries as invalidations."""
        snapshot = asdict(state.populations.stats())
        snapshot["invalidations"] += snapshot["entries"]
        for name in self._retired:
            self._retired[name] += snapshot[name]


def _summed(parts: list[dict], names: Sequence[str]) -> dict:
    """Field-wise sums of stats snapshots (a field a part lacks counts 0)."""
    return {name: sum(part.get(name, 0) for part in parts) for name in names}


def _summary_nbytes(entry: EncodedSummary) -> int:
    """Approximate retained bytes of a summary: its codec size plus its
    presentation body's.

    Deterministic, cheap relative to computing a summary, proportional to
    what the cache keeps alive, and computed once: a snapshot writes the
    same codec bytes, a response the same body.  A restored entry is
    therefore decoded when it is weighed, at restore.
    """
    return len(entry.blob()) + len(entry.body())
