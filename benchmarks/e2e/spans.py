"""The benchmark's own span recorder: outside-in wrappers around each layer.

Nothing under ``src/`` changes.  :func:`install` rebinds the *consumer's*
name of every layer entry point (``repro.core.causumx.mine_top_treatment``,
``CATEEstimator.estimate_many``, …) to a wrapper that records one span per
call — ``[name, layer, start_ns, end_ns, parent, request, value]`` — while a
benchmark request is active on the calling thread, and is a plain call
otherwise (set-up and the oracle run unrecorded).  Spans stay in memory and
are folded after the pass.

Two hand-offs cross threads and are carried explicitly: ``map_morsels``
hands its span to the pool workers that run its morsels, and the HTTP
handler thread finds its request's root span through the ``X-Bench-Request``
header the load generator sends.

**Self time.**  :func:`fold` sweeps each request's spans along the clock: at
every instant the wall belongs to the deepest active span, and when the pool
runs several spans at once they share it equally.  For serial code this is
the usual "duration minus the part covered by child spans"; with parallel
children it keeps the defining property that a request's self times sum to
its root span's wall exactly, so layer shares are shares of what the caller
waited for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager

SPAN_FIELDS = ("name", "layer", "start_ns", "end_ns", "parent", "request",
               "value")
REQUEST_HEADER = "X-Bench-Request"

# (consumer module, attribute, span name, layer, value-of-result or None)
_FUNCTIONS = (
    ("repro.service.engine", "parse_query", "sql.parse", "sql", None),
    ("repro.core.causumx", "parse_query", "sql.parse", "sql", None),
    ("repro.service.engine", "normalize_query", "sql.normalize", "sql", None),
    ("repro.service.engine", "lower_query", "plan.lower", "plan", None),
    ("repro.sql.view", "planned_select_with_plan", "plan.scan", "plan", None),
    ("repro.plan.execute", "scan_indices", "plan.scan_indices", "plan", None),
    ("repro.storage.dataset", "scan_indices", "plan.scan_indices", "plan",
     None),
    ("repro.core.causumx", "grouping_attribute_partition",
     "dataframe.partition", "dataframe", None),
    ("repro.core.causumx", "mine_grouping_patterns", "mining.grouping",
     "mining", len),
    ("repro.core.causumx", "mine_top_treatment", "mining.treatment",
     "mining", None),
    ("repro.core.causumx", "solve_lp_relaxation", "optimize.lp", "optimize",
     None),
    ("repro.core.causumx", "randomized_rounding", "optimize.rounding",
     "optimize", None),
    ("repro.service.server", "summary_to_dict", "core.serialize", "core",
     None),
    ("repro.net.server", "dispatch_request", "service.dispatch", "service",
     lambda response: response.get("cached")),
)

# (module, class, method, span name, layer, value-of-result or None)
_METHODS = (
    ("repro.sql.view", "AggregateView", "__init__", "sql.view", "sql", None),
    ("repro.causal.estimators", "CATEEstimator", "bind", "causal.bind",
     "causal", None),
    ("repro.causal.estimators", "CATEEstimator", "estimate_many",
     "causal.estimate_many", "causal", None),
    ("repro.causal.estimators", "BoundSubpopulation", "estimate",
     "causal.fit", "causal", None),
    ("repro.service.engine", "ExplanationEngine", "explain_with_info",
     "service.explain", "service", lambda result: result[1]["cached"]),
    ("repro.service.engine", "ExplanationEngine", "append_rows",
     "service.append", "service", None),
    ("repro.service.engine", "ExplanationEngine", "snapshot",
     "service.snapshot", "service", None),
    ("repro.service.engine", "ExplanationEngine", "from_store",
     "service.from_store", "service", None),
    ("repro.storage.store", "DatasetStore", "compact", "storage.compact",
     "storage", None),
    ("repro.storage.store", "DatasetStore", "snapshot", "storage.snapshot",
     "storage", None),
    ("repro.storage.store", "DatasetStore", "load_summaries",
     "storage.load_summaries", "storage", None),
    ("repro.storage.dataset", "StoredDataset", "load_table",
     "storage.load_table", "storage", None),
    ("repro.storage.dataset", "StoredDataset", "append", "storage.append",
     "storage", None),
    ("repro.storage.dataset", "_ShardHandle", "decoded", "storage.decode",
     "storage", None),
)

_MAP_MORSELS_CONSUMERS = ("repro.storage.dataset",)


class SpanRecorder:
    """In-memory span store plus the per-thread "current span" cursor."""

    def __init__(self):
        self.spans: list[list] = []
        # Mask-cache traffic of every CATEEstimator a request used, added
        # when the request ends; no estimator outlives its request here.
        self.mask_hits = self.mask_misses = 0
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._request_ids = itertools.count(1)
        self._roots: dict[int, int] = {}  # request id -> root span index
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, layer: str, parent, request
              ) -> tuple[int, list]:
        record = [name, layer, 0, 0, parent, request, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        return index, record

    @contextmanager
    def request(self, kind: str):
        """Root span of one benchmark request on the calling thread; its
        value is the request ``kind``."""
        tls = self._tls
        request = next(self._request_ids)
        index, record = self._open("request", "root", None, request)
        record[6] = kind
        self._roots[request] = index
        tls.request, tls.current = request, index
        tls.estimators = {}  # id -> (estimator, hits, misses at first sight)
        record[2] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            tls.request = tls.current = None
            used = [(estimator.cache_stats(), hits, misses)
                    for estimator, hits, misses in tls.estimators.values()]
            tls.estimators = None
            with self._lock:
                for stats, hits, misses in used:
                    self.mask_hits += stats.hits - hits
                    self.mask_misses += stats.misses - misses

    def current_request(self) -> int | None:
        return getattr(self._tls, "request", None)

    def wrap(self, fn, name: str, layer: str, value=None):
        tls, clock = self._tls, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = getattr(tls, "request", None)
            if request is None:
                return fn(*args, **kwargs)
            parent = tls.current
            index, record = self._open(name, layer, parent, request)
            tls.current = index
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    record[6] = value(result)
                return result
            finally:
                record[3] = clock()
                tls.current = parent

        return wrapper

    def _wrap_map_morsels(self, original):
        """``map_morsels`` span whose morsels attach from the pool threads."""
        tls, clock = self._tls, time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(fn, items):
            request = getattr(tls, "request", None)
            if request is None:
                return original(fn, items)
            parent = tls.current
            index, record = self._open("parallel.map_morsels", "parallel",
                                       parent, request)

            def carried(item):
                before = (getattr(tls, "request", None),
                          getattr(tls, "current", None))
                tls.request, tls.current = request, index
                try:
                    return fn(item)
                finally:
                    tls.request, tls.current = before

            tls.current = index
            record[2] = clock()
            try:
                return original(carried, items)
            finally:
                record[3] = clock()
                tls.current = parent

        return wrapper

    def _wrap_do_post(self, original):
        """Server-side half of an HTTP request, joined to the client's root."""
        tls, clock = self._tls, time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(handler):
            header = handler.headers.get(REQUEST_HEADER)
            root = self._roots.get(int(header)) if header else None
            if root is None:
                return original(handler)
            request = int(header)
            index, record = self._open("net.handle", "net", root, request)
            tls.request, tls.current = request, index
            record[2] = clock()
            try:
                return original(handler)
            finally:
                record[3] = clock()
                tls.request = tls.current = None

        return wrapper

    def _remember_estimator(self, original):
        @functools.wraps(original)
        def wrapper(estimator, *args, **kwargs):
            seen = getattr(self._tls, "estimators", None)
            if seen is not None and id(estimator) not in seen:
                stats = estimator.cache_stats()
                if stats is not None:
                    seen[id(estimator)] = (estimator, stats.hits,
                                           stats.misses)
            return original(estimator, *args, **kwargs)

        return wrapper

    # -- install --------------------------------------------------------------

    def _rebind(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute,
                           inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Rebind every wrapped entry point (:meth:`uninstall` restores)."""
        for module, attribute, name, layer, value in _FUNCTIONS:
            owner = importlib.import_module(module)
            self._rebind(owner, attribute,
                         self.wrap(getattr(owner, attribute), name, layer,
                                   value))
        for module, cls, attribute, name, layer, value in _METHODS:
            owner = getattr(importlib.import_module(module), cls)
            static = inspect.getattr_static(owner, attribute)
            if isinstance(static, classmethod):
                wrapped = classmethod(self.wrap(static.__func__, name, layer,
                                                value))
            else:
                function = static
                if attribute == "estimate_many":
                    function = self._remember_estimator(function)
                wrapped = self.wrap(function, name, layer, value)
            self._rebind(owner, attribute, wrapped)
        for module in _MAP_MORSELS_CONSUMERS:
            owner = importlib.import_module(module)
            self._rebind(owner, "map_morsels",
                         self._wrap_map_morsels(owner.map_morsels))
        handler = importlib.import_module("repro.net.server")._Handler
        self._rebind(handler, "do_POST", self._wrap_do_post(handler.do_POST))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- fold


def fold(spans: list[list]) -> list[dict]:
    """Per-request ledger: wall, self time per layer and per span name.

    Returns one dict per request, in request order::

        {"request": id, "kind": root value, "wall_ns": ...,
         "self_ns": {layer: ns}, "name_self_ns": {span name: ns},
         "count": {span name: calls}, "duration_ns": {span name: [ns, ...]},
         "values": {span name: [value or None, ...]}}

    ``values`` is aligned with ``duration_ns``.
    """
    by_request: dict[int, list[int]] = {}
    for index, record in enumerate(spans):
        by_request.setdefault(record[5], []).append(index)
    ledgers = []
    for request in sorted(by_request):
        indices = by_request[request]
        root = spans[indices[0]]
        # Only the root's wall is divided: the HTTP handler's span outlives
        # the client's round trip by its post-response bookkeeping.
        begin, finish = root[2], root[3]
        events = []
        for index in indices:
            record = spans[index]
            events.append((min(max(record[2], begin), finish), 1, index))
            events.append((min(max(record[3], begin), finish), 0, index))
        events.sort()
        active: set[int] = set()
        children = dict.fromkeys(indices, 0)
        self_ns = dict.fromkeys(indices, 0.0)
        previous = events[0][0]
        for moment, opening, index in events:
            elapsed = moment - previous
            if elapsed:
                leaves = [i for i in active if children[i] == 0]
                if leaves:
                    share = elapsed / len(leaves)
                    for leaf in leaves:
                        self_ns[leaf] += share
                previous = moment
            parent = spans[index][4]
            if opening:
                active.add(index)
                if parent in children:
                    children[parent] += 1
            else:
                active.discard(index)
                if parent in children:
                    children[parent] -= 1
        ledger = {"request": request, "kind": root[6],
                  "wall_ns": root[3] - root[2], "self_ns": {},
                  "name_self_ns": {}, "count": {}, "duration_ns": {},
                  "values": {}}
        for index in indices:
            name, layer, start, end, _, _, value = spans[index]
            ledger["self_ns"][layer] = \
                ledger["self_ns"].get(layer, 0.0) + self_ns[index]
            ledger["name_self_ns"][name] = \
                ledger["name_self_ns"].get(name, 0.0) + self_ns[index]
            ledger["count"][name] = ledger["count"].get(name, 0) + 1
            ledger["duration_ns"].setdefault(name, []).append(end - start)
            ledger["values"].setdefault(name, []).append(value)
        ledgers.append(ledger)
    return ledgers
