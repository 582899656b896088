"""The four request-level workloads and their seeded input generators.

Every workload is a closed loop: the next request is issued only after the
previous one completed.  ``cold_explain``, ``store_restart`` and
``append_explain`` have one caller (the runner process itself is the
process under test); ``serve_http`` has two client threads — one per CPU of
the reference host — against a ``python -m repro serve`` child process.

Inputs come from ``--seed`` alone: the generated tables, the appended
batches (``seed + 1``), the order queries are drawn in, and each HTTP
client's hit/miss/append schedule.  The program only ever sees the
generated tables, rows and SQL text.

**Equal work.**  A timed block is a fixed number of whole rounds
(``Scale.block_cap``) under a time cap, not a time filled with however many
rounds the program's speed allows: a faster program ends a run sooner, on
the same table, having drawn the same queries.  Everything finite a phase
draws from — the query pool, the rows to append — is checked against that
fixed demand in ``build``, so running dry is a construction-time error that
names both numbers, never a crash in the fourth block.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core import CauSumX, CauSumXConfig
from repro.datasets import load_dataset
from repro.datasets.accidents import CITIES, WEATHER
from repro.mining.treatments import TreatmentMinerConfig
from repro.parallel import GLOBAL_PARALLEL_STATS
from repro.plan import GLOBAL_PLANNER_STATS
from repro.service import ExplanationEngine
from repro.storage import DatasetStore

from spans import REQUEST_HEADER

SRC = Path(__file__).resolve().parents[2] / "src"

# The paper-default configuration of benchmarks/conftest.bench_config
# (test_contract.py asserts the two stay equal).
CONFIG = CauSumXConfig(
    k=5, theta=0.75, apriori_threshold=0.1, sample_size=None,
    min_group_size=10,
    treatment=TreatmentMinerConfig(max_levels=2, min_group_size=10,
                                   significance_level=0.05,
                                   max_values_per_attribute=10))

# Engine and server settings are the CLI's defaults (`repro serve`).
ENGINE_KWARGS = {"max_workers": 4, "summary_cache_size": 256}
SERVER_KWARGS = {"max_inflight": 8, "max_queue": 64}

DATASET = "accidents"
COLD_DATASET = "cps"
GROUPABLE = ("Weather", "Temperature", "Visibility", "TrafficSignal",
             "TrafficCalming", "RoadType", "RushHour", "Daylight")
#: Blocks of a timed phase: equal shares of the rounds and of the seconds.
BLOCKS = 5


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what BENCHMARK.json measures; ``SMOKE`` is
    the contract test's (same code paths, ~1/50 of the work)."""

    cold_rows: int          # cps rows of cold_explain
    store_rows: int         # accidents rows of store_restart / append_explain
    http_rows: int          # accidents rows of serve_http
    base_rows: int          # most accidents rows generated; more are resampled
    shards: int             # import shard count
    append_rows: int        # rows per append_explain append
    http_append_rows: int   # rows per serve_http append
    cycles_per_maintenance: int  # append_explain: snapshot+compact+reopen
    warmup_cycles: int      # discarded ops/cycles before the timed phase
    # Whole rounds that end a timed block (requests per client for
    # serve_http), by workload name; README "Equal work" has the rule.
    block_cap: dict[str, int]
    stackoverflow_rows: int  # the cold explains reported beside the trace
    stackoverflow_reps: int

    def rounds(self, workload: str) -> int:
        """Rounds an untraced run of ``workload`` performs when every block
        ends by cap; both passes of a traced run together stay below it."""
        return self.warmup_cycles + BLOCKS * self.block_cap[workload]


FULL = Scale(cold_rows=20_000, store_rows=200_000, http_rows=50_000,
             base_rows=50_000, shards=32, append_rows=500,
             http_append_rows=20, cycles_per_maintenance=20, warmup_cycles=5,
             block_cap={"cold_explain": 32, "store_restart": 30,
                        "append_explain": 36, "serve_http": 75},
             stackoverflow_rows=2000, stackoverflow_reps=3)
SMOKE = Scale(cold_rows=400, store_rows=2000, http_rows=2000, base_rows=2000,
              shards=4, append_rows=50, http_append_rows=5,
              cycles_per_maintenance=2, warmup_cycles=1,
              block_cap={"cold_explain": 4, "store_restart": 2,
                         "append_explain": 2, "serve_http": 6},
              stackoverflow_rows=200, stackoverflow_reps=1)


class Sample(NamedTuple):
    """One operation as the caller saw it."""

    kind: str        # explain | append | open | snapshot | compact
    seconds: float
    ok: bool
    result: object   # summary / raw response bytes / exception text
    sql: str | None = None
    rows: int | None = None     # table rows the explain was answered on
    cached: bool | None = None
    nbytes: int | None = None   # HTTP response body size


def timed(kind: str, call, recorder=None, **meta) -> Sample:
    """Run one operation under the clock (and under a root span if traced)."""
    scope = recorder.request(kind) if recorder is not None else nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            result = call()
        ok = True
    except Exception:  # noqa: BLE001 — a failed op is a counted outcome
        result, ok = traceback.format_exc(), False
    return Sample(kind, time.perf_counter() - start, ok, result, **meta)


# ---------------------------------------------------------------------- inputs


def accidents_inputs(seed: int, rows: int, base_rows: int):
    """``(bundle, table)`` of ``rows`` generated rows, or — above
    ``base_rows`` — a seeded resample of a ``base_rows``-row generated base.

    ``make_accidents`` draws weather row by row in Python (~30 µs/row, 6 s
    for the 200 000-row store); the resample keeps every conditional
    distribution and keeps set-up time the program's import/compact/open work
    rather than the generator's loop.
    """
    bundle = load_dataset(DATASET, n=min(rows, base_rows), seed=seed)
    if rows <= base_rows:
        return bundle, bundle.table
    picks = np.random.default_rng(seed).integers(0, base_rows, size=rows)
    return bundle, bundle.table.take(picks)


def sql_for(where: dict, group_by: tuple) -> str:
    columns = ", ".join(group_by)
    clause = " AND ".join(f"{a} = '{v}'" for a, v in where.items())
    return (f"SELECT {columns}, AVG(Severity) FROM {DATASET} "
            f"WHERE {clause} GROUP BY {columns}")


def respell(where: dict, group_by: tuple) -> str:
    """The same question spelled differently: keyword case, whitespace,
    conjunct order, group-by order."""
    columns = " ,".join(reversed(group_by))
    clause = "  and ".join(f"{a} = '{v}'"
                           for a, v in reversed(list(where.items())))
    return (f"select  {columns} ,  avg( Severity )  from {DATASET}   "
            f"where {clause}  group by  {columns}")


class QueryPool:
    """Selective queries drawn without replacement, in a fixed *shape*
    schedule.

    Two families over the clustered key: ``City = c`` (20 populations of
    ~5% of the table) grouped by two or three attributes, and ``City = c AND
    Weather = w`` (100 populations of ~0.3–3%) grouped by one.  The seed
    decides which city and which attributes come when; it does not decide
    how many queries of which shape a run holds — cities and weathers take
    turns — so two seeds do the same amount of work and differ only in
    which rows it touches.  Exhaustion raises instead of silently turning
    misses into hits: a ``store_restart`` cycle draws one of 280
    two-attribute pairs, one of 560 three-attribute pairs and two of 700
    two-conjunct queries, so the pool lasts 280 cycles.  A run's demand is
    fixed by its ``Scale`` (155 cycles at full scale) and checked against
    the pool by :meth:`require` when the workload is built.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self._wide: dict[tuple[str, int], list] = {}
        for city in CITIES:
            for width in (2, 3):
                sets = list(itertools.combinations(GROUPABLE, width))
                rng.shuffle(sets)
                self._wide[city, width] = sets
        cities = list(CITIES)
        rng.shuffle(cities)
        self._city_turn = itertools.cycle(cities)
        self._narrow: dict[str, list] = {}
        for weather in WEATHER:
            single = [(city, (g,)) for city in CITIES for g in GROUPABLE
                      if g != "Weather"]
            rng.shuffle(single)
            self._narrow[weather] = single
        self._weather_turn = itertools.cycle(WEATHER)

    def pair(self, width: int) -> list[tuple[dict, tuple]]:
        """Two ``width``-attribute group-bys over one ``City = c``."""
        for _ in CITIES:
            city = next(self._city_turn)
            sets = self._wide[city, width]
            if len(sets) >= 2:
                return [({"City": city}, sets.pop()),
                        ({"City": city}, sets.pop())]
        raise RuntimeError("query pool exhausted: the run is too long for "
                           "the never-repeat guarantee")

    def narrow(self) -> tuple[dict, tuple]:
        weather = next(self._weather_turn)
        if not self._narrow[weather]:
            raise RuntimeError("query pool exhausted")
        city, group_by = self._narrow[weather].pop()
        return {"City": city, "Weather": weather}, group_by

    #: Queries one turn of :meth:`singles` yields.
    ROTATION = 6

    def singles(self):
        """Endless fixed rotation of the shapes (HTTP miss traffic)."""
        while True:
            yield from self.pair(2)
            yield self.narrow()
            yield from self.pair(3)
            yield self.narrow()

    def require(self, pairs2: int, pairs3: int, narrows: int) -> None:
        """Raise unless that many more ``pair(2)``, ``pair(3)`` and
        ``narrow()`` calls will succeed."""
        for width, needs in ((2, pairs2), (3, pairs3)):
            holds = sum(len(sets) // 2 for (_, w), sets in self._wide.items()
                        if w == width)
            require(f"QueryPool {width}-attribute pairs", holds, needs)
        # Weathers take turns, so the shortest list ends the rotation.
        require("QueryPool two-conjunct queries",
                len(WEATHER) * min(map(len, self._narrow.values())), narrows)


def require(resource: str, holds: int, needs: int) -> None:
    """Construction-time check of one finite resource against the fixed
    demand of the run (``Scale.rounds``)."""
    if holds < needs:
        raise ValueError(
            f"{resource}: holds {holds} draws, the run needs {needs} — "
            "lower Scale.block_cap or enlarge the resource")


def directory_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ---------------------------------------------------------------------- base


class Workload:
    """Life cycle: ``build`` → ``warm_up`` → ``run_block``… → ``close``.

    ``close`` releases what ``build`` made, including child processes; a
    traced ``serve_http`` run then builds a second time.
    """

    name = ""
    #: serve_http swaps its child server for an in-process one when traced.
    rebuild_for_trace = False
    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self._builds = 0
        self.bytes_per_row = 0.0

    # -- set-up ---------------------------------------------------------------

    def build(self, traced: bool = False) -> None:
        """``reserve``, then the workload's own ``_build``: a run that would
        exhaust a pool is refused before any set-up work is spent."""
        self.reserve()
        self._build(traced)

    def reserve(self) -> None:
        """Lay out whatever finite the run draws from and check it against
        ``scale.rounds`` (:func:`require`); needs no table, store or server."""

    def _build(self, traced: bool) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Discarded rounds: lazy set-up — imports, page cache, the morsel
        pool reaching its thread count — is finished before timing."""
        for _ in range(self.scale.warmup_cycles):
            self.round(None)

    def close(self) -> None:
        pass

    def _fresh_dir(self) -> Path:
        self._builds += 1
        path = self.workdir / f"{self.name}-{self._builds}"
        path.mkdir(parents=True)
        return path

    # -- timed phase ----------------------------------------------------------

    def round(self, recorder) -> list[Sample]:
        raise NotImplementedError

    def run_block(self, budget: float, cap: int, recorder=None
                  ) -> tuple[float, int, list[Sample]]:
        """``(wall, rounds, samples)`` of ``cap`` whole rounds, or of the
        whole rounds that come closest to ``budget`` seconds if that is
        fewer.  Whole rounds, so every block holds the same mix of
        operations; closest, so long rounds do not overrun the run."""
        samples: list[Sample] = []
        wall = last = 0.0
        rounds = 0
        while rounds < cap and wall + last / 2 < budget:
            start = time.perf_counter()
            samples.extend(self.round(recorder))
            last = time.perf_counter() - start
            wall += last
            rounds += 1
        return wall, rounds, samples

    # -- observation ----------------------------------------------------------

    def usage(self) -> dict:
        """CPU seconds, peak RSS and voluntary switches of the process under
        test — here the runner itself."""
        own = resource.getrusage(resource.RUSAGE_SELF)
        return {"cpu_s": own.ru_utime + own.ru_stime,
                "peak_rss_mb": own.ru_maxrss / 1024.0,
                "vcsw": own.ru_nvcsw}

    def counters(self) -> dict:
        """Cumulative program counters (flat name → number)."""
        return _global_counters()

    def oracle_inputs(self, rows: int):
        """``(table, bundle)`` equivalent to what an explain over ``rows``
        rows was answered on."""
        raise NotImplementedError

    def beside_trace(self) -> dict:
        """Measurements a traced run reports beside its ledger; the time
        they take comes out of that run's ``--seconds``."""
        return {}

    def reference_extras(self, explains: list[Sample]) -> dict:
        """What only the untraced reference pass of a traced run can tell,
        given that pass's (decoded) explain samples."""
        return {}


def _flow_counters(planner: dict, pool: dict) -> dict:
    """Planner and morsel-pool counters under the benchmark's names."""
    return {
        "shards_skipped": planner["shards_zone_map_skipped"]
        + planner["shards_stats_skipped"],
        "shards_scanned": planner["shards_scanned"],
        "morsels": pool["morsels"],
        "batches": pool["batches"],
    }


def _global_counters() -> dict:
    return _flow_counters(GLOBAL_PLANNER_STATS.snapshot(),
                          GLOBAL_PARALLEL_STATS.snapshot())


_CACHE_LEVELS = ("summary", "population", "plan")


def _engine_counters(stats: dict) -> dict:
    out = {}
    for level in _CACHE_LEVELS:
        out[f"{level}_hits"] = stats[f"{level}_cache"]["hits"]
        out[f"{level}_misses"] = stats[f"{level}_cache"]["misses"]
    out["mask_hits"] = stats["mask_caches"]["hits"]
    out["mask_misses"] = stats["mask_caches"]["misses"]
    return out


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


# ---------------------------------------------------------------------- cold


class ColdExplain(Workload):
    name = "cold_explain"

    def _build(self, traced: bool) -> None:
        self.bundle = load_dataset(COLD_DATASET, n=self.scale.cold_rows,
                                   seed=self.seed)
        self.sql = self.bundle.query.to_sql()

    def _explain(self):
        bundle = self.bundle
        return CauSumX(bundle.table, bundle.dag, CONFIG).explain(
            bundle.query, bundle.grouping_attributes,
            bundle.treatment_attributes)

    def round(self, recorder) -> list[Sample]:
        return [timed("explain", self._explain, recorder, sql=self.sql,
                      rows=self.bundle.table.n_rows, cached=False)]

    def oracle_inputs(self, rows: int):
        return self.bundle.table, self.bundle

    def beside_trace(self) -> dict:
        """Median wall of a few cold explains on ``stackoverflow``, the
        candidate-heavy regime (``cps`` is the fit-heavy one)."""
        bundle = load_dataset("stackoverflow", seed=self.seed,
                              n=self.scale.stackoverflow_rows)
        seconds = []
        for _ in range(self.scale.stackoverflow_reps):
            start = time.perf_counter()
            CauSumX(bundle.table, bundle.dag, CONFIG).explain(
                bundle.query, bundle.grouping_attributes,
                bundle.treatment_attributes)
            seconds.append(time.perf_counter() - start)
        return {"cold_stackoverflow_s": statistics.median(seconds)}


# ---------------------------------------------------------------------- stores


class _StoreWorkload(Workload):
    """Shared recipe: accidents imported as shards, compacted by City."""

    rows_attr = "store_rows"

    def _build_store(self) -> Path:
        rows = getattr(self.scale, self.rows_attr)
        self.bundle, self.table = accidents_inputs(
            self.seed, rows, self.scale.base_rows)
        path = self._fresh_dir() / "store"
        store = DatasetStore.init(path)
        store.import_bundle(dataclasses.replace(self.bundle, table=self.table),
                            config=CONFIG,
                            shard_rows=max(1, rows // self.scale.shards))
        store.compact(DATASET, cluster_by="City")
        stored = store.dataset(DATASET)
        self.bytes_per_row = stored.nbytes() / stored.manifest.n_rows
        self.store_path = path
        self._retired: dict = {}
        return path

    def _retire(self, engine) -> None:
        """Keep a discarded engine's cache counters in the running totals."""
        _add(self._retired, _engine_counters(engine.stats()))

    def counters(self) -> dict:
        total = dict(self._retired)
        engine = getattr(self, "engine", None)
        if engine is not None:
            _add(total, _engine_counters(engine.stats()))
        total.update(_global_counters())
        total["telemetry_bytes"] = directory_bytes(
            self.store_path / "telemetry")
        return total

    def close(self) -> None:
        self.engine = None
        path = getattr(self, "store_path", None)
        if path is not None:
            shutil.rmtree(path.parent, ignore_errors=True)

    def _explain(self, engine, sql: str, recorder) -> Sample:
        rows = engine.dataset_state(DATASET).table.n_rows
        sample = timed("explain",
                       lambda: engine.explain_with_info(DATASET, sql),
                       recorder, sql=sql, rows=rows)
        if sample.ok:
            summary, info = sample.result
            sample = sample._replace(result=summary, cached=info["cached"])
        return sample


class StoreRestart(_StoreWorkload):
    name = "store_restart"

    def reserve(self) -> None:
        self.pool = QueryPool(self.seed)
        rounds = self.scale.rounds(self.name)
        self.pool.require(pairs2=rounds, pairs3=rounds, narrows=2 * rounds)

    def _build(self, traced: bool) -> None:
        self._build_store()
        self._previous_first = None

    def round(self, recorder) -> list[Sample]:
        """One restart cycle: open, 6 misses + 2 hits, snapshot.

        The misses are two ``City = c`` pairs (each pair shares a
        population: the second query finds it cached) and two ``City = c AND
        Weather = w``; the hits are a re-spelling of the cycle's first query
        and the previous cycle's first query, answered from the summaries
        the previous engine's ``snapshot()`` left in the store.
        """
        misses = (*self.pool.pair(2), *self.pool.pair(3),
                  self.pool.narrow(), self.pool.narrow())
        queries = [sql_for(*q) for q in misses]
        queries.append(respell(*misses[0]))
        if self._previous_first is not None:
            queries.append(self._previous_first)
        self._previous_first = queries[0]

        opened = timed(
            "open",
            lambda: ExplanationEngine.from_store(DatasetStore(self.store_path),
                                                 **ENGINE_KWARGS),
            recorder)
        if not opened.ok:
            return [opened]
        engine = opened.result
        samples = [opened._replace(result=None)]
        samples += [self._explain(engine, sql, recorder) for sql in queries]
        samples.append(timed("snapshot", engine.snapshot, recorder))
        self._retire(engine)
        return samples

    def oracle_inputs(self, rows: int):
        return self.table, self.bundle


class AppendExplain(_StoreWorkload):
    name = "append_explain"

    def reserve(self) -> None:
        # Rows to append: half the table (the run appends 46% of it).
        self._fresh_count = self.scale.store_rows // 2
        require("AppendExplain._fresh batches",
                self._fresh_count // self.scale.append_rows,
                self.scale.rounds(self.name))

    def _build(self, traced: bool) -> None:
        self._build_store()
        _, self._fresh = accidents_inputs(
            self.seed + 1, self._fresh_count, self.scale.base_rows)
        self._appended: list = []
        self.engine = ExplanationEngine.from_store(
            DatasetStore(self.store_path), **ENGINE_KWARGS)
        self._populations = self._population_schedule()
        self._recent = [next(self._populations), next(self._populations)]

    def _population_schedule(self):
        """``(where, group-bys)`` forever, alternating a ``City = c``
        population grouped by two attributes with a ``City = c AND
        Weather = w`` one grouped by one; cities, weathers and group-bys
        take turns in seeded order.  Repeats are fine here: every append
        invalidates every summary."""
        rng = random.Random(self.seed)

        def turns(items):
            items = list(items)
            rng.shuffle(items)
            return itertools.cycle(items)

        wide_city, narrow_city = turns(CITIES), turns(CITIES)
        weather = turns(WEATHER)
        wide = turns(itertools.combinations(GROUPABLE, 2))
        single = turns((g,) for g in GROUPABLE if g != "Weather")
        while True:
            yield {"City": next(wide_city)}, wide
            yield {"City": next(narrow_city), "Weather": next(weather)}, single

    def round(self, recorder) -> list[Sample]:
        """One cycle: append, three explains — and after every
        ``cycles_per_maintenance``-th, snapshot, re-cluster and re-open, all
        inside the timed phase."""
        size = self.scale.append_rows
        start = len(self._appended) * size
        batch = self._fresh.take(np.arange(start, start + size))
        samples = [timed("append",
                         lambda: self.engine.append_rows(DATASET, batch),
                         recorder)]
        if samples[0].ok:
            self._appended.append(batch)
        fresh_population = next(self._populations)
        # Two populations the previous cycle queried (their cached masks are
        # extended over the appended rows), then one not seen recently.
        for where, group_bys in (*self._recent, fresh_population):
            samples.append(self._explain(
                self.engine, sql_for(where, next(group_bys)), recorder))
        self._recent = [self._recent[1], fresh_population]
        if len(self._appended) % self.scale.cycles_per_maintenance == 0:
            samples += self._maintain(recorder)
        return samples

    def _maintain(self, recorder) -> list[Sample]:
        samples = [timed("snapshot", self.engine.snapshot, recorder)]
        samples.append(timed(
            "compact",
            lambda: DatasetStore(self.store_path).compact(
                DATASET, cluster_by="City"),
            recorder))
        reopened = timed(
            "open",
            lambda: ExplanationEngine.from_store(DatasetStore(self.store_path),
                                                 **ENGINE_KWARGS),
            recorder)
        if reopened.ok:
            self._retire(self.engine)
            self.engine = reopened.result
            reopened = reopened._replace(result=None)
        samples.append(reopened)
        return samples

    def oracle_inputs(self, rows: int):
        table = self.table
        size = self.scale.append_rows
        for batch in self._appended[:(rows - table.n_rows) // size]:
            table = table.concat(batch)
        return table, self.bundle


# ---------------------------------------------------------------------- http

HTTP_CLIENTS = 2
WRITER_TENANT = "writer"
#: The traffic mix, as the kinds of twenty consecutive requests of a client:
#: 60% hot, 35% misses, 5% appends.  Each client deals itself shuffled
#: decks, not one independent draw per request, so two seeds send the same
#: amount of each kind and differ only in when.
DECK = ("hot",) * 12 + ("miss",) * 7 + ("append",)


class ServeHttp(_StoreWorkload):
    name = "serve_http"
    rows_attr = "http_rows"
    rebuild_for_trace = True

    def reserve(self) -> None:
        """Deal every client's whole schedule of request kinds now —
        ``scale.rounds`` requests each, a round being one request per client
        — so the run's demand on the miss pool and on the rows to append is
        known exactly before anything is built."""
        self.pool = QueryPool(self.seed)
        self.hot = [sql_for(*q) for q in (*self.pool.pair(2),
                                          self.pool.narrow(),
                                          self.pool.narrow())]
        self._rngs = [random.Random(self.seed * 1000 + index)
                      for index in range(HTTP_CLIENTS)]
        self._schedules = [self._schedule(rng) for rng in self._rngs]
        misses = sum(s.count("miss") for s in self._schedules)
        turns = math.ceil(misses / QueryPool.ROTATION)
        self.pool.require(pairs2=turns, pairs3=turns, narrows=2 * turns)
        # Rows to append: a tenth of the table.  Clients take alternate
        # batches, and each sends one more while warming up.
        self._fresh_count = self.scale.http_rows // 10
        require("ServeHttp._fresh_rows batches",
                self._fresh_count // self.scale.http_append_rows,
                HTTP_CLIENTS * (1 + max(s.count("append")
                                        for s in self._schedules)))

    def _schedule(self, rng: random.Random) -> list[str]:
        """One client's request kinds: part of a shuffled deck for the
        warm-up, then shuffled whole decks for the timed phase."""
        rounds = self.scale.rounds(self.name)
        schedule = rng.sample(DECK, self.scale.warmup_cycles)
        while len(schedule) < rounds:
            schedule += rng.sample(DECK, len(DECK))
        return schedule[:rounds]

    def _build(self, traced: bool) -> None:
        path = self._build_store()
        self.process = self.server = None
        if traced:
            self._start_in_process(path)
        else:
            self._start_child(path)
        _, fresh = accidents_inputs(self.seed + 1, self._fresh_count,
                                    self.scale.base_rows)
        self._fresh_rows = fresh.to_rows()
        self._misses = self.pool.singles()
        self._miss_lock = threading.Lock()
        self._clients = [
            {"conn": http.client.HTTPConnection(self.host, self.port,
                                                timeout=120),
             "schedule": iter(schedule), "rng": rng, "appended": index}
            for index, (schedule, rng) in enumerate(zip(self._schedules,
                                                        self._rngs))]

    def _start_child(self, store: Path) -> None:
        """`python -m repro serve --store … --http 127.0.0.1:0`, as a user
        starts it: no REPRO_* / *_NUM_THREADS in its environment."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(SRC)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--http", "127.0.0.1:0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        banner = self.process.stderr.readline()
        if "serving HTTP on" not in banner:
            self.close()
            raise RuntimeError(f"server did not start: {banner!r}")
        address = banner.split("serving HTTP on ")[1].split(";")[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        # Keep draining stderr so the child can never block on a full pipe.
        self._stderr_tail: list[str] = []
        self._stderr_thread = threading.Thread(
            target=lambda: self._stderr_tail.extend(self.process.stderr),
            daemon=True)
        self._stderr_thread.start()

    def _start_in_process(self, store: Path) -> None:
        from repro.net import TenantRegistry, create_server, serve_in_thread

        registry = TenantRegistry.from_store(DatasetStore(store),
                                             **ENGINE_KWARGS)
        self.server = create_server(registry, "127.0.0.1", 0, **SERVER_KWARGS)
        serve_in_thread(self.server)
        self.host, self.port = self.server.server_address[:2]

    def warm_up(self) -> None:
        """Fill the hot tenant's summary cache, materialise the writer
        tenant, and let both keep-alive connections connect."""
        for client in self._clients:
            for sql in self.hot:
                self._post(client, "/v1/explain", {"query": sql}, None)
            self._append(client, None)
        self.run_block(math.inf, self.scale.warmup_cycles)

    def close(self) -> None:
        for client in getattr(self, "_clients", []):
            client["conn"].close()
        self._clients = []
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            self._stderr_thread.join(timeout=5)
            self.process.stderr.close()
            if self.process.returncode != 0:
                sys.stderr.write("".join(self._stderr_tail[-20:]))
            self.process = None
        if self.server is not None:
            self.server.graceful_shutdown(drain_timeout=10.0)
            self.server = None
        super().close()

    # -- requests -------------------------------------------------------------

    def _post(self, client: dict, path: str, body: dict, recorder,
              tenant: str | None = None) -> bytes:
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Repro-Tenant"] = tenant
        if recorder is not None:
            headers[REQUEST_HEADER] = str(recorder.current_request())
        conn = client["conn"]
        conn.request("POST", path, body=json.dumps(body), headers=headers)
        reply = conn.getresponse()
        raw = reply.read()
        if reply.status != 200:
            raise RuntimeError(f"HTTP {reply.status}: {raw[:200]!r}")
        return raw

    def _append(self, client: dict, recorder) -> Sample:
        size = self.scale.http_append_rows
        start = client["appended"] * size
        client["appended"] += HTTP_CLIENTS
        rows = self._fresh_rows[start:start + size]
        return timed("append",
                     lambda: self._post(client, "/v1/append_rows",
                                        {"rows": rows}, recorder,
                                        tenant=WRITER_TENANT),
                     recorder)

    def _request(self, client: dict, recorder) -> Sample:
        kind = next(client["schedule"])
        if kind == "append":
            return self._append(client, recorder)
        if kind == "hot":
            sql = client["rng"].choice(self.hot)
        else:
            with self._miss_lock:
                sql = sql_for(*next(self._misses))
        return timed("explain",
                     lambda: self._post(client, "/v1/explain", {"query": sql},
                                        recorder),
                     recorder, sql=sql, rows=self.table.n_rows)

    def run_block(self, budget: float, cap: int, recorder=None
                  ) -> tuple[float, int, list[Sample]]:
        """Both clients issue ``cap`` requests back to back, or as many as
        ``budget`` seconds allow; ``rounds`` is what the slower one
        completed."""
        collected: list[list[Sample]] = [[] for _ in self._clients]
        done = [0] * len(self._clients)
        start = time.perf_counter()
        deadline = start + budget

        def drive(index: int) -> None:
            client = self._clients[index]
            try:
                while done[index] < cap and time.perf_counter() < deadline:
                    collected[index].append(self._request(client, recorder))
                    done[index] += 1
            except Exception:  # noqa: BLE001 — a dead client is a failed op
                collected[index].append(
                    Sample("explain", 0.0, False, traceback.format_exc()))

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(self._clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        return wall, min(done), [s for mine in collected for s in mine]

    # -- observation ----------------------------------------------------------

    def usage(self) -> dict:
        if self.process is None:
            return super().usage()
        pid = self.process.pid
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()  # after "pid (comm)"
        ticks = os.sysconf("SC_CLK_TCK")
        cpu = (int(fields[11]) + int(fields[12])) / ticks
        status = Path(f"/proc/{pid}/status").read_text()
        peak_kb = int(status.split("VmHWM:")[1].split()[0])
        vcsw = 0
        for task in Path(f"/proc/{pid}/task").iterdir():
            try:
                text = (task / "status").read_text()
            except OSError:
                continue  # the thread ended between listing and reading
            vcsw += int(text.split("voluntary_ctxt_switches:")[1].split()[0])
        return {"cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0, "vcsw": vcsw}

    def _get_json(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def counters(self) -> dict:
        """The server's own published surfaces: /v1/stats and /metrics."""
        stats = self._get_json("POST", "/v1/stats")["result"]
        served = self._get_json("GET", "/metrics")
        total = _engine_counters(stats)
        total.update(_flow_counters(stats["planner"], stats["parallel"]))
        total.update({
            "telemetry_bytes": directory_bytes(self.store_path / "telemetry"),
            "shed_total": served["http"]["shed_total"],
            "peak_inflight": served["admission"]["peak_inflight"],
            "queue_wait_p50_ms": 1000.0 * served["unified"]["histograms"].get(
                "repro_admission_queue_wait_seconds", {}).get("p50", 0.0),
        })
        return total

    def oracle_inputs(self, rows: int):
        return self.table, self.bundle

    def reference_extras(self, explains: list[Sample]) -> dict:
        """``net.*`` describe the real child server, so they are read after
        the reference pass, before the in-process server replaces it."""
        served = self.counters()
        hot = [s.seconds for s in explains if s.cached]
        return {
            "shed_total": served["shed_total"],
            "queue_wait_p50_ms": served["queue_wait_p50_ms"],
            "peak_inflight": served["peak_inflight"],
            "response_bytes_p50": statistics.median(
                s.nbytes for s in explains) if explains else 0.0,
            "hit_rtt_p50_s": statistics.median(hot) if hot else 0.0,
        }


WORKLOADS = {w.name: w for w in
             (ColdExplain, StoreRestart, AppendExplain, ServeHttp)}
