"""Phases, noise discipline, the oracle check, and metric assembly.

One *untraced* run gives the end-to-end metrics; one *traced* run (a short
untraced reference pass, then a pass under the span recorder) gives the
per-layer ledger.  What the runner does for repeatability is code, not
advice:

* warm-up rounds are discarded, so lazy set-up — imports, the morsel pool
  reaching its thread count, page cache — is finished before timing;
* a timed phase is ``BLOCKS`` blocks of equal *work*: each runs the
  workload's ``Scale.block_cap`` whole rounds, so all hold the same mix of
  operations and every run ends on the same table, and stops early only if
  its fifth of ``--seconds`` runs out first (``ended_by: "clock"``, printed
  as *clock-bound*: such a run did less work and is not comparable with one
  that ended by cap).  The timing metrics inside every block are
  kept in the result file, and a run whose block medians spread by more
  than ``DISTURBED_SPREAD`` is printed as *disturbed*.  Between blocks
  (outside timing) the runner calls ``gc.collect()`` and times a fixed
  calibration kernel.  GC stays enabled *inside* timing: it is the
  program's cost;
* every result file carries a ``host`` block.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core import CauSumX, summary_to_dict
from repro.parallel import worker_count, workers
from repro.plan import lower_query
from repro.sql import normalize_query, parse_query

from spans import SPAN_FIELDS, SpanRecorder, fold
from workloads import BLOCKS, CONFIG, Sample, Workload

#: Canonical queries per run recomputed by the in-memory oracle.
ORACLE_SAMPLES = 10
DISTURBED_SPREAD = 1.15
#: Share of ``--seconds`` and of the round caps a traced run gives its
#: untraced reference pass; the recorder pass gets the rest.
REFERENCE_SHARE = 0.4
#: Requests per kind whose raw spans are written out (every request is in
#: the folded ledger; raw spans of all of them would be tens of MB).
TRACE_SAMPLE_PER_KIND = 3

END_TO_END = (
    ("setup_s", "s"), ("explain_p50_s", "s"), ("explain_p90_s", "s"),
    ("wall_s_per_explain", "s"), ("cpu_s_per_explain", "s"),
    ("peak_rss_mb", "MB"), ("rounds", "count"),
)

PER_LAYER = (
    ("sql.parse_s", "s"), ("sql.view_s", "s"),
    ("plan.lower_s", "s"), ("plan.scan_s", "s"),
    ("plan.shards_skipped_share", "share"),
    ("dataframe.partition_s", "s"), ("dataframe.mask_hit_rate", "share"),
    ("mining.grouping_s", "s"), ("mining.treatment_s", "s"),
    ("mining.groupings_per_explain", "count"),
    ("mining.candidates_per_explain", "count"),
    ("causal.fit_s", "s"), ("causal.fits_per_explain", "count"),
    ("causal.fit_us", "us"), ("causal.bind_s", "s"),
    ("optimize.select_s", "s"),
    ("core.serialize_s", "s"), ("core.unattributed_share", "share"),
    ("core.cold_stackoverflow_s", "s"),
    ("service.summary_hit_rate", "share"),
    ("service.population_hit_rate", "share"),
    ("service.plan_hit_rate", "share"),
    ("service.hit_p50_s", "s"), ("service.miss_p50_s", "s"),
    ("service.append_p50_s", "s"),
    ("storage.open_p50_s", "s"), ("storage.decode_s", "s"),
    ("storage.snapshot_p50_s", "s"), ("storage.append_p50_s", "s"),
    ("storage.compact_p50_s", "s"), ("storage.bytes_per_row", "B"),
    ("storage.shards_opened_per_explain", "count"),
    ("parallel.morsels_per_explain", "count"),
    ("parallel.batches_per_explain", "count"), ("parallel.pool_s", "s"),
    ("parallel.vcsw_per_explain", "count"),
    ("parallel.cpu_over_wall", "share"),
    ("obs.trace_overhead_ratio", "share"),
    ("obs.telemetry_bytes_per_explain", "B"),
    ("net.hit_rtt_p50_s", "s"), ("net.overhead_p50_s", "s"),
    ("net.shed_total", "count"), ("net.queue_wait_p50_ms", "ms"),
    ("net.peak_inflight", "count"), ("net.response_bytes_p50", "B"),
    ("host.nproc", "count"), ("host.blas_threads", "count"),
    ("host.calib_s", "s"), ("host.block_spread", "share"),
)

# ---------------------------------------------------------------------- host


def calibration_kernel() -> float:
    """Seconds for a fixed Python + numpy kernel (host speed, not program)."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    values = np.arange(100_000, dtype=np.float64)
    for _ in range(10):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - start


def blas_threads() -> int:
    """Thread count of the BLAS numpy loaded, 0 when it cannot be read."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return 0
    for line in maps.splitlines():
        path = line.split()[-1]
        if "openblas" not in path.lower():
            continue
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return 0


def git_sha() -> str:
    """HEAD, with ``+dirty`` when the benchmark or the program differ from
    it (a baseline taken before its PR is committed names the parent)."""
    here = Path(__file__).resolve().parent
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=here, timeout=10)
        changed = subprocess.run(
            ["git", "status", "--porcelain", "--", ".", ":!results",
             "../../src", "../../BENCHMARK.json"],
            capture_output=True, text=True, cwd=here, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if done.returncode != 0:
        return "unknown"
    return done.stdout.strip() + ("+dirty" if changed.stdout.strip() else "")


def host_block(seed: int, scrubbed: dict, load_start: tuple) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "pool_width": worker_count(),
        "scrubbed_env": scrubbed,
        "git_sha": git_sha(),
        "seed": seed,
    }


# ---------------------------------------------------------------------- phases


class Block(NamedTuple):
    """One block of a timed phase: ``rounds`` whole rounds, ``ended_by``
    its round ``"cap"`` or, with fewer done, by the ``"clock"``."""

    wall: float
    cpu_s: float
    vcsw: int
    calib_s: float
    rounds: int
    ended_by: str
    samples: list[Sample]

    def explains(self) -> list[Sample]:
        return [s for s in self.samples if s.kind == "explain" and s.ok]


class Phase:
    """The blocks of one timed phase, with whole-phase views over them."""

    def __init__(self, blocks: list[Block]):
        self.blocks = blocks

    @property
    def samples(self) -> list[Sample]:
        return [s for block in self.blocks for s in block.samples]

    def explains(self) -> list[Sample]:
        return [s for block in self.blocks for s in block.explains()]

    @property
    def wall(self) -> float:
        return sum(block.wall for block in self.blocks)

    @property
    def cpu_s(self) -> float:
        return sum(block.cpu_s for block in self.blocks)

    @property
    def vcsw(self) -> int:
        return sum(block.vcsw for block in self.blocks)

    @property
    def rounds(self) -> int:
        return sum(block.rounds for block in self.blocks)

    def statistics(self) -> dict:
        """The timing metrics over the whole phase: every explain
        pooled, and the wall and CPU of everything the phase contains."""
        return _statistics([s.seconds for s in self.explains()], self.wall,
                           self.cpu_s)

    def block_statistics(self) -> list[dict]:
        """The same metrics inside each block."""
        return [{**_statistics([s.seconds for s in block.explains()],
                               block.wall, block.cpu_s),
                 "wall_s": block.wall, "calib_s": block.calib_s,
                 "rounds": block.rounds, "ended_by": block.ended_by}
                for block in self.blocks]

    def decode(self) -> None:
        self.blocks = [
            block._replace(samples=[
                decode(s) if s.kind == "explain" and s.ok else s
                for s in block.samples])
            for block in self.blocks]


def run_phase(workload: Workload, seconds: float, cap: int,
              recorder=None) -> Phase:
    """``BLOCKS`` blocks, each ``cap`` whole rounds under an equal slice of
    ``seconds``."""
    blocks = []
    for _ in range(BLOCKS):
        gc.collect()
        calib_s = calibration_kernel()
        before = workload.usage()
        wall, rounds, samples = workload.run_block(seconds / BLOCKS, cap,
                                                   recorder)
        after = workload.usage()
        blocks.append(Block(wall, after["cpu_s"] - before["cpu_s"],
                            after["vcsw"] - before["vcsw"], calib_s, rounds,
                            "cap" if rounds == cap else "clock", samples))
    return Phase(blocks)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _statistics(seconds: list[float], wall: float, cpu_s: float) -> dict:
    count = len(seconds)
    return {"explain_p50_s": percentile(seconds, 50),
            "explain_p90_s": percentile(seconds, 90),
            "wall_s_per_explain": wall / count if count else 0.0,
            "cpu_s_per_explain": cpu_s / count if count else 0.0,
            "explains": count}


# ---------------------------------------------------------------------- oracle


def export_digest(export: dict) -> str:
    """Digest of a ``summary_to_dict`` export without its wall-clock part."""
    export = dict(export)
    export.pop("timings", None)
    text = json.dumps(export, sort_keys=True, default=str)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def decode(sample: Sample) -> Sample:
    """Fill ``cached`` and turn the result into its export dict."""
    result = sample.result
    if isinstance(result, bytes):
        payload = json.loads(result)
        return sample._replace(result=payload["result"],
                               cached=payload["cached"], nbytes=len(result))
    return sample._replace(result=summary_to_dict(result))


def verify(workload: Workload, explains: list[Sample], seed: int,
           count: int) -> tuple[int, int]:
    """``(mismatches, oracle runs)`` of already-decoded explain samples.

    Every answer is keyed by (canonical query fingerprint, rows it was
    answered on); all answers under one key must agree, and a seeded sample
    of ``count`` keys is recomputed by plain in-memory ``CauSumX.explain``
    at pool width 1 on the equivalent table.  The oracle is given the
    canonical query (sorted group-by), which is what the engine documents
    it answers: group keys come back in canonical column order.
    """
    by_key: dict[tuple, list[str]] = {}
    canonical_of: dict[tuple, object] = {}
    for sample in explains:
        canonical = normalize_query(parse_query(sample.sql))
        key = (lower_query(canonical).fingerprint, sample.rows)
        by_key.setdefault(key, []).append(export_digest(sample.result))
        canonical_of[key] = canonical
    mismatches = sum(len(digests) - digests.count(digests[0])
                     for digests in by_key.values())
    keys = sorted(by_key)
    chosen = random.Random(seed).sample(keys, min(count, len(keys)))
    for key in chosen:
        table, bundle = workload.oracle_inputs(key[1])
        with workers(1):
            summary = CauSumX(table, bundle.dag, CONFIG).explain(
                canonical_of[key], bundle.grouping_attributes,
                bundle.treatment_attributes)
        if export_digest(summary_to_dict(summary)) != by_key[key][0]:
            mismatches += len(by_key[key])
    return mismatches, len(chosen)


# ---------------------------------------------------------------------- runs


def _outcome(checked: Phase, workload: Workload, seed: int,
             unchecked: Phase | None = None) -> dict:
    """The result fields both kinds of run share: ``checked`` (decoded) is
    verified against the oracle and counted; ``unchecked`` only adds its
    operation count and whatever raised."""
    explains = checked.explains()
    mismatches, oracle_runs = verify(workload, explains, seed,
                                     ORACLE_SAMPLES)
    samples = checked.samples + (unchecked.samples if unchecked else [])
    raised = [s for s in samples if not s.ok]
    failed = len(raised) + mismatches
    return {"attempted": len(samples), "failed": failed,
            "failed_share": failed / max(len(samples), 1),
            "errors": [s.result for s in raised[:3]],
            "explain_samples": len(explains), "oracle_runs": oracle_runs}


def block_spread(blocks: list[dict]) -> float:
    medians = [b["explain_p50_s"] for b in blocks if b["explains"]]
    return max(medians) / min(medians) if medians else 0.0


def run_untraced(workload: Workload, seed: int, seconds: float,
                 started: float) -> dict:
    """Set-up, one timed phase, oracle check.  ``started`` is the
    ``perf_counter`` reading at process start: ``setup_s`` runs from there
    to the first timed operation."""
    workload.build()
    workload.warm_up()
    setup_s = time.perf_counter() - started

    phase = run_phase(workload, seconds,
                      workload.scale.block_cap[workload.name])
    usage = workload.usage()
    phase.decode()
    blocks = phase.block_statistics()
    return {
        # ``rounds`` is listed so that the line the driver parses says how
        # much work the run did: below 5 × cap, some block ended by clock.
        "metrics": {"setup_s": setup_s, **phase.statistics(),
                    "peak_rss_mb": usage["peak_rss_mb"],
                    "rounds": phase.rounds},
        **_outcome(phase, workload, seed),
        "timed_wall_s": phase.wall,
        "rounds": phase.rounds,
        # Table rows the last explain was answered on: equal between runs
        # that ended by cap, whatever their speed.
        "final_rows": max((s.rows for s in phase.explains()), default=0),
        "blocks": blocks,
        "block_spread": block_spread(blocks),
    }


def _rate(counters: dict, level: str) -> float:
    hits = counters.get(f"{level}_hits", 0)
    total = hits + counters.get(f"{level}_misses", 0)
    return hits / total if total else 0.0


def per_layer_metrics(ledgers: list[dict], reference: Phase, traced: Phase,
                      counters: dict, workload: Workload, extra: dict) -> dict:
    """The per-layer ledger: traced self time per explain, counter deltas
    per explain, and span-duration medians."""
    explains = len(traced.explains()) or 1

    def self_s(*names: str) -> float:
        return sum(ledger["name_self_ns"].get(name, 0.0)
                   for ledger in ledgers for name in names) / 1e9 / explains

    def calls(name: str) -> int:
        return sum(ledger["count"].get(name, 0) for ledger in ledgers)

    def duration_p50(name: str, value=None) -> float:
        picked = []
        for ledger in ledgers:
            durations = ledger["duration_ns"].get(name, [])
            if value is None:
                picked += durations
            else:
                picked += [d for d, v in zip(durations,
                                             ledger["values"].get(name, []))
                           if v == value]
        return percentile(picked, 50) / 1e9

    explain_ledgers = [l for l in ledgers if l["kind"] == "explain"]
    wall_ns = sum(l["wall_ns"] for l in explain_ledgers) or 1
    root_self_ns = sum(l["self_ns"].get("root", 0.0) for l in explain_ledgers)
    misses = [s for s in traced.explains() if not s.cached]
    fits = calls("causal.fit")
    groupings = [v for l in ledgers
                 for v in l["values"].get("mining.grouping", [])
                 if v is not None]
    scanned = counters.get("shards_scanned", 0)
    skipped = counters.get("shards_skipped", 0)
    hit_rtt = extra.get("hit_rtt_p50_s", 0.0)
    reference_p50 = reference.statistics()["explain_p50_s"]
    traced_p50 = traced.statistics()["explain_p50_s"]

    return {
        "sql.parse_s": self_s("sql.parse", "sql.normalize"),
        "sql.view_s": self_s("sql.view"),
        "plan.lower_s": self_s("plan.lower"),
        "plan.scan_s": self_s("plan.scan", "plan.scan_indices"),
        "plan.shards_skipped_share":
            skipped / (skipped + scanned) if skipped + scanned else 0.0,
        "dataframe.partition_s": self_s("dataframe.partition"),
        "dataframe.mask_hit_rate": _rate(counters, "mask"),
        "mining.grouping_s": self_s("mining.grouping"),
        "mining.treatment_s": self_s("mining.treatment"),
        "mining.groupings_per_explain": sum(groupings) / explains,
        "mining.candidates_per_explain":
            sum(s.result["n_candidates"] for s in misses) / explains,
        "causal.fit_s": self_s("causal.fit", "causal.estimate_many"),
        "causal.fits_per_explain": fits / explains,
        "causal.fit_us":
            self_s("causal.fit") * explains / fits * 1e6 if fits else 0.0,
        "causal.bind_s": self_s("causal.bind"),
        "optimize.select_s": self_s("optimize.lp", "optimize.rounding"),
        "core.serialize_s": self_s("core.serialize"),
        "core.unattributed_share": root_self_ns / wall_ns,
        "core.cold_stackoverflow_s": extra.get("cold_stackoverflow_s", 0.0),
        "service.summary_hit_rate": _rate(counters, "summary"),
        "service.population_hit_rate": _rate(counters, "population"),
        "service.plan_hit_rate": _rate(counters, "plan"),
        "service.hit_p50_s": duration_p50("service.explain", True),
        "service.miss_p50_s": duration_p50("service.explain", False),
        "service.append_p50_s": duration_p50("service.append"),
        "storage.open_p50_s": duration_p50("service.from_store"),
        "storage.decode_s": self_s("storage.decode", "storage.load_table",
                                   "storage.load_summaries"),
        "storage.snapshot_p50_s": duration_p50("storage.snapshot"),
        "storage.append_p50_s": duration_p50("storage.append"),
        "storage.compact_p50_s": duration_p50("storage.compact"),
        "storage.bytes_per_row": workload.bytes_per_row,
        "storage.shards_opened_per_explain": scanned / explains,
        "parallel.morsels_per_explain": counters.get("morsels", 0) / explains,
        "parallel.batches_per_explain": counters.get("batches", 0) / explains,
        "parallel.pool_s": self_s("parallel.map_morsels"),
        "parallel.vcsw_per_explain": traced.vcsw / explains,
        "parallel.cpu_over_wall": traced.cpu_s / traced.wall,
        "obs.trace_overhead_ratio":
            traced_p50 / reference_p50 if reference_p50 else 0.0,
        "obs.telemetry_bytes_per_explain":
            counters.get("telemetry_bytes", 0) / explains,
        # net.* describe the real child server, so they come from the
        # untraced reference pass; only the dispatch time they subtract is
        # read from the in-process traced pass.
        "net.hit_rtt_p50_s": hit_rtt,
        "net.overhead_p50_s":
            hit_rtt - duration_p50("service.dispatch", True)
            if hit_rtt else 0.0,
        "net.shed_total": extra.get("shed_total", 0),
        "net.queue_wait_p50_ms": extra.get("queue_wait_p50_ms", 0.0),
        "net.peak_inflight": extra.get("peak_inflight", 0),
        "net.response_bytes_p50": extra.get("response_bytes_p50", 0.0),
        "host.nproc": os.cpu_count(),
        "host.blas_threads": blas_threads(),
        "host.calib_s": statistics.median(
            block.calib_s for block in reference.blocks + traced.blocks),
        "host.block_spread": block_spread(reference.block_statistics()),
    }


def _delta(after: dict, before: dict) -> dict:
    gauges = ("peak_inflight", "queue_wait_p50_ms")
    return {key: value if key in gauges else value - before.get(key, 0)
            for key, value in after.items()}


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Reference pass (untraced), then the same workload under the recorder.

    ``seconds`` covers both passes and whatever the workload measures
    beside the ledger (``beside_trace``); the passes split what is left.
    """
    start = time.perf_counter()
    extra = workload.beside_trace()
    seconds = max(seconds - (time.perf_counter() - start), 0.4 * seconds)

    # The passes split the round cap as they split the seconds; together
    # they stay inside the demand ``Workload.reserve`` checked.
    cap = workload.scale.block_cap[workload.name]
    reference_cap = max(1, int(cap * REFERENCE_SHARE))
    assert reference_cap < cap, "a traced run needs a block cap of 2 or more"

    workload.build()
    workload.warm_up()
    reference = run_phase(workload, seconds * REFERENCE_SHARE, reference_cap)
    reference.decode()
    reference_usage = workload.usage()
    extra.update(workload.reference_extras(reference.explains()))

    recorder = SpanRecorder()
    recorder.install()
    try:
        if workload.rebuild_for_trace:
            workload.close()
            workload.build(traced=True)
            workload.warm_up()
        before = workload.counters()
        traced = run_phase(workload, seconds * (1.0 - REFERENCE_SHARE),
                           cap - reference_cap, recorder)
        counters = _delta(workload.counters(), before)
        traced_usage = workload.usage()
    finally:
        recorder.uninstall()
    if "mask_hits" not in counters:  # no engine: estimators the recorder saw
        counters.update(mask_hits=recorder.mask_hits,
                        mask_misses=recorder.mask_misses)
    traced.decode()
    ledgers = fold(recorder.spans)
    return {
        "metrics": per_layer_metrics(ledgers, reference, traced, counters,
                                     workload, extra),
        # The traced pass carries the oracle check.
        **_outcome(traced, workload, seed, unchecked=reference),
        "reference": {**reference.statistics(),
                      "peak_rss_mb": reference_usage["peak_rss_mb"]},
        "traced_peak_rss_mb": traced_usage["peak_rss_mb"],
        "rounds": reference.rounds + traced.rounds,
        "blocks": reference.block_statistics() + traced.block_statistics(),
        "trace": trace_document(recorder.spans, ledgers),
    }


def trace_document(spans: list[list], ledgers: list[dict]) -> dict:
    """What ``trace_<workload>.json`` holds: the folded ledger of every
    request, and the raw spans of the first few requests of each kind."""
    sampled: dict[str, int] = {}
    keep = set()
    for ledger in ledgers:
        seen = sampled.get(ledger["kind"], 0)
        if seen < TRACE_SAMPLE_PER_KIND:
            sampled[ledger["kind"]] = seen + 1
            keep.add(ledger["request"])
    index_of = {}
    raw = []
    for index, record in enumerate(spans):
        if record[5] in keep:
            index_of[index] = len(raw)
            raw.append(list(record))
    for record in raw:  # parents renumbered into the sampled list
        record[4] = index_of.get(record[4])
    return {
        "span_fields": list(SPAN_FIELDS),
        "total_spans": len(spans),
        "requests": [
            {"request": l["request"], "kind": l["kind"],
             "cached": next(iter(l["values"].get("service.explain", [])),
                            None),
             "wall_ns": l["wall_ns"],
             "self_ns": {k: round(v, 1) for k, v in l["self_ns"].items()},
             "name_self_ns": {k: round(v, 1)
                              for k, v in l["name_self_ns"].items()},
             "count": l["count"]}
            for l in ledgers],
        "sampled_spans": raw,
    }
