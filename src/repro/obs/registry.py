"""Unified metrics registry: counters, gauges, log-bucketed histograms.

One process-wide :data:`REGISTRY` absorbs the serving stack's scattered
statistics under a single ``repro_<layer>_<name>`` naming scheme:

* **Owned metrics** — counters/gauges/histograms created through
  :meth:`MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge` /
  :meth:`~MetricsRegistry.histogram` and updated at the instrumentation
  point (e.g. ``repro_admission_queue_wait_seconds``).
* **Providers** — live read-outs of the pre-existing stat objects
  (``GLOBAL_PLANNER_STATS``, ``GLOBAL_PARALLEL_STATS``) registered by their
  owning modules; the registry renames their keys on export without moving
  the counters, so the old surfaces (`engine.stats()` sections, snapshot
  dictionaries) keep working unchanged — the old keys are the alias layer
  for this release.

Histograms are **log-bucketed**: geometric bucket bounds (10 per decade
from 1µs to 1000s) give p50/p99 exact within one bucket's resolution at
constant memory, with no sample-window truncation under sustained load.
Both the JSON snapshot and the Prometheus text exposition (with
``_bucket``/``_sum``/``_count`` lines) derive from the same counts.

:func:`unified_engine_metrics` flattens one engine's ``stats()`` dictionary
into the same naming scheme — per-engine cache levels cannot live in the
process-global registry (a server holds one engine per tenant).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

from repro.analysis.lockwatch import named_lock

#: Histogram bucket geometry: 10 buckets per decade over [1e-6, 1e3] seconds.
_BUCKETS_PER_DECADE = 10
_LOW_EXP = -6
_HIGH_EXP = 3


def _default_bounds() -> tuple[float, ...]:
    exponents = range(_LOW_EXP * _BUCKETS_PER_DECADE,
                      _HIGH_EXP * _BUCKETS_PER_DECADE + 1)
    return tuple(10.0 ** (e / _BUCKETS_PER_DECADE) for e in exponents)


_DEFAULT_BOUNDS = _default_bounds()


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = named_lock("Counter._lock")
        self._value = 0  # guarded-by: _lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (set to the latest observation)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = named_lock("Gauge._lock")
        self._value = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LogHistogram:
    """Log-bucketed histogram: exact quantiles within bucket resolution.

    Observations land in geometric buckets (``_DEFAULT_BOUNDS`` upper
    bounds); values below the lowest bound count into the first bucket,
    values above the highest into an overflow bucket.  ``quantile(q)``
    returns the upper bound of the bucket holding the q-th observation —
    within one bucket ratio (~26% at 10 buckets/decade) of the true value,
    at constant memory and with *every* observation retained in the counts
    (no ring-buffer truncation).
    """

    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_count",
                 "_sum")

    def __init__(self, name: str = "", labels: tuple = (),
                 bounds: tuple[float, ...] | None = None):
        self.name = name
        self.labels = labels
        self.bounds = bounds if bounds is not None else _DEFAULT_BOUNDS
        self._lock = named_lock("LogHistogram._lock")
        self._counts = [0] * (len(self.bounds) + 1)  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """The q-quantile's bucket upper bound (0.0 when empty)."""
        with self._lock:
            total = self._count
            if not total:
                return 0.0
            target = q * total
            cumulative = 0
            for index, count in enumerate(self._counts):
                cumulative += count
                if cumulative >= target and count:
                    if index < len(self.bounds):
                        return self.bounds[index]
                    return float("inf")  # overflow bucket
            return self.bounds[-1]  # pragma: no cover - defensive

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at ``+Inf``.

        Only buckets up to the highest non-empty one are materialised (plus
        the terminal ``+Inf``), keeping the exposition compact; cumulative
        counts are unaffected by the omitted empty tail.
        """
        with self._lock:
            counts = list(self._counts)
            total = self._count
        last = max((i for i, c in enumerate(counts) if c), default=-1)
        out: list[tuple[float, int]] = []
        cumulative = 0
        for index in range(min(last + 1, len(self.bounds))):
            cumulative += counts[index]
            out.append((self.bounds[index], cumulative))
        out.append((float("inf"), total))
        return out

    def snapshot(self) -> dict:
        return {"count": self.count, "sum": round(self.sum, 6),
                "p50": self.quantile(0.50), "p99": self.quantile(0.99)}


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class MetricsRegistry:
    """Find-or-create registry of named metrics plus live stat providers."""

    def __init__(self):
        self._lock = named_lock("MetricsRegistry._lock")
        self._metrics: dict[tuple, object] = {}  # guarded-by: _lock
        self._providers: dict[str, Callable[[], dict]] = {}  # guarded-by: _lock

    def _get_or_create(self, kind: type, name: str, labels: dict | None):
        key_labels = tuple(sorted((labels or {}).items()))
        key = (kind.__name__, name, key_labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = kind(name, key_labels)
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> LogHistogram:
        return self._get_or_create(LogHistogram, name, labels)

    def register_provider(self, name: str,
                          provider: Callable[[], dict]) -> None:
        """Register a live read-out: ``provider() -> {metric_name: number}``.

        Providers let existing stat objects export under the unified naming
        scheme without moving their counters; re-registering a name replaces
        the provider (module reloads in tests).
        """
        with self._lock:
            self._providers[name] = provider

    def snapshot(self) -> dict:
        """JSON-ready view: owned metrics plus every provider's read-out."""
        with self._lock:
            metrics = list(self._metrics.values())
            providers = dict(self._providers)
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for metric in metrics:
            rendered = metric.name + _label_suffix(metric.labels)
            if isinstance(metric, Counter):
                counters[rendered] = metric.value
            elif isinstance(metric, Gauge):
                gauges[rendered] = metric.value
            else:
                histograms[rendered] = metric.snapshot()
        out = {"counters": dict(sorted(counters.items())),
               "gauges": dict(sorted(gauges.items())),
               "histograms": dict(sorted(histograms.items())),
               "providers": {}}
        for name in sorted(providers):
            try:
                values = providers[name]()
            except Exception:  # noqa: BLE001 - a dead provider must not kill /metrics
                continue
            out["providers"][name] = dict(sorted(values.items()))
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the registry (histogram buckets included)."""
        snap = self.snapshot()
        lines: list[str] = []
        typed: set[str] = set()

        def declare(name: str, kind: str) -> None:
            base = name.split("{", 1)[0]
            if base not in typed:
                typed.add(base)
                lines.append(f"# TYPE {base} {kind}")

        for name, value in snap["counters"].items():
            declare(name, "counter")
            lines.append(f"{name} {value}")
        for name, value in snap["gauges"].items():
            declare(name, "gauge")
            lines.append(f"{name} {value:g}")
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if not isinstance(metric, LogHistogram):
                continue
            lines.extend(render_histogram_lines(
                metric.name, metric, labels=metric.labels))
        for provider, values in snap.get("providers", {}).items():
            for name, value in values.items():
                if not isinstance(value, (int, float)) or \
                        isinstance(value, bool):
                    continue
                declare(name, "gauge")
                lines.append(f"{name} {value:g}")
        return "\n".join(lines) + "\n"


def render_histogram_lines(family: str, histogram: LogHistogram,
                           labels: tuple = ()) -> list[str]:
    """Prometheus ``_bucket``/``_sum``/``_count`` lines for one histogram."""
    base = _label_suffix(labels)

    def with_le(upper: float) -> str:
        le = "+Inf" if upper == float("inf") else f"{upper:g}"
        pairs = list(labels) + [("le", le)]
        inner = ",".join(f'{k}="{v}"' for k, v in pairs)
        return "{" + inner + "}"

    lines = [f"# TYPE {family} histogram"]
    for upper, cumulative in histogram.bucket_counts():
        lines.append(f"{family}_bucket{with_le(upper)} {cumulative}")
    lines.append(f"{family}_sum{base} {histogram.sum:.6f}")
    lines.append(f"{family}_count{base} {histogram.count}")
    return lines


#: The process-wide registry every layer exports through.
REGISTRY = MetricsRegistry()


# ---------------------------------------------------------------- engine naming


#: Unified-name mapping of per-engine ``stats()`` sections (the old keys stay
#: in place as this release's alias layer; these are the canonical names).
_CACHE_LEVELS = ("plan", "population", "summary")
_CACHE_FIELDS = ("hits", "misses", "evictions", "invalidations", "entries")


def unified_engine_metrics(stats: dict) -> dict:
    """Flatten one engine's ``stats()`` dict into ``repro_<layer>_<name>`` keys.

    Covers the cache levels, serving counters, mask caches, and the global
    planner/parallel sections the engine already embeds.  Non-numeric values
    are skipped — the result is a flat ``{name: number}`` mapping.
    """
    out: dict[str, float] = {}
    for level in _CACHE_LEVELS:
        section = stats.get(f"{level}_cache") or {}
        for fieldname in _CACHE_FIELDS:
            if fieldname in section:
                out[f"repro_engine_{level}_cache_{fieldname}"] = \
                    section[fieldname]
    out["repro_engine_computations_total"] = stats.get("computations", 0)
    out["repro_engine_coalesced_total"] = stats.get("coalesced", 0)
    if "summaries_rejected" in stats:  # store-backed engines only
        out["repro_store_summaries_rejected_total"] = \
            stats["summaries_rejected"]
    masks = stats.get("mask_caches") or {}
    for fieldname in ("hits", "misses", "entries", "bytes"):
        if fieldname in masks:
            out[f"repro_maskcache_{fieldname}"] = masks[fieldname]
    for section_name, prefix in (("planner", "repro_planner"),
                                 ("parallel", "repro_parallel")):
        section = stats.get(section_name) or {}
        for key, value in section.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{prefix}_{key}"] = value
    http = stats.get("http") or {}
    if "requests_total" in http:
        out["repro_http_requests_total"] = http["requests_total"]
    if "shed_total" in http:
        out["repro_http_shed_total"] = http["shed_total"]
    return out
