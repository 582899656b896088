"""Span-based structured tracing with a strict no-op fast path.

One request produces one *span tree*: the front end opens a root span
(:func:`new_trace`), every layer underneath opens child spans
(:func:`trace_span`), and the assembled tree — names, monotonic durations,
attributes — answers "where did this query's 300ms go?" without a profiler.

Propagation is :mod:`contextvars`-based: the current span travels with the
logical call.  A request runs on the thread that received it — there is no
intra-request fan-out — so one thread builds each tree, and concurrent
requests on other handler threads carry their own contexts.

Tracing is **off by default** (``REPRO_TRACE=0``) and the disabled path is a
strict no-op: :func:`trace_span` returns one shared, stateless context
manager — no span allocation, no contextvar access, no timestamp — so hot
kernels pay a boolean check and nothing else.  Callers that would build
attribute dictionaries for a span should gate on :func:`enabled` first.

``REPRO_TRACE`` is read once, at import: :func:`enabled` is one global
read, since a summary-cache hit asks it several times.  Changing the
variable later changes nothing until :func:`set_enabled` ``(None)``
re-reads it; :func:`set_enabled` / the :func:`tracing` context manager are
the runtime switch (tests, benchmarks).
"""

from __future__ import annotations

import os
import time
import uuid
from contextvars import ContextVar

#: Environment variable enabling tracing ("1"/"true"/"yes"/"on" = enabled).
ENV_VAR = "REPRO_TRACE"

_TRUE = ("1", "true", "yes", "on")


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "0").strip().lower() in _TRUE


#: Whether tracing is on (module-level flag, written only by set_enabled();
#: plain reads are atomic under the GIL).
_enabled: bool = _env_enabled()


def enabled() -> bool:
    """Whether tracing is on."""
    return _enabled


def set_enabled(on: bool | None) -> None:
    """Switch tracing on/off; ``None`` re-reads ``REPRO_TRACE``."""
    global _enabled
    _enabled = _env_enabled() if on is None else on


class tracing:
    """Context manager pinning the tracing state (tests and benchmarks)."""

    def __init__(self, on: bool = True):
        self._on = on
        self._previous = False

    def __enter__(self):
        self._previous = _enabled
        set_enabled(self._on)
        return self

    def __exit__(self, *exc):
        set_enabled(self._previous)
        return False


def new_trace_id() -> str:
    """A fresh 16-hex-char trace identifier."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed node of a request's span tree."""

    __slots__ = ("name", "trace_id", "attrs", "children", "parent",
                 "_start_ns", "duration_ms")

    def __init__(self, name: str, trace_id: str | None = None,
                 parent: "Span | None" = None, attrs: dict | None = None):
        self.name = name
        self.parent = parent
        self.trace_id = trace_id if trace_id is not None else \
            (parent.trace_id if parent is not None else None)
        self.attrs = attrs if attrs is not None else {}
        self.children: list[Span] = []  # appended by finishing children
        self._start_ns = 0
        self.duration_ms: float | None = None

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes on this span."""
        self.attrs.update(attrs)
        return self

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span

    def to_dict(self) -> dict:
        """JSON-ready view of this span and its (finished) children."""
        out: dict = {"name": self.name}
        if self.duration_ms is not None:
            out["duration_ms"] = round(self.duration_ms, 3)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Span({self.name!r}, duration_ms={self.duration_ms}, "
                f"children={len(self.children)})")


class _NoopSpan:
    """The span every disabled ``with trace_span(...)`` yields: all no-ops."""

    __slots__ = ()
    name = ""
    trace_id = None
    duration_ms = None
    attrs: dict = {}
    children: list = []
    parent = None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def root(self) -> "_NoopSpan":
        return self

    def to_dict(self) -> dict:
        return {}


class _NoopContext:
    """Shared, stateless context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()
#: The one disabled-path context manager (reentrant: it holds no state).
NOOP = _NoopContext()

#: The span the current logical call is inside (travels via copy_context()).
_CURRENT: ContextVar[Span | None] = ContextVar("repro_obs_span", default=None)


class _SpanContext:
    """Live tracing context manager: opens a span, times it, links the tree."""

    __slots__ = ("_name", "_trace_id", "_attrs", "_span", "_token")

    def __init__(self, name: str, trace_id: str | None, attrs: dict):
        self._name = name
        self._trace_id = trace_id
        self._attrs = attrs
        self._span: Span | None = None
        self._token = None

    def __enter__(self) -> Span:
        parent = _CURRENT.get()
        span = Span(self._name, trace_id=self._trace_id, parent=parent,
                    attrs=self._attrs)
        if span.trace_id is None and parent is None:
            # A root without an externally-assigned id (e.g. the engine
            # called directly, no serving front) still gets a trace id so
            # telemetry records stay correlatable.
            span.trace_id = new_trace_id()
        span._start_ns = time.perf_counter_ns()
        self._span = span
        self._token = _CURRENT.set(span)
        return span

    def __exit__(self, *exc) -> bool:
        span = self._span
        span.duration_ms = (time.perf_counter_ns() - span._start_ns) / 1e6
        _CURRENT.reset(self._token)
        if span.parent is not None:
            span.parent.children.append(span)
        return False


def trace_span(name: str, **attrs):
    """Open a child span under the current one (no-op when disabled).

    Usage::

        with trace_span("engine.view_materialize", fingerprint=fp) as span:
            ...
            span.set(rows=view.table.n_rows)
    """
    if not enabled():
        return NOOP
    return _SpanContext(name, None, attrs)


def new_trace(name: str, trace_id: str | None = None, **attrs):
    """Open a *root* span carrying ``trace_id`` (no-op when disabled).

    Front ends call this once per request; ``trace_id`` defaults to a fresh
    :func:`new_trace_id`.  Nested calls start a fresh subtree with their own
    trace id (the previous context is restored on exit).
    """
    if not enabled():
        return NOOP
    return _SpanContext(name, trace_id or new_trace_id(), attrs)


def current_span() -> Span | None:
    """The span the calling context is inside, or ``None``."""
    return _CURRENT.get()


def current_root() -> Span | None:
    """The root span of the current trace, or ``None``."""
    span = _CURRENT.get()
    return span.root() if span is not None else None


def current_trace_id() -> str | None:
    """The trace id of the current request, or ``None``."""
    span = _CURRENT.get()
    return span.trace_id if span is not None else None


def set_root_attr(**attrs) -> None:
    """Attach attributes to the current trace's root span (if tracing)."""
    span = _CURRENT.get()
    if span is not None:
        span.root().set(**attrs)


def set_current_attr(**attrs) -> None:
    """Attach attributes to the current span (if tracing)."""
    span = _CURRENT.get()
    if span is not None:
        span.set(**attrs)


def span_dict(span) -> dict | None:
    """``span.to_dict()`` for real spans, ``None`` for the no-op span."""
    if span is None or span is NOOP_SPAN:
        return None
    return span.to_dict()
