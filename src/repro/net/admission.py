"""Admission control for the HTTP serving tier: queue bounds and deadlines.

A thread-per-connection HTTP server accepts work as fast as clients send it;
without a gate, a traffic spike turns into unbounded threads all contending
for the same engines and every response getting slower together.  The
:class:`AdmissionController` puts a fixed ceiling on concurrently *executing*
requests (``max_inflight``), a fixed ceiling on requests *waiting* for an
execution slot (``max_queue``), and an optional per-tenant ceiling across
both (``tenant_inflight``).  Everything beyond those bounds is shed
immediately — a fast 429, costing the server one lock acquisition — instead
of being queued into oblivion.

Deadlines compose with the queue: a request that cannot get a slot before
its deadline leaves the queue with :class:`DeadlineExceeded` (the HTTP tier
maps it to 504), and the same :class:`Deadline` object travels into the
dispatch core for cooperative cancellation at op boundaries.

Shutdown is graceful: :meth:`AdmissionController.close` sheds new arrivals
with the ``draining`` code (503) while :meth:`drain` blocks until every
admitted request has finished — the server snapshots warm state only after
the drain completes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.analysis.lockwatch import named_lock
from repro.obs import trace
from repro.obs.registry import REGISTRY


class RequestShed(Exception):
    """The request was refused without being executed (fast 429/503)."""

    def __init__(self, message: str, code: str = "shed"):
        super().__init__(message)
        self.code = code


class DeadlineExceeded(Exception):
    """The request's deadline expired before (or between) op execution."""

    code = "deadline_exceeded"


class Deadline:
    """A per-request wall-clock budget with cooperative checkpoints.

    Monotonic-clock based; ``check()`` raises :class:`DeadlineExceeded` once
    the budget is spent.  The dispatch core calls ``check()`` at op
    boundaries only — a started kernel always runs to completion, so every
    response that is produced is complete and correct.
    """

    __slots__ = ("seconds", "expires_at")

    def __init__(self, seconds: float):
        seconds = float(seconds)
        # NaN fails both comparisons; past TIMEOUT_MAX a queued wait would
        # raise OverflowError instead of timing out.
        if not 0.0 < seconds <= threading.TIMEOUT_MAX:
            raise ValueError(f"deadline must be a finite positive number of "
                             f"seconds, at most {threading.TIMEOUT_MAX:g}")
        self.seconds = seconds
        self.expires_at = time.monotonic() + self.seconds

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, stage: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"deadline of {self.seconds:g}s expired before {stage}")


class AdmissionController:
    """Bounded admission with fast shedding, per-tenant caps, and draining.

    Parameters
    ----------
    max_inflight:
        Requests allowed to execute concurrently.  This bounds concurrent
        *requests*, not concurrent mining: however many are admitted,
        each tenant's engine computes one summary at a time (hits, appends
        and stats run beside it; see :mod:`repro.service.engine`).
    max_queue:
        Requests allowed to wait for an execution slot; arrivals beyond
        ``max_inflight + max_queue`` are shed immediately with
        :class:`RequestShed` (HTTP 429).
    tenant_inflight:
        Optional ceiling on one tenant's requests inside the controller
        (queued + executing); ``None`` disables the per-tenant cap.
    """

    def __init__(self, max_inflight: int = 8, max_queue: int = 64,
                 tenant_inflight: int | None = None):
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if tenant_inflight is not None and tenant_inflight < 1:
            raise ValueError("tenant_inflight must be at least 1 (or None)")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.tenant_inflight = tenant_inflight
        self._lock = named_lock("AdmissionController._lock")
        self._cond = threading.Condition(self._lock)
        self._inflight = 0  # guarded-by: _lock
        self._queued = 0  # guarded-by: _lock
        self._per_tenant: dict[str, int] = {}  # guarded-by: _lock
        self._closing = False  # guarded-by: _lock
        self._admitted = 0  # guarded-by: _lock
        self._shed = 0  # guarded-by: _lock
        self._deadline_rejects = 0  # guarded-by: _lock
        self._peak_inflight = 0  # guarded-by: _lock
        self._peak_queued = 0  # guarded-by: _lock
        self._queue_waits = 0  # guarded-by: _lock
        self._queue_wait_seconds = 0.0  # guarded-by: _lock

    # ------------------------------------------------------------------ admission

    @contextmanager
    def admit(self, tenant: str, deadline: Deadline | None = None):
        """Hold one execution slot for the duration of the ``with`` block.

        Raises :class:`RequestShed` when the queue is full, the tenant is at
        its cap, or the controller is draining — all without blocking.
        Raises :class:`DeadlineExceeded` when the deadline expires while
        queued.
        """
        self._enter(tenant, deadline)
        try:
            yield
        finally:
            self._leave(tenant)

    def _enter(self, tenant: str, deadline: Deadline | None) -> None:
        queued_at = None
        with self._lock:
            if self._closing:
                self._shed += 1
                raise RequestShed("server is draining", code="draining")
            cap = self.tenant_inflight
            held = self._per_tenant.get(tenant, 0)
            if cap is not None and held >= cap:
                self._shed += 1
                raise RequestShed(
                    f"tenant {tenant!r} is at its in-flight cap ({cap})")
            if self._inflight >= self.max_inflight:
                if self._queued >= self.max_queue:
                    self._shed += 1
                    raise RequestShed(
                        f"admission queue is full "
                        f"({self.max_inflight} in flight, "
                        f"{self.max_queue} queued)")
                self._per_tenant[tenant] = held + 1
                self._queued += 1
                if self._queued > self._peak_queued:
                    self._peak_queued = self._queued
                queued_at = time.monotonic()
                admitted = False
                try:
                    while self._inflight >= self.max_inflight:
                        if self._closing:
                            self._shed += 1
                            raise RequestShed("server is draining",
                                              code="draining")
                        timeout = None
                        if deadline is not None:
                            timeout = deadline.remaining()
                            if timeout <= 0:
                                self._deadline_rejects += 1
                                raise DeadlineExceeded(
                                    f"deadline of {deadline.seconds:g}s "
                                    f"expired while queued for admission")
                        self._cond.wait(timeout)
                    admitted = True
                finally:
                    self._queued -= 1
                    if not admitted:
                        self._drop_tenant_locked(tenant)
            else:
                self._per_tenant[tenant] = held + 1
            self._inflight += 1
            self._admitted += 1
            if self._inflight > self._peak_inflight:
                self._peak_inflight = self._inflight
            if queued_at is not None:
                waited = time.monotonic() - queued_at
                self._queue_waits += 1
                self._queue_wait_seconds += waited
        # Observability happens outside _lock: the histogram has its own
        # lock, and the tracer touches no controller state.
        if queued_at is not None:
            REGISTRY.histogram(
                "repro_admission_queue_wait_seconds").observe(waited)
            trace.set_root_attr(queue_wait_ms=round(waited * 1000.0, 3))

    def _leave(self, tenant: str) -> None:
        with self._lock:
            self._inflight -= 1
            self._drop_tenant_locked(tenant)
            self._cond.notify_all()

    def _drop_tenant_locked(self, tenant: str) -> None:  # guarded-by: _lock
        remaining = self._per_tenant.get(tenant, 1) - 1
        if remaining > 0:
            self._per_tenant[tenant] = remaining
        else:
            self._per_tenant.pop(tenant, None)

    # ------------------------------------------------------------------ shutdown

    def close(self) -> None:
        """Start draining: shed every new arrival with the ``draining`` code."""
        with self._lock:
            self._closing = True
            self._cond.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until nothing is queued or executing; ``True`` when empty."""
        limit = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._inflight or self._queued:
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "tenant_inflight": self.tenant_inflight,
                "inflight": self._inflight,
                "queued": self._queued,
                "admitted": self._admitted,
                "shed": self._shed,
                "deadline_rejects": self._deadline_rejects,
                "peak_inflight": self._peak_inflight,
                "peak_queued": self._peak_queued,
                "queue_waits": self._queue_waits,
                "queue_wait_seconds": round(self._queue_wait_seconds, 6),
                "closing": self._closing,
            }
