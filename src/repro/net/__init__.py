"""The concurrent multi-tenant HTTP serving tier (stdlib-only).

Layers, bottom-up:

* :mod:`repro.net.admission` — bounded admission with fast 429 shedding,
  per-tenant in-flight caps, per-request deadlines, graceful draining.
* :mod:`repro.net.metrics` — request counters and a latency ring buffer,
  surfaced via ``GET /metrics`` and the engine's ``stats`` op.
* :mod:`repro.net.registry` — one isolated engine (its own caches, byte
  cap included) per tenant, lazily materialized from a shared store or
  in-memory dataset.
* :mod:`repro.net.server` — the ``ThreadingHTTPServer`` front end mapping
  ``POST /v1/<op>`` onto the same dispatch core the JSON-lines loop uses,
  byte-identical response bodies included.
"""

from repro.net.admission import (AdmissionController, Deadline,
                                 DeadlineExceeded, RequestShed)
from repro.net.metrics import ServingMetrics
from repro.net.registry import TenantRegistry, validate_tenant
from repro.net.server import (DEFAULT_TENANT, STATUS_BY_CODE, ReproHTTPServer,
                              create_server, serve_in_thread)

__all__ = [
    "AdmissionController",
    "Deadline",
    "DeadlineExceeded",
    "RequestShed",
    "ServingMetrics",
    "TenantRegistry",
    "validate_tenant",
    "ReproHTTPServer",
    "create_server",
    "serve_in_thread",
    "DEFAULT_TENANT",
    "STATUS_BY_CODE",
]
