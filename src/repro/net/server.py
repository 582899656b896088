"""The HTTP/1.1 front end over the explanation-engine dispatch core.

Built on the standard library's ``ThreadingHTTPServer`` — no new runtime
dependencies — this module exposes the same six ops the JSON-lines loop
serves (:data:`repro.service.server.OPS`) as ``POST /v1/<op>``, plus::

    GET /healthz            liveness (``serving`` / ``draining``)
    GET /metrics            serving metrics: JSON, or Prometheus-style text
                            with ``?format=text`` (or ``Accept: text/plain``)

Byte-compatibility is a hard contract: a ``POST /v1/explain`` response body
is exactly the line :func:`repro.service.serve_loop` would have written for
the same request against the same engine — both fronts call the same
:func:`~repro.service.server.dispatch_request` and serialize with the same
:func:`~repro.service.server.encode_response`, whose line is
``json.dumps(response, default=str) + "\\n"``.

The handler reads the request head itself, not through the ``email``
package, under ``http.server``'s limits and RFC 9112 §5's rules.

Request headers:

``X-Repro-Tenant``
    Tenant name (default ``"default"``); each tenant gets an isolated engine
    via the :class:`~repro.net.registry.TenantRegistry`.
``X-Repro-Deadline-Ms``
    Per-request deadline in milliseconds, overriding the server default;
    anything but a finite positive number is a 400.  Expiry while queued
    or between ops returns 504.
``X-Repro-Trace-Id``
    With tracing enabled (``REPRO_TRACE=1``), the trace id to use for this
    request (one is generated when absent).  The id in effect is echoed in
    the ``X-Repro-Trace-Id`` response header and as the envelope's
    ``trace_id`` field — on error envelopes too.  Ignored when tracing is
    off, keeping response bodies byte-identical to the untraced build.

Failure statuses mirror the structured protocol errors: 400 ``bad_request``,
404 ``unknown_op``/``unknown_dataset``, 429 ``shed``, 500 ``internal``,
503 ``draining``, 504 ``deadline_exceeded``.
"""

from __future__ import annotations

import io
import json
import re
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.net.admission import (AdmissionController, Deadline,
                                 DeadlineExceeded, RequestShed)
from repro.net.metrics import ServingMetrics
from repro.net.registry import TenantRegistry
from repro.obs import trace
from repro.obs.registry import REGISTRY
from repro.service.server import (OPS, ProtocolError, classify_error,
                                  dispatch_request, encode_response,
                                  error_envelope, finalize_response)

#: HTTP status for each structured error code.
STATUS_BY_CODE = {
    "bad_request": 400,
    "unknown_op": 404,
    "unknown_dataset": 404,
    "internal": 500,
    "shed": 429,
    "draining": 503,
    "deadline_exceeded": 504,
}

DEFAULT_TENANT = "default"

#: ``http.server``'s head limits: bytes a line, lines a head (the blank
#: line that ends the head counts, as in ``http.client``).
MAX_LINE, MAX_HEAD_LINES = 65536, 100
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class ReproHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to a tenant registry.

    One handler thread per connection; real concurrency is bounded by the
    attached :class:`~repro.net.AdmissionController`, not by the thread
    count.
    """

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog (5) resets connections when
    # hundreds of clients connect in the same instant; admission control is
    # the intended gate, so accept generously and shed explicitly.
    request_queue_size = 512

    def __init__(self, address, registry: TenantRegistry,
                 admission: AdmissionController | None = None,
                 metrics: ServingMetrics | None = None,
                 default_deadline: float | None = None):
        self.registry = registry
        self.admission = admission if admission is not None \
            else AdmissionController()
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.default_deadline = default_deadline
        registry.on_materialize(
            lambda engine: engine.attach_http_metrics(self.metrics))
        super().__init__(address, _Handler)

    def graceful_shutdown(self, drain_timeout: float | None = 10.0) -> dict:
        """Drain, snapshot, and close: the SIGTERM path.

        New arrivals are shed with 503 immediately; requests already
        admitted (or queued) get up to ``drain_timeout`` seconds to finish;
        then every store-backed tenant engine snapshots its warm state.
        Safe to call after ``serve_forever`` has returned.
        """
        self.admission.close()
        self.shutdown()  # no-op if the serve loop already stopped
        drained = self.admission.drain(drain_timeout)
        snapshots = self.registry.snapshot_all()
        self.server_close()
        return {"drained": drained, "snapshots": snapshots}


def create_server(registry: TenantRegistry, host: str = "127.0.0.1",
                  port: int = 0, *, max_inflight: int = 8,
                  max_queue: int = 64, tenant_inflight: int | None = None,
                  default_deadline: float | None = None) -> ReproHTTPServer:
    """Build a ready-to-serve :class:`ReproHTTPServer` (port 0 = ephemeral)."""
    admission = AdmissionController(max_inflight=max_inflight,
                                    max_queue=max_queue,
                                    tenant_inflight=tenant_inflight)
    return ReproHTTPServer((host, port), registry, admission=admission,
                           default_deadline=default_deadline)


def serve_in_thread(server: ReproHTTPServer) -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests, embedding)."""
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-http-serve", daemon=True)
    thread.start()
    return thread


class _Head(dict):
    """Header fields by lower-cased name; :meth:`get` is case-insensitive."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ReproHTTPServer  # narrowed from BaseServer for attribute access

    # ------------------------------------------------------------------ head

    def parse_request(self) -> bool:
        """Read the request line and header fields; on a refusal, send the
        error and return ``False`` (the ``http.server`` contract).

        Header names match case-insensitively and a field's first
        occurrence wins; an obs-fold line, a line without ``:`` and two
        different ``Content-Length`` values are a 400.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            # Set first, so a refused version still gets a status line.
            self.request_version = version = words[-1]
            number = _VERSION.fullmatch(version)
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request version ({version!r})")
                return False
            if int(number[1]) >= 2:
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = (int(number[1]), int(number[2])) < (1, 1)
        if not 2 <= len(words) <= 3 or len(words) == 2 and words[0] != "GET":
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request syntax ({self.requestline!r})")
            return False
        self.command, self.path = words[:2]
        if self.path.startswith("//"):  # never an absolute URI (gh-87389)
            self.path = "/" + self.path.lstrip("/")
        self.headers = headers = _Head()
        for _ in range(MAX_HEAD_LINES):
            line = self.rfile.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                                "Line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            name, value = name.lower(), value.strip(" \t\r\n")
            # An obs-fold line starts with whitespace; none may precede ":".
            malformed = not colon or not name or name[0] in " \t" \
                or name[-1] in " \t"
            if malformed or (name == "content-length"
                             and headers.get(name, value) != value):
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            headers.setdefault(name, value)
        else:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Too many headers")
            return False
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if headers.get("expect", "").lower() == "100-continue" and \
                self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    # ------------------------------------------------------------------ GET

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        started = time.monotonic()
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            closing = self.server.admission.stats()["closing"]
            body = {"ok": True,
                    "status": "draining" if closing else "serving"}
            self._send_json(200, body)
            self._record("healthz", 200, started)
        elif parts.path == "/metrics":
            query = parse_qs(parts.query)
            wants_text = query.get("format", [""])[0] == "text" or \
                "text/plain" in self.headers.get("Accept", "")
            if wants_text:
                self._send_text(200, self.server.metrics.render_text()
                                + REGISTRY.render_prometheus())
            else:
                body = {"ok": True,
                        "http": self.server.metrics.snapshot(),
                        "admission": self.server.admission.stats(),
                        "tenants": self.server.registry.tenants(),
                        "unified": REGISTRY.snapshot()}
                self._send_json(200, body)
            self._record("metrics", 200, started)
        else:
            envelope = {"ok": False,
                        "error": f"unknown path {parts.path!r}",
                        "error_code": "unknown_op"}
            self._send_json(404, envelope)
            self._record("unknown", 404, started)

    # ------------------------------------------------------------------ POST

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        started = time.monotonic()
        server = self.server
        op = "unknown"
        tenant = self.headers.get("X-Repro-Tenant", DEFAULT_TENANT)
        request: dict = {}
        traced = trace.enabled()
        # Clients may supply their own id for cross-service correlation;
        # either way the id used is echoed in the envelope and the
        # X-Repro-Trace-Id response header — including on error envelopes.
        trace_id = (self.headers.get("X-Repro-Trace-Id")
                    or trace.new_trace_id()) if traced else None
        with trace.new_trace("http.request", trace_id=trace_id,
                             tenant=tenant):
            try:
                op = self._path_op()
                request = self._read_request(op)
                deadline = self._deadline()
                with server.admission.admit(tenant, deadline):
                    engine = server.registry.engine_for(tenant)
                    response = dispatch_request(
                        engine, server.registry.default_dataset, request,
                        deadline=deadline)
                status = 200
            except (RequestShed, DeadlineExceeded) as exc:
                response = {"ok": False, "error": str(exc),
                            "error_code": exc.code}
                status = STATUS_BY_CODE[exc.code]
            except Exception as exc:  # noqa: BLE001 — protocol boundary
                response = error_envelope(exc)
                status = STATUS_BY_CODE.get(classify_error(exc), 500)
        duration_ms = (time.monotonic() - started) * 1000.0 if traced else None
        finalize_response(response, request.get("id"), trace_id, duration_ms)
        self._trace_id = trace_id
        self._send_json(status, response)
        self._trace_id = None
        self._record(op, status, started, tenant)

    # ------------------------------------------------------------------ helpers

    def _path_op(self) -> str:
        path = urlsplit(self.path).path
        if not path.startswith("/v1/"):
            raise ProtocolError("unknown_op", f"unknown path {path!r}")
        op = path[len("/v1/"):]
        if op not in OPS:
            raise ProtocolError("unknown_op", f"unknown op {op!r}")
        return op

    def _read_request(self, op: str) -> dict:
        """Parse the body into a request dict, pinning ``op`` from the path.

        An empty body is a bare ``{"op": op}`` request (``stats``,
        ``snapshot``); a JSON object body supplies the op's fields.  A body
        whose own ``"op"`` disagrees with the path is refused rather than
        silently rerouted.
        """
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length < 0:
                raise ValueError
        except ValueError:
            # The body's framing is lost: answer, then close (RFC 9112 §6.3).
            self.close_connection = True
            raise ProtocolError("bad_request",
                                "invalid Content-Length header") from None
        raw = self.rfile.read(length).decode("utf-8") if length else ""
        if not raw.strip():
            return {"op": op}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError("bad_request",
                                f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise ProtocolError("bad_request",
                                "request body must be a JSON object")
        body_op = body.get("op")
        if body_op is not None and body_op != op:
            raise ProtocolError(
                "bad_request",
                f"body op {body_op!r} disagrees with path op {op!r}")
        body["op"] = op
        return body

    def _deadline(self) -> Deadline | None:
        header = self.headers.get("X-Repro-Deadline-Ms")
        if header is None:
            if self.server.default_deadline is None:
                return None
            return Deadline(self.server.default_deadline)
        try:
            return Deadline(float(header) / 1000.0)
        except ValueError:
            raise ProtocolError(
                "bad_request",
                f"X-Repro-Deadline-Ms must be a finite positive number, "
                f"got {header!r}") from None

    def _send_json(self, status: int, payload: dict) -> None:
        # Exactly the bytes serve_loop writes for the same response dict —
        # the byte-compatibility contract between the two front ends.
        self._send_bytes(status, encode_response(payload).encode("utf-8"),
                         "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send_bytes(status, text.encode("utf-8"),
                         "text/plain; charset=utf-8")

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        # One socket write per response.  ``end_headers()`` flushes the header
        # block to the unbuffered ``wfile`` on its own; the body would follow
        # as a second small segment, which Nagle holds back until the client's
        # delayed ACK — ~40 ms on every keep-alive response.  So the base
        # class writes the head into a buffer and head + body leave together.
        head = io.BytesIO()
        socket_file, self.wfile = self.wfile, head
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            trace_id = getattr(self, "_trace_id", None)
            if trace_id is not None:
                self.send_header("X-Repro-Trace-Id", trace_id)
            self.end_headers()
        finally:
            self.wfile = socket_file
        try:
            self.wfile.write(head.getvalue() + body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to report to it

    def _record(self, op: str, status: int, started: float,
                tenant: str | None = None) -> None:
        self.server.metrics.record(op, status, time.monotonic() - started,
                                   tenant)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging; metrics carry the signal."""
