"""Request-parsing and dispatch core shared by every engine front end.

Three entry points are wired into the CLI:

* :func:`serve_loop` — a JSON-lines request/response loop (``repro serve``).
  Each input line is either a bare SQL string (shorthand for an ``explain``
  request) or a JSON object::

      {"op": "explain", "query": "SELECT ...", "id": 7}
      {"op": "explain_plan", "query": "SELECT ..."}
      {"op": "batch", "queries": ["SELECT ...", ...]}
      {"op": "append_rows", "rows": [{"A": 1, ...}, ...]}
      {"op": "stats"}
      {"op": "snapshot"}        # persist warm state to the backing store
      {"op": "quit"}

  Every request yields exactly one JSON response line with ``"ok"`` set, the
  request's ``"id"`` echoed back (when given), and either the payload or an
  ``"error"`` string; ``quit`` is acknowledged with ``{"ok": true, "quit":
  true}`` before the loop stops.  The loop never crashes on a bad request.

* :func:`run_batch` — read a file of queries (one SQL statement per line,
  ``#`` comments allowed, or a JSON array of strings), serve them one by
  one (a repeated query is a summary-cache hit), and emit the JSON
  summaries (``repro batch``).

* The HTTP tier (:mod:`repro.net`) calls :func:`dispatch_request` /
  :func:`error_envelope` directly and writes with :func:`encode_response`,
  so an HTTP response body is byte-for-byte the line the stdin loop would
  have written for the same request.

Errors are *structured*: every failure envelope carries ``"error_code"`` —
``bad_request`` (malformed JSON / SQL / arguments), ``unknown_op``,
``unknown_dataset``, or ``internal`` — so transports can map failures onto
their own status vocabulary (the HTTP tier uses 400/404/404/500) without
string-matching.  The stdin loop keeps the same ``ok``/``error`` envelope it
always had; ``error_code`` is an additional key.
"""

from __future__ import annotations

import json
import time
from typing import IO, Iterable

from repro.core import EncodedSummary, summary_to_dict
from repro.obs import trace
from repro.service.engine import ExplanationEngine

#: Every op the dispatch core understands (``quit`` is loop-only: the HTTP
#: tier refuses it with ``unknown_op`` and shuts down via signals instead).
OPS = ("explain", "explain_plan", "batch", "append_rows", "stats", "snapshot")


class ProtocolError(Exception):
    """A request failure with a machine-readable ``code``.

    ``code`` is one of ``bad_request`` / ``unknown_op`` / ``unknown_dataset``
    / ``internal`` for failures raised by the dispatch core; transports may
    define additional codes (the HTTP tier adds ``shed``, ``draining``, and
    ``deadline_exceeded``).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def classify_error(exc: BaseException) -> str:
    """The ``error_code`` for an exception escaping an op handler.

    Value/key/type errors come from the request's own content (bad SQL, a
    schema mismatch, wrong argument shapes) and are the client's fault;
    anything else is an ``internal`` failure of the server.
    """
    if isinstance(exc, ProtocolError):
        return exc.code
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return "bad_request"
    return "internal"


def error_envelope(exc: BaseException) -> dict:
    """The ``{"ok": false, ...}`` response body for a failed request."""
    if isinstance(exc, ProtocolError):
        return {"ok": False, "error": str(exc), "error_code": exc.code}
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
            "error_code": classify_error(exc)}


def parse_request(line: str) -> dict:
    """Parse one request line into a request dict.

    A bare SQL string is shorthand for ``{"op": "explain", "query": ...}``.
    Raises :class:`ProtocolError` (``bad_request``) on malformed input.
    """
    line = line.strip()
    if not line:
        raise ProtocolError("bad_request", "empty request")
    if not line.startswith("{"):
        return {"op": "explain", "query": line}
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"invalid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError(
            "bad_request", "request must be a JSON object or a SQL string")
    return request


def _require(request: dict, field: str):
    try:
        return request[field]
    except KeyError:
        raise ProtocolError(
            "bad_request",
            f"request op {request.get('op')!r} requires field {field!r}"
        ) from None


def dispatch_request(engine: ExplanationEngine, dataset: str, request: dict,
                     deadline=None) -> dict:
    """Execute one parsed request and return its success envelope.

    This is the dispatch core every front end shares: the stdin loop wraps it
    in :func:`handle_request`, the HTTP tier calls it directly.  Failures are
    raised (:class:`ProtocolError` for structured protocol failures, the
    original exception otherwise); use :func:`error_envelope` to format them.

    ``deadline`` is an optional cooperative-cancellation hook: any object
    with a ``check()`` method raising on expiry (see
    :class:`repro.net.Deadline`).  It is consulted at op boundaries — before
    the op starts and, for ``batch``, between queries — never mid-kernel, so
    a response that does come back is always a complete, correct one.

    An ``explain`` envelope's ``"result"`` is the summary-cache entry
    (:class:`~repro.core.EncodedSummary`): :func:`encode_response` splices
    its body, encoded once per entry, where ``summary_to_dict`` would be.
    """
    op = request.get("op", "explain")
    target = request.get("dataset", dataset)
    if op == "quit":
        return {"ok": True, "quit": True}
    if op not in OPS:
        raise ProtocolError("unknown_op", f"unknown op {op!r}")
    if deadline is not None:
        deadline.check(f"op {op!r}")
    if op in ("explain", "explain_plan", "batch", "append_rows"):
        try:
            engine.dataset_state(target)
        except KeyError as exc:
            raise ProtocolError("unknown_dataset", str(exc).strip('"\'')) \
                from exc
    if op == "explain":
        _, info = engine.explain_with_info(target, _require(request, "query"))
        return {"ok": True, "result": info["entry"],
                "cached": info["cached"], "coalesced": info["coalesced"],
                "fingerprint": info["fingerprint"],
                "version": info["version"]}
    if op == "explain_plan":
        return {"ok": True,
                "result": engine.explain_plan(target, _require(request, "query"))}
    if op == "batch":
        summaries = _explain_each(engine, target,
                                 list(_require(request, "queries")), deadline)
        return {"ok": True,
                "results": [summary_to_dict(s) for s in summaries]}
    if op == "append_rows":
        return {"ok": True,
                "result": engine.append_rows(target, _require(request, "rows"))}
    if op == "stats":
        return {"ok": True, "result": engine.stats()}
    # snapshot
    return {"ok": True, "result": engine.snapshot()}


def _explain_each(engine: ExplanationEngine, dataset: str, queries: list,
                 deadline=None) -> list:
    """Serve a batch one query at a time: a repeated query is a summary-cache
    hit, and an expired ``deadline`` stops the batch at the next query."""
    summaries = []
    for query in queries:
        if deadline is not None:
            deadline.check("batch query")
        summaries.append(engine.explain(dataset, query))
    return summaries


def finalize_response(response: dict, request_id=None, trace_id=None,
                      duration_ms=None) -> dict:
    """Append the envelope tail fields in their one deterministic order.

    Every front end (stdin loop, HTTP tier) finishes its envelope here, so
    ``id`` → ``trace_id`` → ``duration_ms`` always appear in that order at
    the end of the body.  With tracing off, ``trace_id``/``duration_ms`` are
    ``None`` and nothing is appended — the body is byte-identical to a build
    without observability.  With tracing on, the fixed ordering means a
    byte-identity check only has to pop the two volatile trailing fields.
    """
    if request_id is not None:
        response["id"] = request_id
    if trace_id is not None:
        response["trace_id"] = trace_id
    if duration_ms is not None:
        response["duration_ms"] = round(duration_ms, 3)
    return response


def encode_response(response: dict) -> str:
    """One response line: ``json.dumps(response, default=str) + "\\n"``.

    An explain envelope's summary is not re-serialised: the entry's body,
    encoded once, is spliced between the encodings of the keys before and
    after ``"result"``, and JSON's nesting makes the line byte-identical.
    """
    result = response.get("result")
    if not isinstance(result, EncodedSummary):
        return json.dumps(response, default=str) + "\n"
    keys = list(response)
    at = keys.index("result")
    head = json.dumps({k: response[k] for k in keys[:at]}, default=str)[:-1]
    tail = json.dumps({k: response[k] for k in keys[at + 1:]},
                      default=str)[1:]
    return (head + (", " if at else "") + '"result": ' + result.body()
            + (", " if tail != "}" else "") + tail + "\n")


def handle_request(engine: ExplanationEngine, dataset: str, line: str) -> dict:
    """Handle one request line and return the JSON-compatible response dict.

    A ``quit`` request is acknowledged with ``{"ok": True, "quit": True}`` —
    the caller decides to stop on the ``"quit"`` marker.
    """
    response = _respond(engine, dataset, line)
    result = response.get("result")
    if isinstance(result, EncodedSummary):
        response["result"] = summary_to_dict(result.summary())
    return response


def _respond(engine: ExplanationEngine, dataset: str, line: str) -> dict:
    """:func:`handle_request` with an explain result left as its entry."""
    request_id = None
    traced = trace.enabled()
    started = time.perf_counter() if traced else 0.0
    trace_id = trace.new_trace_id() if traced else None
    with trace.new_trace("serve.request", trace_id=trace_id):
        try:
            request = parse_request(line)
            request_id = request.get("id")
            response = dispatch_request(engine, dataset, request)
        except Exception as exc:  # noqa: BLE001 — protocol boundary, report and carry on
            response = error_envelope(exc)
    duration_ms = (time.perf_counter() - started) * 1000.0 if traced else None
    return finalize_response(response, request_id, trace_id, duration_ms)


def serve_loop(engine: ExplanationEngine, dataset: str,
               lines: Iterable[str], out: IO[str]) -> int:
    """Run the JSON-lines loop until EOF or a ``quit`` request.

    Returns the number of requests handled.
    """
    handled = 0
    for line in lines:
        if not line.strip():
            continue
        response = _respond(engine, dataset, line)
        handled += 1
        out.write(encode_response(response))
        out.flush()
        if response.get("quit"):
            break
    return handled


def read_queries(text: str) -> list[str]:
    """Parse a batch-query file: a JSON array of strings, or one SQL per line."""
    stripped = text.strip()
    if stripped.startswith("["):
        queries = json.loads(stripped)
        if not isinstance(queries, list) or \
                not all(isinstance(q, str) for q in queries):
            raise ValueError("JSON query file must be an array of SQL strings")
        return queries
    return [line.strip() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def run_batch(engine: ExplanationEngine, dataset: str,
              queries: list[str], out: IO[str]) -> list[dict]:
    """Serve a list of queries and write one JSON array of summaries to ``out``."""
    summaries = _explain_each(engine, dataset, queries)
    payload = [summary_to_dict(s) for s in summaries]
    json.dump(payload, out, indent=2, default=str)
    out.write("\n")
    out.flush()
    return payload
