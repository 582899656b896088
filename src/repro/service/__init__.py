"""The explanation-serving layer: a persistent engine above the framework.

``repro.service`` turns the one-shot ``CauSumX.explain`` pipeline into a
long-lived, cache-backed service: datasets are registered once, queries are
canonicalised and fingerprinted, summaries are served through a multi-level
cache hierarchy with single-flighted computation (the summary cache
optionally byte-capped), batches deduplicate repeated queries, and new data
arrives incrementally via versioned appends.  See
:class:`ExplanationEngine` for the full contract.
"""

from repro.service.engine import DatasetState, ExplanationEngine
from repro.service.lru import LRUCache, LRUStats
from repro.service.server import (OPS, ProtocolError, classify_error,
                                  dispatch_request, encode_response,
                                  error_envelope, finalize_response,
                                  handle_request, parse_request,
                                  read_queries, run_batch, serve_loop)

__all__ = [
    "DatasetState",
    "ExplanationEngine",
    "LRUCache",
    "LRUStats",
    "OPS",
    "ProtocolError",
    "classify_error",
    "dispatch_request",
    "encode_response",
    "error_envelope",
    "finalize_response",
    "handle_request",
    "parse_request",
    "read_queries",
    "run_batch",
    "serve_loop",
]
