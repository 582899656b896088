"""Export explanation summaries to machine-readable and report formats.

:func:`summary_to_dict` is the presentation form (the HTTP body): it drops
grouping support and the estimator name and reorders patterns by weight.
:func:`encode_summary` / :func:`decode_summary` are the *exact* codec the
store's summary snapshot uses: a decoded summary is dataclass-equal to the
encoded one, leaf types included, and every body is schema-checked on decode
(:class:`SummaryCodecError` otherwise) — no code runs on load.
"""

from __future__ import annotations

import json
from typing import Any

from repro.causal import EffectEstimate
from repro.core.patterns import ExplanationPattern, ExplanationSummary
from repro.core.render import describe_pattern
from repro.dataframe import Op, Pattern, Predicate
from repro.mining.grouping import GroupingPattern
from repro.mining.treatments import TreatmentCandidate


def pattern_to_dict(pattern: Pattern) -> list[dict]:
    """Serialise a conjunctive pattern as a list of predicate dictionaries."""
    return [{"attribute": p.attribute, "op": p.op.value, "value": p.value}
            for p in pattern]


def pattern_from_dict(spec: list[dict]) -> Pattern:
    """Inverse of :func:`pattern_to_dict`."""
    return Pattern(Predicate(item["attribute"], item["op"], item["value"])
                   for item in spec)


def explanation_to_dict(pattern: ExplanationPattern) -> dict[str, Any]:
    """Serialise one explanation pattern."""
    payload: dict[str, Any] = {
        "grouping_pattern": pattern_to_dict(pattern.grouping_pattern),
        "covered_groups": [list(key) for key in sorted(pattern.covered_groups, key=repr)],
        "explainability": pattern.explainability,
    }
    for direction, candidate in (("positive", pattern.positive),
                                 ("negative", pattern.negative)):
        if candidate is None:
            payload[direction] = None
        else:
            payload[direction] = {
                "treatment_pattern": pattern_to_dict(candidate.pattern),
                "cate": candidate.estimate.value,
                "std_error": candidate.estimate.std_error,
                "p_value": candidate.estimate.p_value,
                "n_treated": candidate.estimate.n_treated,
                "n_control": candidate.estimate.n_control,
            }
    return payload


def summary_to_dict(summary: ExplanationSummary) -> dict[str, Any]:
    """Serialise a whole explanation summary (JSON-compatible)."""
    return {
        "k": summary.k,
        "theta": summary.theta,
        "coverage": summary.coverage,
        "total_explainability": summary.total_explainability,
        "feasible": summary.feasible,
        "n_candidates": summary.n_candidates,
        "groups": [list(key) for key in summary.all_groups],
        "timings": dict(summary.timings),
        "patterns": [explanation_to_dict(p) for p in summary.sorted_by_weight()],
    }


def summary_to_json(summary: ExplanationSummary, indent: int = 2) -> str:
    """Serialise a summary to a JSON string."""
    return json.dumps(summary_to_dict(summary), indent=indent, default=str)


def summary_to_markdown(summary: ExplanationSummary, outcome: str = "the outcome") -> str:
    """Render a summary as a Markdown report (one section per explanation pattern)."""
    lines = ["# Causal explanation summary", "",
             f"- explanation patterns: {len(summary)} (k = {summary.k})",
             f"- coverage: {summary.coverage:.0%} of {len(summary.all_groups)} groups "
             f"(θ = {summary.theta})",
             f"- total explainability: {summary.total_explainability:,.4g}", ""]
    for i, pattern in enumerate(summary.sorted_by_weight(), 1):
        lines.append(f"## Insight {i}: groups where {describe_pattern(pattern.grouping_pattern)}")
        lines.append("")
        lines.append("| direction | treatment | effect on " + outcome + " | p-value |")
        lines.append("|---|---|---|---|")
        for label, candidate in (("positive", pattern.positive),
                                 ("negative", pattern.negative)):
            if candidate is None:
                lines.append(f"| {label} | — | — | — |")
            else:
                lines.append(
                    f"| {label} | {describe_pattern(candidate.pattern)} "
                    f"| {candidate.estimate.value:,.4g} "
                    f"| {candidate.estimate.p_value:.2g} |")
        covered = ", ".join("/".join(str(v) for v in key)
                            for key in sorted(pattern.covered_groups, key=repr)[:8])
        more = len(pattern.covered_groups) - 8
        if more > 0:
            covered += f" (+{more} more)"
        lines.append("")
        lines.append(f"Covers: {covered}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------- exact codec


class SummaryCodecError(ValueError):
    """A summary body that does not decode, or decodes to the wrong shape."""


_SCALARS = (str, int, float, bool, type(None))
_NUMBERS = (int, float)
_INT, _STR, _BOOL = (int,), (str,), (bool,)
_SUMMARY_KEYS = {"k", "theta", "n_candidates", "feasible", "timings",
                 "groups", "patterns"}
_PATTERN_KEYS = {"grouping", "covers", "support", "positive", "negative"}


def encode_summary(summary: ExplanationSummary) -> bytes:
    """The exact, compact JSON encoding of a summary (one line, UTF-8).

    Layout: ``{"k", "theta", "n_candidates", "feasible", "timings",
    "groups", "patterns"}``; a pattern is ``{"grouping", "covers",
    "support", "positive", "negative"}``; a conjunction is a list of
    ``[attribute, op, value]``; a treatment is ``[conjunction, [value,
    std_error, p_value, n_treated, n_control, estimator]]`` or ``null``.
    Patterns keep their order; group keys are lists (tuples on decode),
    covered groups sorted by ``repr`` so equal summaries encode equally.
    """
    record = {
        "k": summary.k, "theta": summary.theta,
        "n_candidates": summary.n_candidates, "feasible": summary.feasible,
        "timings": summary.timings,
        "groups": [list(key) for key in summary.all_groups],
        "patterns": [{
            "grouping": _encode_pattern(p.grouping.pattern),
            "covers": [list(key) for key in
                       sorted(p.grouping.covered_groups, key=repr)],
            "support": p.grouping.support,
            "positive": _encode_candidate(p.positive),
            "negative": _encode_candidate(p.negative),
        } for p in summary.patterns],
    }
    try:
        return json.dumps(record, separators=(",", ":")).encode()
    except (TypeError, ValueError) as exc:
        raise SummaryCodecError(f"summary not encodable: {exc}") from exc


def decode_summary(blob) -> ExplanationSummary:
    """Inverse of :func:`encode_summary`; any other input raises
    :class:`SummaryCodecError`."""
    try:
        record = _keyed(json.loads(bytes(blob)), _SUMMARY_KEYS)
        timings = record["timings"]
        _check(isinstance(timings, dict), "timings")
        for value in timings.values():
            _typed(value, _NUMBERS)
        patterns = []
        for spec in _list(record["patterns"]):
            spec = _keyed(spec, _PATTERN_KEYS)
            grouping = GroupingPattern(
                _decode_pattern(spec["grouping"]),
                frozenset(_groups(spec["covers"])),
                _typed(spec["support"], _INT))
            patterns.append(ExplanationPattern(
                grouping, _decode_candidate(spec["positive"]),
                _decode_candidate(spec["negative"])))
        return ExplanationSummary(
            patterns=patterns, all_groups=tuple(_groups(record["groups"])),
            k=_typed(record["k"], _INT),
            theta=_typed(record["theta"], _NUMBERS), timings=timings,
            n_candidates=_typed(record["n_candidates"], _INT),
            feasible=_typed(record["feasible"], _BOOL))
    except SummaryCodecError:
        raise
    except (ValueError, TypeError, RecursionError) as exc:
        raise SummaryCodecError(f"undecodable summary body: {exc}") from exc


def _encode_pattern(pattern: Pattern) -> list:
    return [[p.attribute, p.op.value, p.value] for p in pattern]


def _encode_candidate(candidate: TreatmentCandidate | None):
    if candidate is None:
        return None
    e = candidate.estimate
    return [_encode_pattern(candidate.pattern),
            [e.value, e.std_error, e.p_value, e.n_treated, e.n_control,
             e.estimator]]


def _decode_pattern(spec) -> Pattern:
    predicates = []
    for item in _list(spec):
        attribute, op, value = _list(item)
        predicates.append(Predicate(_typed(attribute, _STR), Op(op),
                                    _typed(value, _SCALARS)))
    return Pattern(predicates)


def _decode_candidate(spec) -> TreatmentCandidate | None:
    if spec is None:
        return None
    pattern, estimate = _list(spec)
    value, std_error, p_value, n_treated, n_control, estimator = \
        _list(estimate)
    return TreatmentCandidate(_decode_pattern(pattern), EffectEstimate(
        _typed(value, _NUMBERS), _typed(std_error, _NUMBERS),
        _typed(p_value, _NUMBERS), _typed(n_treated, _INT),
        _typed(n_control, _INT), _typed(estimator, _STR)))


def _groups(spec) -> list[tuple]:
    return [tuple(_typed(v, _SCALARS) for v in _list(key))
            for key in _list(spec)]


def _keyed(value, keys: set) -> dict:
    _check(isinstance(value, dict) and value.keys() == keys, "keys")
    return value


def _list(value) -> list:
    _check(isinstance(value, list), "list")
    return value


def _typed(value, types: tuple):
    # bool is an int subclass: true/false in an int field is a schema error.
    _check(isinstance(value, types)
           and (type(value) is not bool or bool in types), "scalar")
    return value


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise SummaryCodecError(f"summary body: bad {what}")


class EncodedSummary:
    """A summary-cache entry: a summary and its codec bytes, each derived
    from the other on first use, and its presentation body, derived once.

    Entries restored from a snapshot start as bytes and decode on first
    hit; computed entries start as a summary and encode only when weighed
    by a memory budget or written by a snapshot, once.  The body is what a
    response carries as ``"result"``; it is encoded on the first response
    and every later hit splices the same string.  Two threads may race on
    a first use: both derive equal values and either may win, like any
    memo of a pure function.
    """

    __slots__ = ("_summary", "_blob", "_body")

    def __init__(self, summary: ExplanationSummary | None = None,
                 blob=None):
        self._summary = summary
        self._blob = blob
        self._body: str | None = None

    def summary(self) -> ExplanationSummary:
        """The summary; raises :class:`SummaryCodecError` on a bad body."""
        if self._summary is None:
            self._summary = decode_summary(self._blob)
        return self._summary

    def blob(self):
        """The codec bytes; raises :class:`SummaryCodecError` when a value
        in the summary has no JSON form."""
        if self._blob is None:
            self._blob = encode_summary(self._summary)
        return self._blob

    def body(self) -> str:
        """``json.dumps(summary_to_dict(summary), default=str)``, encoded
        once; raises :class:`SummaryCodecError` on a bad restored body."""
        if self._body is None:
            self._body = json.dumps(summary_to_dict(self.summary()),
                                    default=str)
        return self._body
