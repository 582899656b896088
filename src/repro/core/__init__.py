"""The CauSumX framework: summarized causal explanations for aggregate views."""

from repro.core.config import CauSumXConfig
from repro.core.patterns import ExplanationPattern, ExplanationSummary
from repro.core.causumx import CauSumX, brute_force, brute_force_lp, greedy_last_step
from repro.core.render import render_summary, render_pattern
from repro.core.export import (
    EncodedSummary,
    SummaryCodecError,
    decode_summary,
    encode_summary,
    summary_to_dict,
    summary_to_json,
    summary_to_markdown,
    pattern_to_dict,
    pattern_from_dict,
)

__all__ = [
    "EncodedSummary",
    "SummaryCodecError",
    "decode_summary",
    "encode_summary",
    "summary_to_dict",
    "summary_to_json",
    "summary_to_markdown",
    "pattern_to_dict",
    "pattern_from_dict",
    "CauSumXConfig",
    "ExplanationPattern",
    "ExplanationSummary",
    "CauSumX",
    "brute_force",
    "brute_force_lp",
    "greedy_last_step",
    "render_summary",
    "render_pattern",
]
