"""Tests for summary export (JSON / Markdown)."""

import json

import pytest

from repro.causal import EffectEstimate
from repro.core import (
    ExplanationPattern,
    ExplanationSummary,
    pattern_from_dict,
    pattern_to_dict,
    summary_to_dict,
    summary_to_json,
    summary_to_markdown,
)
from repro.dataframe import Pattern
from repro.mining.grouping import GroupingPattern
from repro.mining.treatments import TreatmentCandidate


@pytest.fixture
def summary(small_view):
    grouping = GroupingPattern(Pattern.of(("Continent", "=", "Asia")),
                               frozenset([("India",), ("China",)]))
    positive = TreatmentCandidate(Pattern.of(("Role", "=", "Data Scientist")),
                                  EffectEstimate(40.0, 5.0, 0.001, 30, 30))
    negative = TreatmentCandidate(Pattern.of(("Education", "=", "B.Sc.")),
                                  EffectEstimate(-15.0, 4.0, 0.004, 20, 40))
    pattern = ExplanationPattern(grouping, positive, negative)
    return ExplanationSummary([pattern], tuple(small_view.group_keys()), k=3,
                              theta=0.6, n_candidates=2)


class TestPatternSerialisation:
    def test_round_trip(self):
        pattern = Pattern.of(("Age", "<", 35), ("Education", "=", "MS"))
        assert pattern_from_dict(pattern_to_dict(pattern)) == pattern

    def test_dict_shape(self):
        spec = pattern_to_dict(Pattern.of(("Age", ">=", 55)))
        assert spec == [{"attribute": "Age", "op": ">=", "value": 55}]


class TestSummaryExport:
    def test_summary_to_dict_fields(self, summary):
        payload = summary_to_dict(summary)
        assert payload["k"] == 3
        assert payload["coverage"] == pytest.approx(2 / 3)
        assert len(payload["patterns"]) == 1
        entry = payload["patterns"][0]
        assert entry["positive"]["cate"] == 40.0
        assert entry["negative"]["p_value"] == 0.004
        assert sorted(entry["covered_groups"]) == [["China"], ["India"]]

    def test_summary_to_json_parses(self, summary):
        parsed = json.loads(summary_to_json(summary))
        assert parsed["total_explainability"] == pytest.approx(55.0)

    def test_summary_to_markdown_structure(self, summary):
        text = summary_to_markdown(summary, outcome="salary")
        assert text.startswith("# Causal explanation summary")
        assert "## Insight 1" in text
        assert "| positive |" in text and "| negative |" in text
        assert "Covers: China, India" in text

    def test_markdown_handles_missing_direction(self, small_view):
        grouping = GroupingPattern(Pattern.of(("Continent", "=", "Asia")),
                                   frozenset([("India",)]))
        pattern = ExplanationPattern(grouping,
                                     TreatmentCandidate(Pattern.of(("Role", "=", "QA")),
                                                        EffectEstimate(5.0, 1.0, 0.01, 10, 10)))
        summary = ExplanationSummary([pattern], tuple(small_view.group_keys()),
                                     k=1, theta=0.3)
        assert "| negative | — | — | — |" in summary_to_markdown(summary)
