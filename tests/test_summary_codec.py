"""The exact summary codec behind the store's summary snapshot.

A decoded summary must be indistinguishable from the mined one: dataclass
fields equal, every leaf scalar of the same type, the same presentation
bytes.  Anything else handed to the decoder is a typed refusal.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.core import (
    CauSumX,
    CauSumXConfig,
    EncodedSummary,
    SummaryCodecError,
    decode_summary,
    encode_summary,
    summary_to_dict,
)
from repro.dataframe import Pattern, Predicate
from repro.datasets import list_datasets, load_dataset
from repro.mining.treatments import TreatmentMinerConfig

CONFIG = CauSumXConfig(
    k=3, sample_size=None,
    treatment=TreatmentMinerConfig(max_levels=2, max_values_per_attribute=8))


def _mined(name: str, seed: int):
    bundle = load_dataset(name, n=500, seed=seed)
    return CauSumX(bundle.table, bundle.dag, CONFIG).explain(
        bundle.query, grouping_attributes=bundle.grouping_attributes,
        treatment_attributes=bundle.treatment_attributes)


def assert_identical(left, right, path: str = "summary") -> None:
    """Equal values of identical types all the way down (NaN equals NaN)."""
    assert type(left) is type(right), (path, type(left), type(right))
    if dataclasses.is_dataclass(left):
        for field in dataclasses.fields(left):
            assert_identical(getattr(left, field.name),
                             getattr(right, field.name),
                             f"{path}.{field.name}")
    elif isinstance(left, Pattern):
        assert_identical(left.predicates, right.predicates, path)
    elif isinstance(left, Predicate):
        assert (left.attribute, left.op) == (right.attribute, right.op), path
        assert_identical(left.value, right.value, f"{path}.value")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for i, (a, b) in enumerate(zip(left, right)):
            assert_identical(a, b, f"{path}[{i}]")
    elif isinstance(left, frozenset):
        assert left == right, path
        pairs = zip(sorted(left, key=repr), sorted(right, key=repr))
        for a, b in pairs:
            assert_identical(a, b, f"{path}{{}}")
    elif isinstance(left, dict):
        assert list(left) == list(right), path
        for key in left:
            assert_identical(left[key], right[key], f"{path}[{key!r}]")
    elif isinstance(left, float) and math.isnan(left):
        assert math.isnan(right), path
    else:
        assert left == right, path


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list_datasets())
def test_round_trip_is_exact(name, seed):
    summary = _mined(name, seed)
    blob = encode_summary(summary)
    assert b"\n" not in blob  # one line of the snapshot
    decoded = decode_summary(blob)
    assert_identical(decoded, summary)
    assert json.dumps(summary_to_dict(decoded), default=str) == \
        json.dumps(summary_to_dict(summary), default=str)
    assert encode_summary(decoded) == blob


@pytest.fixture(scope="module")
def record():
    return json.loads(encode_summary(_mined("stackoverflow", 0)))


def _mutations(record: dict):
    """``(id, body)`` pairs that must not decode."""
    def edited(change):
        copy = json.loads(json.dumps(record))
        change(copy)
        return json.dumps(copy).encode()

    yield "empty", b""
    yield "not-json", b"{not json"
    yield "wrong-top", b"[]"
    yield "extra-key", edited(lambda r: r.update(extra=1))
    yield "missing-key", edited(lambda r: r.pop("k"))
    yield "k-is-bool", edited(lambda r: r.update(k=True))
    yield "k-is-str", edited(lambda r: r.update(k="3"))
    yield "feasible-is-int", edited(lambda r: r.update(feasible=1))
    yield "timing-is-str", edited(lambda r: r["timings"].update(x="1"))
    yield "group-holds-list", edited(lambda r: r["groups"].append([[1]]))
    yield "patterns-not-list", edited(lambda r: r.update(patterns={}))
    yield "pattern-key", edited(lambda r: r["patterns"][0].pop("support"))
    yield "bad-op", edited(
        lambda r: r["patterns"][0].update(grouping=[["a", "=~", 1]]))
    yield "short-predicate", edited(
        lambda r: r["patterns"][0].update(grouping=[["a", "=="]]))
    yield "short-estimate", edited(
        lambda r: r["patterns"][0].update(positive=[[], [1.0, 2.0]]))
    yield "deep", b"[" * 100_000 + b"]" * 100_000


def test_malformed_bodies_are_refused(record):
    assert record["patterns"], "fixture summary needs a pattern"
    for name, body in _mutations(record):
        with pytest.raises(SummaryCodecError):
            decode_summary(body)
            pytest.fail(f"{name} decoded")


def test_entry_derives_each_side_once():
    summary = _mined("stackoverflow", 0)
    computed = EncodedSummary(summary)
    assert computed.summary() is summary
    assert computed.blob() is computed.blob()
    restored = EncodedSummary(blob=bytes(computed.blob()))
    assert restored.summary() is restored.summary()
    assert_identical(restored.summary(), summary)
    with pytest.raises(SummaryCodecError):
        EncodedSummary(blob=b"{}").summary()
