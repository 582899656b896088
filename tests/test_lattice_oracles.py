"""Oracles for the code-space treatment miner, the memoised estimator and
the group-by index.

The miner joins lattice levels as sorted tuples of atom ids and estimates a
node from atom masks bound once per sub-population.  The reference code below
is how both were done before — an all-pairs join over ``Pattern`` objects
sorted by ``repr``, and a full-table mask AND gathered onto the bound rows per
candidate, solved with fancy-indexed gathers — kept here only, to check that
the rework changed no output and no bit.  Likewise for
:class:`~repro.dataframe.GroupByIndex`, which sorts ``uint16`` codes when they
fit and reads its keys through the vocabulary: the reference sorts ``int64``
codes and reads keys from decoded ``Column.values``.  The estimator
memoises masks, bindings and estimates; :func:`unmemoised` runs it the way
it ran without any memo, as the reference the memoised path must equal.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager, nullcontext
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from repro import CauSumX, CauSumXConfig
from repro.causal import CATEEstimator, EffectEstimate
from repro.causal.estimators import BoundSubpopulation
from repro.causal.ols import (
    _COLLINEAR_TOL,
    _EPS,
    DegenerateFit,
    FactoredDesign,
    TreatmentFit,
)
from repro.core.export import summary_to_dict
from repro.dataframe import (
    Column,
    GroupByIndex,
    MaskCache,
    Op,
    Pattern,
    Predicate,
    Table,
    design_matrix,
    design_rows,
)
from repro.dataframe.groupby import _attribute_codes, _combine_codes
from repro.datasets import load_dataset
from repro.mining.lattice import AtomSet, AtomSpace, PatternLattice
from repro.mining.treatments import TreatmentMinerConfig
from repro.obs.registry import REGISTRY


def reference_next_level(survivors) -> list[Pattern]:
    """The all-pairs join: every pair of survivors whose union is one
    predicate longer, on distinct attributes, with every parent surviving."""
    survivors = list(survivors)
    if not survivors:
        return []
    survivor_set = set(survivors)
    length = len(survivors[0].predicates)
    candidates: set[Pattern] = set()
    for p1, p2 in combinations(survivors, 2):
        union = set(p1.predicates) | set(p2.predicates)
        if len(union) != length + 1:
            continue
        attributes = [p.attribute for p in union]
        if len(set(attributes)) != len(attributes):
            continue
        candidate = Pattern(union)
        if candidate in candidates:
            continue
        if all(Pattern(candidate.predicates[:i] + candidate.predicates[i + 1:])
               in survivor_set for i in range(len(candidate.predicates))):
            candidates.add(candidate)
    return sorted(candidates, key=repr)


class RowSpaceDesign:
    """The row-space factorisation :class:`FactoredDesign` replaced: an SVD
    of the ``n x p`` block, each candidate gathering its rows of the basis.
    Kept as the accuracy oracle of the stratum solve."""

    def __init__(self, block: np.ndarray, outcome: np.ndarray):
        self._finite = bool(np.isfinite(outcome).all()
                            and np.isfinite(block).all())
        if not self._finite:
            return
        n = len(outcome)
        basis, singular, _ = np.linalg.svd(block, full_matrices=False)
        rank = int((singular > singular[0] * max(block.shape) * _EPS).sum())
        self._basis = np.ascontiguousarray(basis[:, :rank])
        self._residual = outcome - self._basis @ (self._basis.T @ outcome)
        self._rss = float(self._residual @ self._residual)
        self._rss_floor = n * _EPS * (self._rss
                                      + n * _EPS * float(outcome @ outcome))
        self.df_resid = n - rank - 1

    def solve(self, treated_rows: np.ndarray) -> TreatmentFit:
        if not self._finite:
            raise DegenerateFit("non_finite")
        if self.df_resid < 1:
            raise DegenerateFit("no_residual_df")
        projected = self._basis.take(treated_rows, axis=0).sum(axis=0)
        return _finish(self, treated_rows, projected)


def _finish(design, treated_rows: np.ndarray, projected: np.ndarray
            ) -> TreatmentFit:
    """The checks and statistics both solves share, from ``projected``."""
    n_treated = len(treated_rows)
    d = n_treated - float(projected @ projected)
    if d <= _COLLINEAR_TOL * n_treated:
        raise DegenerateFit("collinear_treatment")
    s = float(design._residual[treated_rows].sum())
    rss = design._rss - s * s / d
    if rss <= design._rss_floor:
        raise DegenerateFit("zero_residual_variance")
    coefficient = s / d
    std_error = math.sqrt(rss / design.df_resid / d)
    p_value = 2.0 * float(special.stdtr(design.df_resid,
                                        -abs(coefficient) / std_error))
    return TreatmentFit(coefficient, std_error, p_value)


def reference_fwl(design: FactoredDesign, treated_rows: np.ndarray
                  ) -> TreatmentFit:
    """:meth:`FactoredDesign.solve` with fancy-indexed row gathers."""
    if not design._finite:
        raise DegenerateFit("non_finite")
    if design.df_resid < 1:
        raise DegenerateFit("no_residual_df")
    counts = np.bincount(design._strata[treated_rows],
                         minlength=len(design._weights))
    return _finish(design, treated_rows, counts @ design._weights)


@contextmanager
def unmemoised():
    """Run the estimator with nothing memoised across calls: every ``bind``
    builds a fresh binding, a sub-population is selected and a predicate's
    mask computed by evaluating it over the rows at hand, and the lattice
    keeps the atoms below its support floor."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CATEEstimator, "bind",
                      lambda self, subpopulation=None:
                      BoundSubpopulation(self, subpopulation))
        patch.setattr(BoundSubpopulation, "_mask",
                      lambda self, predicate: predicate.evaluate(self.base))
        patch.setattr(MaskCache, "pattern_mask",
                      lambda self, pattern: pattern.evaluate(self.table))
        patch.setattr(PatternLattice, "_prune_by_support",
                      lambda self, candidates: [p for p, _ in candidates])
        yield


def estimation(memoised: bool):
    """The memoised estimator, or its :func:`unmemoised` reference."""
    return nullcontext() if memoised else unmemoised()


def reference_solve(bound: BoundSubpopulation, treatment) -> EffectEstimate:
    """One estimate from the full-table mask of the whole conjunction,
    gathered onto the bound rows, with every check the estimate makes."""
    if isinstance(treatment, AtomSet):
        treatment = treatment.pattern()
    if bound.base.n_rows == 0:
        return EffectEstimate.undefined()
    estimator = bound.estimator
    mask = estimator.mask_cache.pattern_mask(treatment)
    treated = mask if bound.base is estimator.table else mask[bound.indices]
    n_treated = int(treated.sum())
    n_control = int(bound.base.n_rows - n_treated)
    if min(n_treated, n_control) < estimator.min_group_size:
        return EffectEstimate.undefined(n_treated, n_control)
    adjustment = [a for a in estimator.adjustment_set(treatment.attributes)
                  if len(bound.base.domain(a)) > 1]
    try:
        fit = reference_fwl(bound._design(tuple(adjustment)),
                            np.flatnonzero(treated))
    except DegenerateFit as skipped:
        REGISTRY.counter("repro_causal_skipped_total",
                         reason=skipped.reason).inc()
        return EffectEstimate.undefined(n_treated, n_control)
    return EffectEstimate(fit.coefficient, fit.std_error, fit.p_value,
                          n_treated, n_control, estimator="linear_regression")


def reference_join(self: AtomSpace, level) -> list[AtomSet]:
    """:meth:`AtomSpace.join` through :func:`reference_next_level`."""
    index = {p: i for i, p in enumerate(self.predicates)}
    children = reference_next_level(node.pattern() for node in level)
    return [AtomSet(self, tuple(sorted(index[p] for p in child)))
            for child in children]


def reference_group_index_init(self: GroupByIndex, table, attributes) -> None:
    """:class:`GroupByIndex` construction over ``int64`` codes, keys read
    from each column's decoded ``values``."""
    self.table = table
    self.attributes = tuple(attributes)
    n = table.n_rows
    code_arrays = [_attribute_codes(table.column(a)) for a in self.attributes]
    raw = _combine_codes(code_arrays, n).astype(np.int64)
    _, first_row, inverse_first = np.unique(raw, return_index=True,
                                            return_inverse=True)
    inverse_first = inverse_first.reshape(-1).astype(np.int64, copy=False)
    first_row = first_row.astype(np.int64, copy=False)
    n_groups = len(first_row)
    order = np.argsort(first_row, kind="stable")
    renumber = np.empty(n_groups, dtype=np.int64)
    renumber[order] = np.arange(n_groups, dtype=np.int64)
    self.inverse = renumber[inverse_first] if n else inverse_first
    self.n_groups = n_groups
    self.first_row = first_row[order]
    self.sizes = np.bincount(self.inverse, minlength=n_groups)
    self.keys = [tuple(table.column(a).values[row] for a in self.attributes)
                 for row in self.first_row]
    self._indices = None


def reference_group_indices(self: GroupByIndex) -> list[np.ndarray]:
    """:meth:`GroupByIndex.group_indices` with an ``int64`` argsort."""
    if self._indices is None:
        if self.n_groups == 0:
            self._indices = []
        else:
            order = np.argsort(self.inverse.astype(np.int64), kind="stable")
            self._indices = np.split(order, np.cumsum(self.sizes)[:-1])
    return self._indices


class ReferenceGroupByIndex(GroupByIndex):
    __init__ = reference_group_index_init
    group_indices = reference_group_indices


def _skipped() -> int:
    return sum(REGISTRY.counter("repro_causal_skipped_total", reason=r).value
               for r in ("non_finite", "no_residual_df", "collinear_treatment",
                         "zero_residual_variance"))


def _bits(estimate: EffectEstimate) -> str:
    return repr(dataclasses.astuple(estimate))


# "a 1" sorts before "a" by repr but after it by attribute, so lists holding
# both take the join's fallback sort; the rest take the id-tuple order.
_ATTRIBUTES = ("a", "b", "c", "a 1", "a_b")
_predicates = st.one_of(
    st.builds(Predicate, st.sampled_from(_ATTRIBUTES),
              st.sampled_from([Op.EQ, Op.NE]), st.sampled_from(["x", "y", "z"])),
    st.builds(Predicate, st.sampled_from(_ATTRIBUTES),
              st.sampled_from([Op.LT, Op.LE, Op.GT, Op.GE]),
              st.sampled_from([0.5, 1.5, 30.0, 2.25])),
)
_patterns = st.builds(Pattern, st.lists(_predicates, min_size=1, max_size=3))


class TestNextLevelOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_patterns, max_size=14))
    def test_prefix_join_equals_all_pairs_join(self, survivors):
        survivors = survivors + survivors[:2]  # duplicates
        expected = reference_next_level(survivors)
        got = PatternLattice.next_level(survivors)
        assert [repr(p) for p in got] == [repr(p) for p in expected]
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.lists(st.builds(
        Pattern, st.lists(_predicates, min_size=k, max_size=k,
                          unique_by=lambda p: p.attribute)), max_size=20)))
    def test_one_lattice_level(self, survivors):
        """Conflict-free nodes of one length, as the miners pass them."""
        assert PatternLattice.next_level(survivors) == \
            reference_next_level(survivors)

    def test_fallback_sort_is_taken_for_inconsistent_names(self):
        atoms = AtomSpace([Predicate("a", Op.EQ, "x"),
                           Predicate("a 1", Op.EQ, "x"),
                           Predicate("b", Op.EQ, "x")])
        assert not atoms._repr_ordered
        survivors = [Pattern([p]) for p in atoms.predicates]
        assert PatternLattice.next_level(survivors) == \
            reference_next_level(survivors)


class TestSolveOracle:
    @pytest.mark.parametrize("memoised", [True, False])
    @pytest.mark.parametrize("subpopulation", [
        None, Pattern.equalities({"Continent": "Europe"})])
    def test_bound_atom_masks_equal_the_full_table_mask_path(
            self, so_bundle, memoised, subpopulation):
        """Every node of the first two levels: bit-identical estimates, the
        same undefined ones, and the same skip-counter increments."""
        with estimation(memoised):
            self._check(so_bundle, subpopulation)

    @staticmethod
    def _check(so_bundle, subpopulation):
        def estimator():
            return CATEEstimator(so_bundle.table, "Salary", dag=so_bundle.dag)

        lattice = PatternLattice(so_bundle.table, so_bundle.treatment_attributes,
                                 max_values_per_attribute=6, min_support=10)
        atoms = lattice.atoms()
        nodes = atoms.first_level + atoms.join(atoms.first_level)
        assert len(nodes) > 50

        # Each binding from its own estimator, which must outlive it.
        estimators = [estimator() for _ in range(3)]
        before = _skipped()
        bound = estimators[0].bind(subpopulation)
        expected = [_bits(reference_solve(bound, node.pattern()))
                    for node in nodes]
        reference_skips = _skipped() - before

        before = _skipped()
        bound = estimators[1].bind(subpopulation)
        got = [_bits(bound.estimate(node)) for node in nodes]
        assert _skipped() - before == reference_skips
        assert got == expected
        bound = estimators[2].bind(subpopulation)
        assert [_bits(bound.estimate(node.pattern()))
                for node in nodes] == expected
        assert any("nan" not in bits for bits in got)
        assert any("nan" in bits for bits in got)


# Cells per kind of grouping column.  "coded" columns reuse one 400-value
# vocabulary, so two of them span composite codes past 65 536; NaN rows are
# singleton groups, so a numeric column spans up to one code per row.
_WIDE_VOCAB = tuple(f"v{i:03d}" for i in range(400))
_CELLS = {
    "categorical": ["a", "b", "", None],
    "coded": [-1, 0, 1, 398, 399],
    "numeric": [0.0, -0.0, 1.5, -2.0, math.nan, 1e300],
}


def _grouping_column(name: str, kind: str, cells: list) -> Column:
    if kind == "coded":
        return Column.from_codes(name, np.array(cells, dtype=np.int32),
                                 _WIDE_VOCAB)
    return Column(name, cells, numeric=kind == "numeric")


@st.composite
def _grouping_tables(draw) -> Table:
    n = draw(st.integers(0, 300))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=3))
    columns = [_grouping_column(f"g{i}", kind, draw(st.lists(
        st.sampled_from(_CELLS[kind]), min_size=n, max_size=n)))
        for i, kind in enumerate(kinds)]
    outcome = draw(st.lists(st.sampled_from([0.1, -0.0, 2.5, 1e-9, math.nan]),
                            min_size=n, max_size=n))
    return Table(columns + [Column("y", outcome, numeric=True)])


def _two_wide_columns() -> Table:
    """Composite codes past 65 536: the int64 sort path.  The first two
    rows' composite codes differ by exactly 2**16, so a 16-bit copy of them
    would merge two groups."""
    g0 = np.array([0, 163, 0, *range(297)], dtype=np.int32)
    g1 = np.array([0, 173, 399, *range(296, -1, -1)], dtype=np.int32)
    return Table([Column.from_codes("g0", g0, _WIDE_VOCAB),
                  Column.from_codes("g1", g1, _WIDE_VOCAB),
                  Column("y", np.linspace(-1.0, 1.0, 300), numeric=True)])


def _hashed_key_space() -> Table:
    """Three attributes of 2**21 + 1 codes each: past 2**62, so composite
    codes fall back to hashing row tuples."""
    vocab = ["~"] * (1 << 21)
    vocab[:3] = ["a", "b", "c"]
    vocab = tuple(vocab)
    top = (1 << 21) - 1
    codes = np.array([top, 0, -1, top, 1, 2, 0, top], dtype=np.int32)
    return Table([Column.from_codes(f"g{i}", np.roll(codes, i), vocab)
                  for i in range(3)] +
                 [Column("y", np.arange(8, dtype=np.float64), numeric=True)])


def _key_bits(index: GroupByIndex) -> list:
    return [[(type(v), repr(v)) for v in key] for key in index.keys]


def _assert_same_index(table: Table) -> None:
    attributes = [a for a in table.attributes if a != "y"]
    expected = ReferenceGroupByIndex(table, attributes)
    got = GroupByIndex(table, attributes)
    for name in ("inverse", "first_row", "sizes"):
        assert getattr(got, name).dtype == np.int64, name
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert got.n_groups == expected.n_groups
    assert len(got.group_indices()) == len(expected.group_indices())
    for rows, reference in zip(got.group_indices(), expected.group_indices()):
        assert np.array_equal(rows, reference)
    assert _key_bits(got) == _key_bits(expected)
    assert {type(v) for key in got.keys for v in key} <= \
        {str, np.float64, type(None)}
    values = table.column("y").values
    (got_avg, got_n), (ref_avg, ref_n) = (got.averages(values),
                                          expected.averages(values))
    assert [float(a).hex() for a in got_avg] == \
        [float(a).hex() for a in ref_avg]
    assert np.array_equal(got_n, ref_n)


class TestGroupIndexOracle:
    @settings(max_examples=150, deadline=None)
    @given(_grouping_tables())
    def test_radix_index_equals_the_int64_index(self, table):
        _assert_same_index(table)

    def test_codes_past_16_bits_keep_the_int64_sort(self):
        table = _two_wide_columns()
        codes = [_attribute_codes(table.column(a)) for a in ("g0", "g1")]
        composite = _combine_codes(codes, table.n_rows)
        assert composite[1] - composite[0] == 1 << 16
        _assert_same_index(table)

    def test_key_space_past_2_to_the_62_is_hashed(self):
        table = _hashed_key_space()
        assert np.prod([float(table.column(f"g{i}").codes.max()) + 2
                        for i in range(3)]) > 2.0 ** 62
        _assert_same_index(table)


_GENERATORS = {"cps": 1500, "stackoverflow": 800, "german": 500,
               "adult": 1000, "accidents": 1500}


def _summaries(bundle) -> dict:
    # German has no FD-derived grouping attributes: one group per pattern,
    # as its case study runs it.
    base = CauSumXConfig(include_singleton_groups=True, theta=0.5) \
        if bundle.name == "german" else CauSumXConfig()
    exhaustive = dataclasses.replace(
        base, treatment_mode="exhaustive",
        treatment=dataclasses.replace(base.treatment, max_levels=2))
    lists = {"grouping_attributes": bundle.grouping_attributes,
             "treatment_attributes": bundle.treatment_attributes}
    runs = {"cache": (base, lists, True),
            "no_cache": (base, lists, False),
            "exhaustive": (exhaustive, lists, True),
            "partition": (base, {}, True),
            "partition_no_cache": (base, {}, False)}
    out = {}
    for name, (config, attribute_lists, memoised) in runs.items():
        with estimation(memoised):
            summary = CauSumX(bundle.table, bundle.dag, config).explain(
                bundle.query, **attribute_lists)
        body = summary_to_dict(summary)
        body.pop("timings")
        out[name] = body
    return out


class TestSummaryOracle:
    @pytest.mark.parametrize("dataset", sorted(_GENERATORS))
    def test_summaries_byte_identical_to_the_reference_miner(self, dataset,
                                                             monkeypatch):
        bundle = load_dataset(dataset, n=_GENERATORS[dataset], seed=3)
        got = _summaries(bundle)
        monkeypatch.setattr(AtomSpace, "join", reference_join)
        monkeypatch.setattr(BoundSubpopulation, "_solve", reference_solve)
        monkeypatch.setattr(GroupByIndex, "__init__", reference_group_index_init)
        monkeypatch.setattr(GroupByIndex, "group_indices",
                            reference_group_indices)
        expected = _summaries(load_dataset(dataset, n=_GENERATORS[dataset],
                                           seed=3))
        assert all(body["patterns"] for body in got.values())
        for mode in expected:
            assert repr(got[mode]) == repr(expected[mode]), mode


# --------------------------------------------------------------------------- strata


def row_space_design(self: BoundSubpopulation, attributes) -> RowSpaceDesign:
    """:meth:`BoundSubpopulation._design` over the ``n x p`` row block."""
    design = self._designs.get(attributes)
    if design is None:
        block, _ = design_matrix(self.base, list(attributes), add_intercept=True)
        design = self._designs.setdefault(
            attributes, RowSpaceDesign(block, self.outcome_values))
    return design


def _fit_or_reason(design, rows: np.ndarray):
    try:
        return design.solve(rows)
    except DegenerateFit as skipped:
        return skipped.reason


@st.composite
def _confounded_tables(draw) -> tuple[Table, list[np.ndarray]]:
    """Every kind of confounder block the stratum encoding meets, and
    treatments over its rows (one of them a confounder level)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(25, 250))
    country = rng.integers(0, 6, n)
    columns = [
        # Continent is a function of Country: a rank-deficient pair.
        Column("Country", [f"c{v}" for v in country], numeric=False),
        Column("Continent", [f"k{v // 3}" for v in country], numeric=False),
        Column("level", [None if v == 3 else f"l{v}"
                         for v in rng.integers(0, 4, n)], numeric=False),
        Column("age", np.where(rng.random(n) < 0.1, np.nan,
                               rng.integers(20, 30, n).astype(np.float64)),
               numeric=True),
        Column("amount", rng.permutation(n) * 1.5 + 0.25, numeric=True),
    ]
    outcome = (3.0 * (country % 2) + 0.1 * np.nan_to_num(columns[3].values)
               + rng.normal(size=n))
    if draw(st.booleans()):
        outcome = np.full(n, 0.1)
    table = Table(columns + [Column("y", outcome, numeric=True)])
    treatments = [np.flatnonzero(rng.random(n) < share)
                  for share in (0.2, 0.5)]
    treatments.append(np.flatnonzero(country == 1))  # a confounder level
    return table, treatments


_ADJUSTMENTS = [(), ("Country",), ("Country", "Continent"), ("age",),
                ("amount",), ("level", "age"), ("Continent", "level", "age"),
                ("Country", "Continent", "level", "age", "amount")]


class TestStratumOracle:
    @settings(max_examples=150, deadline=None)
    @given(_confounded_tables(), st.sampled_from([None, "k0"]))
    def test_stratum_solve_equals_the_row_space_solve(self, drawn, continent):
        table, treatments = drawn
        estimator = CATEEstimator(table, "y")
        subpopulation = None if continent is None else \
            Pattern.equalities({"Continent": continent})
        bound = estimator.bind(subpopulation)
        if bound.n_rows < 2:
            return
        rows_of = np.full(table.n_rows, -1, dtype=np.int64)
        rows_of[bound.indices] = np.arange(bound.n_rows)
        for attributes in _ADJUSTMENTS:
            strata, count = bound._strata(attributes)
            assert sorted(set(strata.tolist())) == list(range(count))
            members = np.empty(count, dtype=np.int64)
            members[strata] = np.arange(bound.n_rows)
            block, _ = design_rows(bound.base, attributes, members,
                                   add_intercept=True)
            rows, _ = design_matrix(bound.base, list(attributes),
                                    add_intercept=True)
            assert block[strata].tobytes() == rows.tobytes()

            design = bound._design(attributes)
            reference = RowSpaceDesign(rows, bound.outcome_values)
            assert design.df_resid == reference.df_resid
            for treated in treatments:
                treated = rows_of[treated]
                treated = treated[treated >= 0]
                got = _fit_or_reason(design, treated)
                expected = _fit_or_reason(reference, treated)
                if isinstance(expected, str):
                    assert got == expected
                    continue
                assert isinstance(got, TreatmentFit), (got, expected)
                assert got.coefficient == pytest.approx(expected.coefficient,
                                                        rel=1e-9)
                assert got.std_error == pytest.approx(expected.std_error,
                                                      rel=1e-9)
                assert got.p_value == pytest.approx(expected.p_value, rel=0,
                                                    abs=1e-9)


# benchmarks/e2e's CONFIG; German as its case study runs it.
_E2E_CONFIG = CauSumXConfig(
    k=5, theta=0.75, apriori_threshold=0.1, sample_size=None,
    min_group_size=10,
    treatment=TreatmentMinerConfig(max_levels=2, min_group_size=10,
                                   significance_level=0.05,
                                   max_values_per_attribute=10))
_EXPLAIN_SIZES = {"cps": 3000, "accidents": 3000, "stackoverflow": 1000,
                  "german": 1000, "adult": 2000, "synthetic": 2000}


def _assert_close(got, expected, path="summary"):
    """Equal structure, strings, ints and booleans; floats within 1e-9
    relative."""
    if isinstance(expected, float):
        assert isinstance(got, float), path
        assert got == pytest.approx(expected, rel=1e-9), path
    elif isinstance(expected, dict):
        assert list(got) == list(expected), path
        for key in expected:
            _assert_close(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(got) == len(expected), path
        for i, (a, b) in enumerate(zip(got, expected)):
            _assert_close(a, b, f"{path}[{i}]")
    else:
        assert got == expected, path


class TestExplainOracle:
    @pytest.mark.parametrize("dataset", sorted(_EXPLAIN_SIZES))
    def test_explain_decisions_equal_the_row_space_solve(self, dataset,
                                                         monkeypatch):
        """The same patterns, coverage, signs and feasibility, and every
        number within 1e-9 relative, with the stratum solve as with the
        row-space one."""
        bundle = load_dataset(dataset, n=_EXPLAIN_SIZES[dataset], seed=1)
        config = _E2E_CONFIG.with_overrides(
            include_singleton_groups=True, theta=0.5) \
            if dataset == "german" else _E2E_CONFIG

        def explain() -> dict:
            body = summary_to_dict(CauSumX(bundle.table, bundle.dag, config)
                                   .explain(bundle.query,
                                            grouping_attributes=bundle.grouping_attributes,
                                            treatment_attributes=bundle.treatment_attributes))
            body.pop("timings")
            return body

        got = explain()
        monkeypatch.setattr(BoundSubpopulation, "_design", row_space_design)
        expected = explain()
        assert expected["patterns"]
        _assert_close(got, expected)
