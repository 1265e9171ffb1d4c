"""Graded series construction, derived series, and dimension data tests."""

import collections
import functools
import importlib
import json
import math
import operator
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from okbody import cli, convbody, glseries, polyform
from okbody.cli import _slice_sides, parse_series
from okbody.convbody import okounkov_body
from okbody.errors import InputError, InvariantError, TruncationError
from okbody.flagval import Flag
from okbody.glseries import GradedSeries
from okbody.polyform import FormSpan, HomogeneousForm as HF, all_exponents, unpack

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import tracer  # noqa: E402
from oracles import (  # noqa: E402
    pending_rows,
    reference_contains,
    reference_inverse,
    reference_substitute_linear,
    value_points,
)


def mono(e):
    return HF.monomial(len(e), e)


def no_x2x3_series():
    gens = [mono(e) for e in [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]]
    return GradedSeries.generated(2, 2, gens, label="no-x2x3")


def test_complete_series_dimensions():
    C = GradedSeries.complete(2)
    assert C.dims(4) == [3, 6, 10, 15]
    C2 = GradedSeries.complete(2, 2)
    assert C2.dims(3) == [6, 15, 28]
    C1 = GradedSeries.complete(1, 1)
    assert C1.dims(5) == [2, 3, 4, 5, 6]


def test_complete_series_is_generated_in_level_one():
    C = GradedSeries.complete(2, 2)
    assert C.generators is not None and set(C.generators) == {1}
    G = GradedSeries.generated(2, 2, list(C.generators[1]))
    assert G.dims(3) == C.dims(3)
    assert G.level(2) == C.level(2)


def test_generated_series_known_dimensions():
    # all degree 2 monomials except X2*X3: the only unreachable exponents
    # in degree 2k are (0, odd, odd), one per level, giving 2k^2 + 2k + 1
    S = no_x2x3_series()
    assert S.dims(4) == [5, 13, 25, 41]
    for k in (1, 2, 3):
        assert S.level(k).dim == 2 * k * k + 2 * k + 1
        missing = mono((0, 2 * k - 1, 1))
        level = S.level(k)
        assert not reference_contains(level.basis, level.pivots, missing)


def test_generated_series_with_level_gaps():
    # a single generator in level 2 leaves odd levels empty
    S = GradedSeries.generated(1, 1, {2: [mono((1, 1))]})
    assert S.dims(4) == [0, 1, 0, 1]


def test_mixed_level_generators():
    # X1 in level 1 plus X2^2 in level 2
    S = GradedSeries.generated(
        1, 1, {1: [mono((1, 0))], 2: [mono((0, 2))]}
    )
    assert S.dims(4) == [1, 2, 2, 3]
    assert S.level(2).pivots == ((0, 2), (2, 0))


def test_hilbert_data_stabilizes():
    S = no_x2x3_series()
    hd = S.hilbert_data(5)
    assert hd.dims == [5, 13, 25, 41, 61]
    assert hd.stabilized and hd.volume == 4
    assert not S.hilbert_data(4).stabilized

    C = GradedSeries.complete(2)
    assert C.hilbert_data(5).volume == 1
    assert GradedSeries.complete(2, 2).hilbert_data(5).volume == 4
    assert GradedSeries.complete(1, 3).hilbert_data(4).volume == 3


def test_hilbert_data_not_stabilized_on_sparse_series():
    S = GradedSeries.generated(1, 1, {2: [mono((1, 1))]})
    hd = S.hilbert_data(6)
    assert not hd.stabilized and hd.volume is None


def test_semigroup_level_sizes_match_dims():
    S = no_x2x3_series()
    for flag in (Flag.standard(2), Flag.random(2, 3), Flag.random(2, 8)):
        levels = S.under_flag(flag).value_levels(3)
        assert [len(keys) for keys in levels] == S.dims(3)


def test_semigroup_standard_values():
    S = no_x2x3_series()
    (keys,) = S.value_levels(1)
    assert {unpack(v, 2) for v in keys} == {(0, 0), (1, 0), (1, 1), (0, 2), (2, 0)}
    assert okounkov_body(S, Flag.standard(2), 2).lattice_index == 1


def test_semigroup_additivity_spot_check():
    # value points add: nu(s t) = nu(s) + nu(t) for monomial spans
    levels = value_points(no_x2x3_series(), Flag.standard(2), 2)
    lv2 = set(levels[2])
    for a in levels[1]:
        for b in levels[1]:
            assert tuple(x + y for x, y in zip(a, b)) in lv2


def test_under_flag_view_shaped():
    S = no_x2x3_series()
    fl = Flag.random(2, 7)
    assert S.under_flag(Flag.standard(2)) is S
    view = S.under_flag(fl)
    assert view.dims(2) == S.dims(2)
    # transformed generators are recorded on the view
    assert view.generators is not None
    assert len(view.generators[1]) == 5


def test_complete_level_shortcut_under_flag():
    C = GradedSeries.complete(2)
    fl = Flag.random(2, 4)
    view = C.under_flag(fl)
    held = C.level(2)
    assert view.level(2) is held
    # a parent level built only for the view is its level, and not held
    assert view.level(3).is_complete and 3 not in C._levels
    # a later view reads the dimension that the parent kept
    other = C.under_flag(Flag.random(2, 5))
    assert other.level(3) == view.level(3) and 3 not in C._levels


def crossed_view(gens, provided, flag):
    """A view under flag of a series with the monomial generators gens,
    whose provider's level k is spanned by the k-th powers of the provided
    monomials."""

    def provider(series, k):
        return FormSpan(3, k, [mono(tuple(k * x for x in e)) for e in provided])

    series = GradedSeries(2, 1, provider, generators={1: [mono(e) for e in gens]})
    return series.under_flag(flag)


@pytest.mark.parametrize(
    "gens, provided, message",
    [
        ([(1, 0, 0)], [(1, 0, 0), (0, 1, 0)], "span 1 of 2"),
        ([(1, 0, 0), (0, 1, 0)], [(1, 0, 0)], "2 distinct leads exceed"),
    ],
)
def test_view_level_cross_checks_the_parent_dimension(gens, provided, message):
    """The generators' products fall short of or exceed the provider's
    level."""
    with pytest.raises(InvariantError, match=message):
        crossed_view(gens, provided, Flag.random(2, 1)).level(1)


@pytest.mark.parametrize(
    "gens, provided, message",
    [
        ([(1, 0, 0)], [(1, 0, 0), (0, 1, 0)], "1 distinct keys, but the dimension is 2"),
        ([(1, 0, 0), (0, 1, 0)], [(1, 0, 0)], "2 distinct keys, but the dimension is 1"),
    ],
)
def test_key_sum_view_level_cross_checks_the_parent_dimension(gens, provided, message):
    """Under a permutation flag the generator images are monomials, and the
    key sums fall short of or exceed the provider's level."""
    with pytest.raises(InvariantError, match=message):
        crossed_view(gens, provided, permutation_flag((2, 0, 1))).level(1)


@pytest.fixture
def eliminations(monkeypatch):
    """Counts of the calls polyform makes to rref_rows and kernel."""
    calls = dict.fromkeys(("rref_rows", "kernel"), 0)
    for name in calls:

        def counted(*args, name=name, original=getattr(polyform, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(polyform, name, counted)
    return calls


def test_generated_view_levels_need_no_elimination(eliminations):
    S = parse_series(json.loads((CORPUS / "p2_except_x2x3.json").read_text()))
    flag = Flag.random(2, 1)
    none = {"rref_rows": 0, "kernel": 0}
    rep = okounkov_body(S, flag, 6)
    assert eliminations == none
    assert rep.dims == S.dims(6)
    # the restricted side of the slice identity keeps, shifts and cuts rows
    # by their leads
    rep, direct, sub_rep, restricted = _slice_sides(S, flag, F(1, 2), 8)
    assert eliminations == none
    assert sub_rep.dims == [4, 7, 10, 13]
    assert direct == restricted
    # positive controls: a canonical basis is reduced when read, and the
    # forms vanishing at a point solve for a kernel
    S.level(6).transformed(reference_inverse(flag.matrix)).basis
    assert eliminations["rref_rows"]
    S.under_flag(flag).level(4).subspace_vanishing_at([[1, 2, 3]])
    assert eliminations["kernel"]


def test_monomial_levels_multiply_out_no_rows(monkeypatch):
    """Under the standard flag every level of a monomial series is built
    from key sums, so no product row is multiplied out.  A seeded-flag view
    of the same series has rows of several terms, and multiplies them
    out."""
    calls = []
    original = polyform._mul_terms
    monkeypatch.setattr(
        polyform, "_mul_terms", lambda *args: calls.append(1) or original(*args)
    )
    S = parse_series(json.loads((CORPUS / "p2_except_x2x3.json").read_text()))
    rep = okounkov_body(S, Flag.standard(2), 8)
    assert calls == []
    assert rep.dims == S.dims(8)
    assert okounkov_body(S, Flag.random(2, 1), 8).dims == rep.dims
    assert calls


def by_subduction(d, twist, gspans, dims=None):
    """The series generated by gspans (generator level -> span) with every
    level built by `FormSpan.subducted`, as levels were before key sums;
    with dims, a series whose level dimensions stop and cross-check it."""

    def provider(series, k):
        unit = FormSpan.complete(d + 1, 0)
        factors = [
            (series.level(k - j) if j < k else unit, gspan)
            for j, gspan in gspans.items()
            if j <= k
        ]
        dim = None if dims is None else dims.level(k).dim
        return FormSpan.subducted(d + 1, k * twist, dim, factors)

    return GradedSeries(d, twist, provider)


def permutation_flag(perm):
    n = len(perm)
    return Flag([[int(perm[i] == j) for j in range(n)] for i in range(n)])


@settings(
    derandomize=True,
    deadline=None,
    max_examples=60,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(st.data())
def test_key_sum_levels_match_subduction(data):
    """Levels of a series generated by monomials are the key sums of the
    levels below and the generators: the same spans, pivot for pivot, as
    the subduction path, with generators at one or several levels and
    levels that no sum reaches, and on a permutation-flag view, whose
    generator images are monomials and whose parent gives each dim."""
    d = data.draw(st.integers(1, 3), label="d")
    twist = data.draw(st.integers(1, 1 if d == 3 else 2), label="twist")
    K = 4 if d == 3 else 5
    levels = data.draw(st.sets(st.integers(1, 3), min_size=1), label="levels")
    coeff = st.sampled_from([1, -1, 2, F(-3, 2)])
    gens = {}
    for j in sorted(levels):
        exps = list(all_exponents(d + 1, j * twist))
        picked = data.draw(
            st.lists(st.sampled_from(exps), min_size=1, max_size=3), label=f"G{j}"
        )
        gens[j] = [HF.monomial(d + 1, e, data.draw(coeff)) for e in picked]
    series = GradedSeries.generated(d, twist, gens)
    spans = {j: FormSpan(d + 1, j * twist, forms) for j, forms in gens.items()}
    reference = by_subduction(d, twist, spans)
    for k in range(1, K + 1):
        assert series.level(k).pivots == reference.level(k).pivots
        assert series.level(k) == reference.level(k)
    perm = data.draw(st.permutations(range(d + 1)), label="perm")
    view = series.under_flag(permutation_flag(perm))
    assert view.monomial_generator_level == max(gens)
    images = {
        j: FormSpan(d + 1, j * twist, forms) for j, forms in view.generators.items()
    }
    view_reference = by_subduction(d, twist, images, series)
    for k in range(1, K + 1):
        assert view.level(k).pivots == view_reference.level(k).pivots
        assert view.level(k) == view_reference.level(k)


def drop_key(series, k, dim=None):
    """A mutant: the level without its least key."""
    span = GENERATED_LEVEL(series, k, dim)
    return FormSpan._of_keys(span.nvars, span.degree, list(span.pivot_keys)[1:])


def drop_generator_level(series, k, dim=None):
    """A mutant: the level without the products of its top generator level,
    when there are several: the series' generator spans lack it while the
    level is built."""
    gspans = series._gspans
    if len(gspans) > 1:
        series._gspans = dict(list(gspans.items())[:-1])
    try:
        return GENERATED_LEVEL(series, k, dim)
    finally:
        series._gspans = gspans


@pytest.mark.parametrize("mutant", [drop_key, drop_generator_level])
def test_key_sum_property_catches_mutants(monkeypatch, mutant):
    monkeypatch.setattr(glseries, "_generated_level", mutant)
    with pytest.raises((AssertionError, InvariantError)):
        test_key_sum_levels_match_subduction()


def test_monomial_corpus_commands_run_no_subduction(monkeypatch, capsys):
    """body, volume, slice and base-locus on the monomial corpus series
    build every level from key sums: no call to FormSpan.subducted."""
    calls = []
    subducted = FormSpan.subducted.__func__

    def counted(cls, *args):
        calls.append(args[:2])
        return subducted(cls, *args)

    monkeypatch.setattr(FormSpan, "subducted", classmethod(counted))
    for path in sorted(CORPUS.glob("*.json")):
        if ".surface." in path.name:
            continue
        series = parse_series(json.loads(path.read_text()))
        assert series.monomial_generator_level == 1, path.name
        s = str(path)
        argvs = [["body", s, "-K", "6"], ["volume", s], ["base-locus", s]]
        if series.d >= 2:
            argvs.append(["slice", s, "-K", "6", "--t", "1/2"])
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert calls == []
    # positive control: a seeded flag's generator images are not monomials
    cli.main(["body", str(CORPUS / "p2_o2_cremona.json"), "--flag-seed", "1"])
    capsys.readouterr()
    assert calls


def test_flag_view_builds_generator_images_on_first_read():
    """A view's levels and its monomial test read its generator spans, the
    parent's under the flag's integer lines; the canonical basis of a span
    is reduced only when `generators` is read, and spans what the parent's
    generators moved by the reference substitution span."""
    S = no_x2x3_series()
    for flag, level in ((Flag.random(2, 7), None), (permutation_flag((2, 0, 1)), 1)):
        view = S.under_flag(flag)
        assert view.monomial_generator_level == level
        assert view.dims(4) == S.dims(4)
        assert view._gspans[1]._reduced is None
        assert view._gspans == {1: S._gspans[1].transformed(flag.lines)}
        inverse = reference_inverse(flag.matrix)
        moved = [reference_substitute_linear(g, inverse) for g in S.generators[1]]
        assert view.generators == {1: FormSpan(3, 2, moved).basis}
        assert view._gspans[1]._reduced is not None


@pytest.fixture
def products(monkeypatch):
    """Every pending product row polyform makes: the pending rows of two
    args.  A row whose `row` is set has been multiplied out."""
    made = []

    class Recorded(polyform._Pending):
        __slots__ = ()

        def __init__(self, op, *args):
            super().__init__(op, *args)
            if len(args) == 2:
                made.append(self)

    monkeypatch.setattr(polyform, "_Pending", Recorded)
    return made


def test_view_levels_multiply_out_few_rows(products, capsys):
    """A flag view keeps its product rows pending: only the rows a
    subduction remainder reduces against are multiplied out."""
    path = CORPUS / "p2_except_x2x3.json"
    assert cli.main(["body", str(path), "-K", "12", "--flag-seed", "1"]) == 0
    capsys.readouterr()
    multiplied = sum(p.row is not None for p in products)
    assert 0 < multiplied < len(products) / 10


def test_tracer_multiplies_out_no_more_rows(products, monkeypatch):
    """The benchmark's tracer reads `basis` only on spans built by
    FormSpan.__init__, whose rows are multiplied out, so a traced body
    makes the same products as an untraced one."""
    calls = []
    original = polyform._mul_terms
    monkeypatch.setattr(
        polyform, "_mul_terms", lambda *args: calls.append(1) or original(*args)
    )

    def run():
        calls.clear()
        products.clear()
        S = parse_series(json.loads((CORPUS / "p2_except_x2x3.json").read_text()))
        convbody.okounkov_body(S, Flag.random(2, 1), 6)
        return len(calls), sum(p.row is not None for p in products)

    untraced = run()
    assert untraced[1]
    # install() rebinds module names and class methods for good; the
    # monkeypatch records each one first, and puts it back afterwards
    for module in tracer.MODULES:
        mod = importlib.import_module(f"okbody.{module}")
        for attr, value in list(vars(mod).items()):
            monkeypatch.setattr(mod, attr, value)
    for targets in tracer.LAYERS.values():
        for module, name, _ in targets:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(importlib.import_module(f"okbody.{module}"), cls_name)
                monkeypatch.setattr(cls, meth, cls.__dict__[meth])
    tracer.Tracer().install()
    assert run() == untraced


MUL_TERMS, TOP_REDUCE = polyform._mul_terms, polyform._top_reduce
GENERATED_LEVEL = glseries._generated_level


def by_products(series, k, dim=None):
    """Level k of a generated series as the sum over generator levels j of
    level(k - j) * G_j, built by `*` and `+` alone."""
    unit = FormSpan.complete(series.d + 1, 0)
    parts = [
        (series.level(k - j) if j < k else unit) * gspan
        for j, gspan in series._gspans.items()
        if j <= k
    ]
    return functools.reduce(operator.add, parts)


def subduction_work(monkeypatch, K: int, build=GENERATED_LEVEL):
    """Bodies of two birational monomial nets under seeded flags, each
    generated level built by build, with the products multiplied out and,
    of the top reductions run while a level is built, how many there were
    and how many ended in zero."""
    work = {"products": 0, "reductions": 0, "zeros": 0}
    mul, reduce = MUL_TERMS, TOP_REDUCE
    building = []

    def counted_mul(a, b):
        work["products"] += 1
        return mul(a, b)

    def counted_reduce(row, table):
        out = reduce(row, table)
        if building:
            work["reductions"] += 1
            work["zeros"] += not out
        return out

    def counted_level(*args):
        building.append(args)
        try:
            return build(*args)
        finally:
            building.pop()

    monkeypatch.setattr(polyform, "_mul_terms", counted_mul)
    monkeypatch.setattr(polyform, "_top_reduce", counted_reduce)
    monkeypatch.setattr(glseries, "_generated_level", counted_level)
    bodies = []
    for name in ("p2_except_x2x3", "p2_o2_cremona"):
        S = parse_series(json.loads((CORPUS / f"{name}.json").read_text()))
        for seed in range(1, 6):
            bodies.append(okounkov_body(S, Flag.random(2, seed), K).body)
    return work, bodies


def test_flag_views_reduce_no_regrouped_product(monkeypatch):
    """A flag-view level multiplies a row only by the generator rows from
    its signature on, so it forms no product that merely regroups the
    generators of another, and no reduction that builds a flag-view level
    ends in zero; building the same levels as sums of level(k - j) * G_j
    by `*` and `+`, some do, and more products are multiplied out for the
    same bodies."""
    work, bodies = subduction_work(monkeypatch, 7)
    assert work["reductions"] and not work["zeros"]
    control, control_bodies = subduction_work(monkeypatch, 7, by_products)
    assert control_bodies == bodies
    assert control["zeros"] and control["products"] > work["products"]


def test_slice_divides_and_cuts_pending_rows(monkeypatch):
    """The restricted side of the slice identity divides flag-view levels by
    a power of the first variable and sets it to zero: the rows arrive
    pending, and both steps leave them pending, multiplying none out."""
    seen = {"pending": 0, "products": 0}
    inside = []
    mul = polyform._mul_terms

    def counted_mul(a, b):
        seen["products"] += bool(inside)
        return mul(a, b)

    def watched(name):
        method = getattr(FormSpan, name)

        def run(span, *args):
            seen["pending"] += pending_rows(span)
            inside.append(name)
            try:
                return method(span, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(FormSpan, name, run)

    monkeypatch.setattr(polyform, "_mul_terms", counted_mul)
    watched("divided_by_variable")
    watched("restricted")
    S = parse_series(json.loads((CORPUS / "p2_except_x2x3.json").read_text()))
    rep, direct, sub_rep, restricted = _slice_sides(S, Flag.random(2, 2), F(1, 2), 12)
    assert seen["pending"] and seen["products"] == 0
    assert direct == restricted
    assert sub_rep.dims == [4, 7, 10, 13, 16, 19]


def test_body_and_slice_build_one_view(monkeypatch):
    """okounkov_body and the slice identity each write the series in flag
    coordinates once, and read every later level off that one view."""
    built = []
    original = GradedSeries.under_flag

    def counted(series, flag):
        if not flag.is_standard:
            built.append(series)
        return original(series, flag)

    monkeypatch.setattr(GradedSeries, "under_flag", counted)
    S = parse_series(json.loads((CORPUS / "p2_except_x2x3.json").read_text()))
    flag = Flag.random(2, 1)
    okounkov_body(S, flag, 6)
    assert built == [S]
    built.clear()
    rep, direct, sub_rep, restricted = _slice_sides(S, flag, F(1, 2), 8)
    assert built == [S]
    assert direct == restricted


@pytest.fixture
def builds(monkeypatch):
    """Provider calls per (series, level), over every series made while the
    fixture is active; the keys keep each series alive, so no two share
    an identity."""
    calls = collections.Counter()
    init = GradedSeries.__init__

    def counting_init(self, d, twist, provider, **options):
        def counted(series, k):
            calls[series, k] += 1
            return provider(series, k)

        init(self, d, twist, counted, **options)

    monkeypatch.setattr(GradedSeries, "__init__", counting_init)
    return calls


def test_commands_build_each_level_once(builds, capsys):
    """body, volume, slice (standard and seeded flags, t = 1/2 and 1/3),
    fujita and generic-test on every corpus series build each level of
    each series they make once: a level a command reads again is held,
    and a single pass drops only levels no later read needs."""
    for path in sorted(CORPUS.glob("*.json")):
        if ".surface." in path.name:
            continue
        s = str(path)
        d = parse_series(json.loads(path.read_text())).d
        argvs = [
            ["body", s, "-K", "6"],
            ["body", s, "-K", "6", "--flag-seed", "1"],
            ["volume", s, "-K", "6"],
            ["volume", s, "-K", "6", "--flag-seed", "1"],
            ["fujita", s, "-K", "4", "--p", "2"],
            ["fujita", s, "-K", "4", "--p", "2", "--flag-seed", "1"],
            ["generic-test", s, "-K", "4", "--flags", "2"],
        ]
        if d >= 2:
            for t in ("1/2", "1/3"):
                argvs.append(["slice", s, "-K", "6", "--t", t])
                argvs.append(["slice", s, "-K", "6", "--t", t, "--flag-seed", "1"])
        for argv in argvs:
            builds.clear()
            assert cli.main(argv) == 0, argv
            assert builds and set(builds.values()) == {1}, argv
    capsys.readouterr()


def test_single_pass_holds_levels_within_the_provider_reach():
    """A body's single pass holds, of the levels it builds, only those the
    provider can still read, and keeps every dimension; a level read
    through `level` before stays held; the Hilbert data read off the
    dimensions the pass recorded is the series' own."""
    S = no_x2x3_series()
    rep = okounkov_body(S, Flag.standard(2), 8)
    assert list(S._levels) == [8] and sorted(S._dims) == list(range(1, 9))
    assert rep.hilbert == S.hilbert_data(8) and list(S._levels) == [8]
    T = no_x2x3_series()
    rep = okounkov_body(T, Flag.random(2, 1), 8)
    assert list(T._levels) == [8] and rep.hilbert == T.hilbert_data(8)
    U = no_x2x3_series()
    U.level(5)
    okounkov_body(U, Flag.standard(2), 8)
    assert sorted(U._levels) == [1, 2, 3, 4, 5, 8]
    # generators in levels 1 and 2: level k reads levels k - 1 and k - 2
    V = GradedSeries.generated(1, 1, {1: [mono((1, 0))], 2: [mono((0, 2))]})
    okounkov_body(V, Flag.standard(1), 6)
    assert sorted(V._levels) == [5, 6]
    # a complete series reads none of its own levels
    C = GradedSeries.complete(2)
    okounkov_body(C, Flag.standard(2), 5)
    assert C._levels == {} and C.dims(5) == [3, 6, 10, 15, 21]


def test_veronese():
    C = GradedSeries.complete(2)
    V = C.veronese(2)
    assert V.twist == 2
    assert V.dims(2) == [6, 15]
    assert C.veronese(1) is C
    with pytest.raises(InputError):
        C.veronese(0)


def test_vanishing_along_flag_divisor():
    C = GradedSeries.complete(2)
    sub = C.vanishing_along_flag_divisor(F(1, 2))
    assert sub.dims(4) == [1, 3, 3, 6]
    for k in (1, 2, 3, 4):
        need = math.ceil(F(1, 2) * k)
        assert all(e[0] >= need for f in sub.level(k).basis for e in f.terms)
    assert C.vanishing_along_flag_divisor(0) is C
    with pytest.raises(InputError):
        C.vanishing_along_flag_divisor(F(-1, 2))


def test_subtract_flag_divisor():
    # removing one hyperplane from O(2) leaves O(1): divide the sections
    # with a full power of the first variable by that power
    C = GradedSeries.complete(2, 2)
    sub = C.subtract_flag_divisor(1)
    assert sub.twist == 1
    assert sub.dims(3) == [3, 6, 10]
    assert sub.level(1) == FormSpan.complete(3, 1)
    assert C.subtract_flag_divisor(0) is C
    with pytest.raises(InputError):
        C.subtract_flag_divisor(-1)
    with pytest.raises(InputError):
        C.subtract_flag_divisor(F(1, 2))
    with pytest.raises(InputError):
        C.subtract_flag_divisor(2)


def test_restrict_to_flag_divisor():
    C = GradedSeries.complete(2)
    R = C.restrict_to_flag_divisor()
    assert R.d == 1 and R.dims(3) == [2, 3, 4]
    assert R.level(2) == FormSpan.complete(2, 2)
    with pytest.raises(InputError):
        R.restrict_to_flag_divisor()


def test_puncture():
    C = GradedSeries.complete(2)
    P = C.puncture([1, 1, 1])
    assert P.dims(3) == [2, 5, 9]
    pt = [F(1), F(1), F(1)]
    assert all(f.evaluate(pt) == 0 for f in P.level(2).basis)
    with pytest.raises(InputError):
        C.puncture([0, 0, 0])
    with pytest.raises(InputError):
        C.puncture([1, 0])


def test_fujita_subseries():
    C = GradedSeries.complete(2)
    FU = C.fujita_subseries(2)
    assert FU.twist == 2 and FU.dims(2) == [6, 15]
    S = no_x2x3_series()
    F1 = S.fujita_subseries(1)
    assert F1.dims(3) == S.dims(3)


def test_explicit_series_truncation():
    x = HF.variable(3, 0)
    E = GradedSeries.explicit(2, 1, {1: [x], 2: [x * x]})
    assert E.max_level == 2
    assert E.dims(2) == [1, 1]
    with pytest.raises(TruncationError):
        E.level(3)
    with pytest.raises(TruncationError):
        E.dims(3)


def test_explicit_series_gap_levels_are_zero():
    x = HF.variable(3, 0)
    E = GradedSeries.explicit(2, 1, {3: [x * x * x]})
    assert E.dims(3) == [0, 0, 1]


def test_level_guards():
    C = GradedSeries.complete(2)
    with pytest.raises(InputError):
        C.level(0)
    with pytest.raises(InputError):
        C.level(-1)
    with pytest.raises(InputError):
        GradedSeries.generated(2, 1, [])
    with pytest.raises(InputError):
        GradedSeries.generated(2, 1, {1: [HF.zero(3)]})
