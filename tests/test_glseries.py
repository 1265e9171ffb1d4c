"""Graded series construction, derived series, and dimension data tests."""

import importlib
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from okbody import cli, convbody, polyform
from okbody.cli import _slice_sides, parse_series
from okbody.convbody import okounkov_body
from okbody.errors import InputError, InvariantError, TruncationError
from okbody.flagval import Flag
from okbody.glseries import GradedSeries
from okbody.polyform import FormSpan, HomogeneousForm as HF

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import tracer  # noqa: E402
from oracles import pending_rows, reference_inverse  # noqa: E402


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
        assert not S.level(k).contains(missing)


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
        sg = S.semigroup(flag, 3)
        assert [len(sg.level(k)) for k in (1, 2, 3)] == S.dims(3)


def test_semigroup_standard_values():
    S = no_x2x3_series()
    sg = S.semigroup(Flag.standard(2), 2)
    assert set(sg.level(1)) == {(0, 0), (1, 0), (1, 1), (0, 2), (2, 0)}
    assert okounkov_body(S, Flag.standard(2), 2).lattice_index == 1


def test_semigroup_additivity_spot_check():
    # value points add: nu(s t) = nu(s) + nu(t) for monomial spans
    S = no_x2x3_series()
    sg = S.semigroup(Flag.standard(2), 4)
    lv1 = set(sg.level(1))
    lv2 = set(sg.level(2))
    for a in lv1:
        for b in lv1:
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
    assert view.level(2) is C.level(2)


@pytest.mark.parametrize(
    "gens, provided, message",
    [
        ([(1, 0, 0)], [(1, 0, 0), (0, 1, 0)], "span 1 of 2"),
        ([(1, 0, 0), (0, 1, 0)], [(1, 0, 0)], "2 distinct leads exceed"),
    ],
)
def test_view_level_cross_checks_the_parent_dimension(gens, provided, message):
    """The provider's level k is spanned by the k-th powers of the provided
    monomials, which the generators' products fall short of or exceed."""

    def provider(series, k):
        return FormSpan(3, k, [mono(tuple(k * x for x in e)) for e in provided])

    series = GradedSeries(2, 1, provider, generators={1: [mono(e) for e in gens]})
    with pytest.raises(InvariantError, match=message):
        series.under_flag(Flag.random(2, 1)).level(1)


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
    """Under the standard flag every level of a monomial series is a
    subduction of monomial rows: each product is written down as one term,
    and no product row is multiplied out.  A seeded-flag view of the same
    series has rows of several terms, and multiplies them out."""
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


def subduction_work(monkeypatch, K: int):
    """Bodies of two birational monomial nets under seeded flags, with the
    products multiplied out and, of the top reductions that subductions
    run, how many there were and how many ended in zero."""
    work = {"products": 0, "reductions": 0, "zeros": 0}
    mul, reduce = MUL_TERMS, TOP_REDUCE

    def counted_mul(a, b):
        work["products"] += 1
        return mul(a, b)

    def counted_reduce(row, table):
        out = reduce(row, table)
        if sys._getframe(1).f_code.co_name == "subducted":
            work["reductions"] += 1
            work["zeros"] += not out
        return out

    monkeypatch.setattr(polyform, "_mul_terms", counted_mul)
    monkeypatch.setattr(polyform, "_top_reduce", counted_reduce)
    bodies = []
    for name in ("p2_except_x2x3", "p2_o2_cremona"):
        S = parse_series(json.loads((CORPUS / f"{name}.json").read_text()))
        for seed in range(1, 6):
            bodies.append(okounkov_body(S, Flag.random(2, seed), K).body)
    return work, bodies


def test_flag_views_reduce_no_regrouped_product(monkeypatch):
    """A flag-view level multiplies a row only by the generator rows from
    its signature on, so it forms no product that merely regroups the
    generators of another, and no subduction of a flag view reduces to
    zero; with the ordering off, some do, and more products are multiplied
    out for the same bodies."""
    work, bodies = subduction_work(monkeypatch, 7)
    assert work["reductions"] and not work["zeros"]
    subducted = FormSpan.subducted.__func__

    def every_product(cls, nvars, degree, dim, factors, ordered=False):
        return subducted(cls, nvars, degree, dim, factors)

    monkeypatch.setattr(FormSpan, "subducted", classmethod(every_product))
    control, control_bodies = subduction_work(monkeypatch, 7)
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


def test_validate_multiplicative():
    no_x2x3_series().validate_multiplicative(4)
    GradedSeries.complete(2).validate_multiplicative(3)
    x, y = HF.variable(3, 0), HF.variable(3, 1)
    bad = GradedSeries.explicit(2, 1, {1: [x], 2: [y * y]})
    with pytest.raises(InputError):
        bad.validate_multiplicative(2)


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
