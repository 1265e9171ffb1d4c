"""Span operations on reduced term rows and the monomial-table substitution
(`transformed`, `substitute_linear`) against the slow form-based reference
in `oracles.py`, on small random non-monomial forms in 2 to 4 variables of
degree at most 4.  The span readers run both on spans of forms and on
spans of products whose table still holds products not multiplied out."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from okbody.errors import InputError
from okbody.exactnum import cleared_rows, det
from okbody import polyform
from okbody.flagval import valuation_set
from okbody.polyform import FormSpan, HomogeneousForm, all_exponents
from oracles import (
    _mul_terms,
    pending_cut_rows,
    pending_quotient_rows,
    pending_rows,
    reference_contains,
    reference_set_variable_zero,
    reference_span_reduce,
    reference_subspace_vanishing_at,
    reference_subspace_with_min_exponent,
    reference_substitute_linear,
)

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
nonzero = small.filter(bool)
# no shrinking: a failure is reported as found, without rerunning the
# slow reference many times over
PHASES = (Phase.explicit, Phase.reuse, Phase.generate)


def forms(nvars: int, degree: int, most: int):
    exps = list(all_exponents(nvars, degree))
    terms = st.dictionaries(
        st.sampled_from(exps), nonzero, min_size=min(2, len(exps)), max_size=4
    )
    form = terms.map(lambda t: HomogeneousForm(nvars, t, degree))
    return st.lists(form, min_size=1, max_size=most)


def invertible(n: int):
    integer = st.builds(Fraction, st.integers(-3, 3))
    entries = st.one_of(integer, small)
    matrix = st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )
    return matrix.filter(lambda m: det(m) != 0)


def shape(data, least: int = 1):
    nvars = data.draw(st.integers(2, 4), label="nvars")
    degree = data.draw(st.integers(least, 4 if nvars < 4 else 3), label="degree")
    return nvars, degree


def same(span: FormSpan, reference) -> bool:
    return (span.basis, span.pivots) == reference


@settings(derandomize=True, deadline=None, max_examples=150, phases=PHASES)
@given(st.data())
def test_substitute_linear_matches_oracle(data):
    nvars, degree = shape(data)
    (f,) = data.draw(forms(nvars, degree, 1))
    matrix = data.draw(invertible(nvars))
    assert f.substitute_linear(matrix) == reference_substitute_linear(f, matrix)


def tuple_keyed(exponents, nvars: int) -> bool:
    return all(
        type(e) is tuple and len(e) == nvars and all(type(x) is int for x in e)
        for e in exponents
    )


@settings(derandomize=True, deadline=None, max_examples=60, phases=PHASES)
@given(st.data())
def test_edge_readers_give_tuple_exponents(data):
    """Packed keys never leave polyform: the pivots, the basis forms, the
    valuation set, form products and both substitutions give exponent
    tuples, equal to those of the tuple-keyed oracles."""
    nvars, degree = shape(data)
    a = data.draw(forms(nvars, degree, 3), label="a")
    span = FormSpan(nvars, degree, a)
    ref_basis, ref_pivots = reference_span_reduce(nvars, degree, a)
    assert tuple_keyed(span.pivots, nvars) and span.pivots == ref_pivots
    assert all(tuple_keyed(f.terms, nvars) for f in span.basis)
    assert span.basis == ref_basis
    values = valuation_set(span)
    assert tuple_keyed(values, nvars - 1)
    assert values == tuple(p[:-1] for p in ref_pivots)

    (f,), (g,) = data.draw(forms(nvars, degree, 1)), data.draw(forms(nvars, 1, 1))
    product = f * g
    assert tuple_keyed(product.terms, nvars)
    assert product.terms == _mul_terms(f.terms, g.terms)
    matrix = data.draw(invertible(nvars), label="matrix")
    moved = f.substitute_linear(matrix)
    assert tuple_keyed(moved.terms, nvars)
    assert moved == reference_substitute_linear(f, matrix)
    lines, _ = cleared_rows(matrix)
    images = span.transformed(lines).basis
    assert all(tuple_keyed(h.terms, nvars) for h in images)
    moved = [reference_substitute_linear(h, lines) for h in a]
    assert images == reference_span_reduce(nvars, degree, moved)[0]


def check_span_operations(data, nvars: int, degree: int, a, fresh):
    """Every span reader on fresh(), a new span of the forms a for each
    reader, against the reference on a."""
    b = data.draw(forms(nvars, degree, 3), label="b")
    other = FormSpan(nvars, degree, b)
    ref = reference_span_reduce(nvars, degree, a)
    ref_basis, ref_pivots = ref
    assert same(fresh(), ref)
    assert fresh() == FormSpan(nvars, degree, ref_basis) == fresh()
    assert fresh().is_monomial_span == all(len(f.terms) == 1 for f in ref_basis)
    assert same(fresh() + other, reference_span_reduce(nvars, degree, a + b))
    assert same(other + fresh(), reference_span_reduce(nvars, degree, b + a))
    prods = [f * g for f in ref_basis for g in other.basis]
    assert same(fresh() * other, reference_span_reduce(nvars, 2 * degree, prods))

    matrix = data.draw(invertible(nvars), label="matrix")
    moved = [reference_substitute_linear(f, matrix) for f in ref_basis]
    assert same(fresh().transformed(matrix), reference_span_reduce(nvars, degree, moved))

    cut = [reference_set_variable_zero(f, 0) for f in ref_basis]
    assert same(fresh().restricted(), reference_span_reduce(nvars - 1, degree, cut))

    power = data.draw(st.integers(0, 2), label="power")
    x = HomogeneousForm.variable(nvars, 0)
    lift = a
    for _ in range(power):
        lift = [f * x for f in lift]
    lifted = FormSpan(nvars, degree + power, lift)
    assert lifted.divided_by_variable(power) == fresh()
    xpower = FormSpan(nvars, power, [HomogeneousForm.monomial(nvars, (power,) + (0,) * (nvars - 1))])
    assert same((fresh() * xpower).divided_by_variable(power), ref)
    if any(e[0] < power + 1 for f in ref_basis for e in f.terms):
        with pytest.raises(InputError):
            fresh().divided_by_variable(power + 1)

    minimum = data.draw(st.integers(1, degree), label="minimum")
    assert same(
        fresh().subspace_with_min_exponent(minimum),
        reference_subspace_with_min_exponent(ref_basis, nvars, degree, 0, minimum),
    )

    points = data.draw(
        st.lists(st.lists(small, min_size=nvars, max_size=nvars), min_size=1, max_size=2),
        label="points",
    )
    assert same(
        fresh().subspace_vanishing_at(points),
        reference_subspace_vanishing_at(ref_basis, nvars, degree, points),
    )

    (g,) = data.draw(forms(nvars, degree, 1), label="g")
    inside = g.scaled(0)
    for f, c in zip(a, data.draw(st.lists(small, min_size=len(a), max_size=len(a)))):
        inside = inside + f.scaled(c)
    got = fresh()
    for probe in (g, inside, g + inside):
        want = reference_contains(ref_basis, ref_pivots, probe)
        assert reference_contains(got.basis, got.pivots, probe) == want
    assert reference_contains(got.basis, got.pivots, inside)


@settings(derandomize=True, deadline=None, max_examples=150, phases=PHASES)
@given(st.data())
def test_span_operations_match_oracle(data):
    nvars, degree = shape(data)
    a = data.draw(forms(nvars, degree, 4), label="a")
    check_span_operations(data, nvars, degree, a, lambda: FormSpan(nvars, degree, a))


@settings(derandomize=True, deadline=None, max_examples=100, phases=PHASES)
@given(st.data())
def test_span_operations_on_pending_rows_match_oracle(data):
    """The same readers on the span of the products of two spans of forms
    of several terms, built afresh for each reader by subduction, whose
    table still holds products that no reduction multiplied out."""
    # a product with a constant on the left is the row of B, never
    # pending, and one on the right only repeats the row, so both factors
    # have positive degree
    nvars, degree = shape(data, least=2)
    low = data.draw(st.integers(1, degree - 1), label="low")
    a1 = data.draw(forms(nvars, low, 2), label="a1")
    a2 = data.draw(forms(nvars, degree - low, 3), label="a2")
    A, B = FormSpan(nvars, low, a1), FormSpan(nvars, degree - low, a2)
    assume(pending_rows(FormSpan.subducted(nvars, degree, None, [(A, B)])))

    def fresh() -> FormSpan:
        span = FormSpan.subducted(nvars, degree, None, [(A, B)])
        assert pending_rows(span)
        return span

    check_span_operations(data, nvars, degree, [f * g for f in a1 for g in a2], fresh)

    # division by a power of the first variable, and setting it to zero,
    # on products whose X1 factors sit in either factor: each pending row
    # becomes a pending quotient or cut of it, not yet computed, and no row
    # of the divided span is multiplied out
    x = HomogeneousForm.variable(nvars, 0)

    def lifted(forms, power):
        for _ in range(power):
            forms = [f * x for f in forms]
        return forms

    i = data.draw(st.integers(0, 2), label="i")
    j = data.draw(st.integers(0, 2), label="j")
    A1 = FormSpan(nvars, low + i, lifted(a1, i))
    B1 = FormSpan(nvars, degree - low + j, lifted(a2, j))

    def products() -> FormSpan:
        return FormSpan.subducted(nvars, degree + i + j, None, [(A1, B1)])

    span = products()
    pending = pending_rows(span)
    m = data.draw(st.integers(0, i + j), label="m")
    quotient = span.divided_by_variable(m)
    cut = span.restricted()
    cut_quotient = span.divided_by_variable(m).restricted()
    assert pending_rows(span) == pending == pending_rows(quotient)
    assert pending_rows(cut) == sum(
        isinstance(row, polyform._Pending) and row.row is None
        for p, row in zip(span.pivots, span._rows.values())
        if p[0] == 0
    )
    for result in (quotient, cut, cut_quotient):
        for row in result._rows.values():
            assert type(row) is dict or (len(row.args) == 1 and row.row is None)

    # the readers on fresh quotients and cuts, `*` and `+` among them: a
    # product of quotient or cut rows rests on them as leaves
    prods = lifted([f * g for f in a1 for g in a2], i + j - m)
    cases = [
        (lambda: products().divided_by_variable(m), nvars, degree + i + j - m, prods),
        (
            lambda: products().restricted(),
            nvars - 1,
            degree + i + j,
            [reference_set_variable_zero(f, 0) for f in lifted(prods, m)],
        ),
        (
            lambda: products().divided_by_variable(m).restricted(),
            nvars - 1,
            degree + i + j - m,
            [reference_set_variable_zero(f, 0) for f in prods],
        ),
    ]
    for fresh_result, nv, dg, want in cases:
        ref = reference_span_reduce(nv, dg, want)
        assert same(fresh_result(), ref)
        c = data.draw(forms(nv, dg, 2), label="c")
        other = FormSpan(nv, dg, c)
        assert same(fresh_result() + other, reference_span_reduce(nv, dg, want + c))
        assert same(other + fresh_result(), reference_span_reduce(nv, dg, c + want))
        linear = FormSpan(nv, 1, data.draw(forms(nv, 1, 2), label="linear"))
        moved = [f * g for f in ref[0] for g in linear.basis]
        assert same(fresh_result() * linear, reference_span_reduce(nv, dg + 1, moved))
        twice = fresh_result()
        moved = [f * g for f in ref[0] for g in ref[0]]
        assert same(twice * twice, reference_span_reduce(nv, 2 * dg, moved))

    ref_basis, _ = reference_span_reduce(nvars, degree + i + j, lifted(prods, m))
    n = i + j + 1
    if any(e[0] < n for f in ref_basis for e in f.terms):
        with pytest.raises(InputError):
            span.divided_by_variable(n)
    else:
        down = [
            HomogeneousForm(nvars, {(e[0] - n,) + e[1:]: c for e, c in f.terms.items()})
            for f in ref_basis
        ]
        assert same(
            span.divided_by_variable(n),
            reference_span_reduce(nvars, degree - 1, down),
        )


@settings(derandomize=True, deadline=None, max_examples=120, phases=PHASES)
@given(st.data())
def test_one_term_rows_shift_and_cut_as_the_pending_path(data):
    """A quotient by a power of X1 and the cut X1 -> 0 on spans of
    monomials and forms, and on products of them whose table holds
    one-term rows, term rows and pending products: the same table as
    taking every row through `_apply`, row by row, and no one-term row
    goes through `_apply`."""
    nvars, degree = shape(data, least=2)
    low = data.draw(st.integers(1, degree - 1), label="low")
    x = HomogeneousForm.variable(nvars, 0)

    def mixed(deg: int, most: int):
        monomials = st.lists(
            st.sampled_from(list(all_exponents(nvars, deg))), min_size=1, max_size=most
        ).map(lambda es: [HomogeneousForm.monomial(nvars, e) for e in es])
        return st.tuples(monomials, forms(nvars, deg, 2)).map(lambda t: t[0] + t[1])

    a1 = data.draw(mixed(low, 3), label="a1")
    a2 = data.draw(mixed(degree - low, 3), label="a2")
    lift = data.draw(st.integers(0, 2), label="lift")
    for _ in range(lift):
        a1 = [f * x for f in a1]
    A = FormSpan(nvars, low + lift, a1)
    B = FormSpan(nvars, degree - low, a2)
    applied = []
    apply = polyform._apply

    def counted(op, value):
        applied.append(value)
        return apply(op, value)

    for span in (A, FormSpan.subducted(nvars, degree + lift, None, [(A, B)])):
        power = data.draw(st.integers(0, lift), label="power")
        cases = (
            (lambda: span.divided_by_variable(power), pending_quotient_rows(span, power)),
            (span.restricted, pending_cut_rows(span)),
        )
        for run, want in cases:
            with mock.patch.object(polyform, "_apply", counted):
                got = run()
            assert list(got._rows) == list(want)
            for p, row in got._rows.items():
                assert polyform._terms(row) == polyform._terms(want[p])
        assert not any(type(v) is dict and len(v) == 1 for v in applied)
