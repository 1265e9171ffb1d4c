"""Span operations on reduced term rows and the monomial-table substitution
against the slow form-based reference in `oracles.py`, on small random
non-monomial forms in 2 to 4 variables of degree at most 4."""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from okbody.errors import InputError
from okbody.exactnum import det
from okbody.polyform import FormSpan, HomogeneousForm, all_exponents
from oracles import (
    reference_contains,
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
    terms = st.dictionaries(st.sampled_from(exps), nonzero, min_size=2, max_size=4)
    form = terms.map(lambda t: HomogeneousForm(nvars, t, degree))
    return st.lists(form, min_size=1, max_size=most)


def invertible(n: int):
    integer = st.builds(Fraction, st.integers(-3, 3))
    entries = st.one_of(integer, small)
    matrix = st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )
    return matrix.filter(lambda m: det(m) != 0)


def shape(data):
    nvars = data.draw(st.integers(2, 4), label="nvars")
    degree = data.draw(st.integers(1, 4 if nvars < 4 else 3), label="degree")
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


@settings(derandomize=True, deadline=None, max_examples=150, phases=PHASES)
@given(st.data())
def test_span_operations_match_oracle(data):
    nvars, degree = shape(data)
    a = data.draw(forms(nvars, degree, 4), label="a")
    b = data.draw(forms(nvars, degree, 3), label="b")
    span, other = FormSpan(nvars, degree, a), FormSpan(nvars, degree, b)
    ref = reference_span_reduce(nvars, degree, a)
    ref_basis, ref_pivots = ref
    assert same(span, ref)
    assert span.is_monomial_span == all(len(f.terms) == 1 for f in ref_basis)
    assert same(span + other, reference_span_reduce(nvars, degree, a + b))
    prods = [f * g for f in ref_basis for g in other.basis]
    assert same(span * other, reference_span_reduce(nvars, 2 * degree, prods))

    matrix = data.draw(invertible(nvars), label="matrix")
    moved = [reference_substitute_linear(f, matrix) for f in ref_basis]
    assert same(span.transformed(matrix), reference_span_reduce(nvars, degree, moved))

    var = data.draw(st.integers(0, nvars - 1), label="var")
    cut = [f.set_variable_zero(var) for f in ref_basis]
    assert same(span.restricted(var), reference_span_reduce(nvars - 1, degree, cut))

    power = data.draw(st.integers(0, 2), label="power")
    x = HomogeneousForm.variable(nvars, var)
    lift = a
    for _ in range(power):
        lift = [f * x for f in lift]
    lifted = FormSpan(nvars, degree + power, lift)
    assert lifted.divided_by_variable(var, power) == span
    if any(e[var] < power + 1 for f in ref_basis for e in f.terms):
        with pytest.raises(InputError):
            span.divided_by_variable(var, power + 1)

    minimum = data.draw(st.integers(1, degree), label="minimum")
    assert same(
        span.subspace_with_min_exponent(var, minimum),
        reference_subspace_with_min_exponent(ref_basis, nvars, degree, var, minimum),
    )

    points = data.draw(
        st.lists(st.lists(small, min_size=nvars, max_size=nvars), min_size=1, max_size=2),
        label="points",
    )
    assert same(
        span.subspace_vanishing_at(points),
        reference_subspace_vanishing_at(ref_basis, nvars, degree, points),
    )

    (g,) = data.draw(forms(nvars, degree, 1), label="g")
    inside = g.scaled(0)
    for f, c in zip(a, data.draw(st.lists(small, min_size=len(a), max_size=len(a)))):
        inside = inside + f.scaled(c)
    for probe in (g, inside, g + inside):
        assert span.contains(probe) == reference_contains(ref_basis, ref_pivots, probe)
    assert span.contains(inside)
