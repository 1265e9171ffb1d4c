"""Form arithmetic and canonical span tests."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbody import polyform
from okbody.errors import InputError
from okbody.flagval import Flag
from okbody.glseries import GradedSeries
from okbody.monideal import base_ideal
from okbody.polyform import (
    FormSpan,
    DEGREE_BOUND,
    HomogeneousForm as HF,
    all_exponents,
    count_exponents,
    pack,
    unpack,
)


def random_form(rng, nvars, degree, nterms=3):
    exps = list(all_exponents(nvars, degree))
    terms = {}
    for _ in range(nterms):
        e = rng.choice(exps)
        terms[e] = F(rng.randint(-4, 4))
    return HF(nvars, terms, degree if any(terms.values()) else None)


def random_matrix(rng, n):
    return [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]


def test_all_exponents_ascending_and_counted():
    for nvars in (1, 2, 3, 4):
        for degree in (0, 1, 2, 3):
            exps = list(all_exponents(nvars, degree))
            assert exps == sorted(exps)
            assert len(set(exps)) == len(exps)
            assert len(exps) == count_exponents(nvars, degree)
            assert all(sum(e) == degree and len(e) == nvars for e in exps)
            assert polyform._keys_of_degree(nvars, degree) == [pack(e) for e in exps]


def test_form_validation():
    with pytest.raises(InputError):
        HF(3, {(1, 0, 0): F(1), (2, 0, 0): F(1)})
    with pytest.raises(InputError):
        HF(3, {(1, 0): F(1)})
    with pytest.raises(InputError):
        HF(3, {(-1, 1, 1): F(1)})
    assert HF(3, {(1, 1, 0): F(0)}).is_zero


def test_form_arithmetic_identities():
    rng = random.Random(41)
    for _ in range(25):
        f = random_form(rng, 3, 2)
        g = random_form(rng, 3, 2)
        h = random_form(rng, 3, 1)
        assert f + g == g + f
        assert (f + g) * h == f * h + g * h
        assert f - f == HF.zero(3)
        assert f.scaled(2) == f + f


def test_substitution_composes():
    rng = random.Random(42)
    for _ in range(15):
        f = random_form(rng, 3, 2)
        M = random_matrix(rng, 3)
        N = random_matrix(rng, 3)
        MN = [
            [sum(M[i][k] * N[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert f.substitute_linear(M).substitute_linear(N) == f.substitute_linear(MN)
        ident = [[F(i == j) for j in range(3)] for i in range(3)]
        assert f.substitute_linear(ident) == f


def test_substitution_matches_evaluation():
    rng = random.Random(43)
    for _ in range(20):
        f = random_form(rng, 3, 3)
        M = random_matrix(rng, 3)
        p = [F(rng.randint(-3, 3)) for _ in range(3)]
        Mp = [sum(M[j][k] * p[k] for k in range(3)) for j in range(3)]
        assert f.substitute_linear(M).evaluate(p) == f.evaluate(Mp)


def test_set_variable_zero_matches_evaluation():
    rng = random.Random(44)
    for _ in range(20):
        f = random_form(rng, 3, 2)
        p = [F(rng.randint(-3, 3)) for _ in range(2)]
        r = f.set_variable_zero(1)
        assert r.nvars == 2
        assert r.evaluate(p) == f.evaluate([p[0], F(0), p[1]])


def test_span_canonical_and_order_free():
    rng = random.Random(45)
    for _ in range(20):
        forms = [random_form(rng, 3, 2) for _ in range(4)]
        s1 = FormSpan(3, 2, forms)
        shuffled = forms[:]
        rng.shuffle(shuffled)
        s2 = FormSpan(3, 2, shuffled)
        assert s1 == s2
        assert list(s1.pivots) == sorted(s1.pivots)
        assert s1.dim == len(s1.pivots)
        for f in forms:
            assert s1.contains(f)
        combo = HF.zero(3, 2)
        for f in forms:
            combo = combo + f.scaled(rng.randint(-2, 2))
        assert s1.contains(combo)


def test_monomial_fast_path_matches_general():
    x, y, z = (HF.variable(3, i) for i in range(3))
    mono = FormSpan(3, 2, [x * x, y * z, x * x])
    mixed = FormSpan(3, 2, [x * x + y * z, y * z, (x * x).scaled(3)])
    assert mono == mixed
    assert mono.is_monomial_span
    assert mono.pivots == ((0, 1, 1), (2, 0, 0))


def test_monomial_span_with_binomial_rows():
    # the echelon rows X2^2 + X1^2 and X1^2 are not all monomials, but every
    # term is a lead, so the span is that of X1^2 and X2^2
    x, y = HF.variable(3, 0), HF.variable(3, 1)
    forms = [x * x + y * y, x * x - y * y]
    span = FormSpan(3, 2, forms)
    assert span.is_monomial_span
    assert span.basis == (y * y, x * x)
    series = GradedSeries.generated(2, 2, forms)
    assert base_ideal(series, 1).generators == ((0, 2, 0), (2, 0, 0))
    assert not FormSpan(3, 2, [x * x + y * y]).is_monomial_span


def test_long_product_chain_multiplies_out_without_recursion():
    # each span is the previous one times the constants: one pending
    # product resting on the one before, 3,000 deep, read by `basis`
    x, y = HF.variable(2, 0), HF.variable(2, 1)
    unit = FormSpan.complete(2, 0)
    span = FormSpan(2, 1, [x + y.scaled(2)])
    for _ in range(3000):
        span = FormSpan.subducted(2, 1, None, [(span, unit)])
    assert span.pivots == ((0, 1),)
    assert span.basis == ((x.scaled(F(1, 2)) + y),)


def test_basis_forms_match_validated_forms(monkeypatch):
    # basis builds its forms from rows it made itself, without running the
    # validating constructor, and they equal validated forms of the same
    # rows, with Fraction coefficients, monomial spans included
    rng = random.Random(46)
    spans = [FormSpan.complete(3, 2)] + [
        FormSpan(3, 2, [random_form(rng, 3, 2) for _ in range(3)]) for _ in range(20)
    ]
    validated = [[HF(3, f.terms, 2) for f in span.basis] for span in spans]
    inits = []
    original = HF.__init__

    def counted(self, *args, **kwargs):
        inits.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(HF, "__init__", counted)
    for span, forms in zip(spans, validated):
        basis = span.basis
        assert basis == tuple(forms)
        for f in basis:
            assert f.degree == 2 and f.nvars == 3
            assert all(type(c) is F and c for c in f.terms.values())
    assert not inits
    with pytest.raises(InputError):
        HF(3, {(1, 1): 1})  # the public constructor still validates


def test_complete_span_matches_bruteforce():
    for nvars, degree in ((2, 3), (3, 2), (4, 1)):
        c = FormSpan.complete(nvars, degree)
        b = FormSpan(
            nvars, degree, [HF.monomial(nvars, e) for e in all_exponents(nvars, degree)]
        )
        assert c == b
        assert c.is_complete
        assert c.dim == count_exponents(nvars, degree)


def test_complete_products():
    c1 = FormSpan.complete(3, 1)
    assert c1 * c1 == FormSpan.complete(3, 2)
    assert (c1 * c1) * c1 == FormSpan.complete(3, 3)


def test_span_sum():
    x, y, z = (HF.variable(3, i) for i in range(3))
    u = FormSpan(3, 2, [x * x]) + FormSpan(3, 2, [y * y])
    assert u.dim == 2
    assert u == FormSpan(3, 2, [x * x, y * y])


def test_min_exponent_subspace():
    c = FormSpan.complete(3, 2)
    dv = c.subspace_with_min_exponent(1)
    # forms divisible by X1 in degree 2 are X1 * (complete degree 1)
    assert dv.dim == count_exponents(3, 1)
    assert all(e[0] >= 1 for f in dv.basis for e in f.terms)
    dv2 = c.subspace_with_min_exponent(2)
    assert dv2.dim == 1 and dv2.pivots == ((2, 0, 0),)
    assert c.subspace_with_min_exponent(0) == c


def test_vanishing_subspace():
    c = FormSpan.complete(3, 2)
    pt = [F(1), F(1), F(1)]
    v = c.subspace_vanishing_at([pt])
    assert v.dim == c.dim - 1
    assert all(f.evaluate(pt) == 0 for f in v.basis)
    v2 = c.subspace_vanishing_at([pt, [F(1), F(0), F(0)]])
    assert v2.dim == c.dim - 2


def test_restricted_span():
    x, y, z = (HF.variable(3, i) for i in range(3))
    sp = FormSpan(3, 2, [x * x, x * y, y * y])
    rs = sp.restricted()
    assert rs.nvars == 2 and rs.dim == 1 and rs.pivots == ((2, 0),)
    # restriction of a complete space is complete in fewer variables
    assert FormSpan.complete(3, 2).restricted() == FormSpan.complete(2, 2)


def test_span_rejects_wrong_shape():
    x = HF.variable(3, 0)
    with pytest.raises(InputError, match="span: form of wrong shape"):
        FormSpan(3, 2, [x])
    with pytest.raises(InputError, match="span: form of wrong shape"):
        FormSpan(2, 1, [x])


@settings(derandomize=True, max_examples=400)
@given(st.data())
def test_packed_keys_keep_lex_order_and_sums(data):
    """Packed WIDTH bits per entry, exponents with entries below the degree
    bound compare as their keys do, unpack to themselves, and a sum whose
    entries stay below the bound packs to the sum of the keys.  The
    difference of two keys is a key below the bound exactly when no entry
    of the difference is negative, and is then the key of the difference."""
    nvars = data.draw(st.integers(1, 5), label="nvars")
    high = data.draw(st.sampled_from([6, DEGREE_BOUND - 1]), label="high")
    entry = st.integers(0, high)
    exponent = st.tuples(*[entry] * nvars)
    a, b = data.draw(exponent, label="a"), data.draw(exponent, label="b")
    assert (pack(a) < pack(b)) == (a < b)
    assert (pack(a) == pack(b)) == (a == b)
    assert unpack(pack(a), nvars) == a
    cap = tuple(high - x for x in a)
    c = data.draw(st.tuples(*[st.integers(0, m) for m in cap]), label="c")
    total = tuple(x + y for x, y in zip(a, c))
    assert pack(a) + pack(c) == pack(total)
    diff = pack(a) - pack(b)
    valid = 0 <= diff and all(x < DEGREE_BOUND for x in unpack(diff, nvars))
    assert valid == all(x >= y for x, y in zip(a, b))
    if valid:
        assert diff == pack(tuple(x - y for x, y in zip(a, b)))
    top = (DEGREE_BOUND - 1,) * nvars
    assert unpack(pack(top), nvars) == top


def test_degrees_at_the_packing_bound_are_refused():
    """A span, a substitution or a series level of degree DEGREE_BOUND or
    more is refused with an InputError naming the bound, before any row is
    built; one degree less packs."""
    x = HF.monomial(2, (DEGREE_BOUND, 0))
    bound = f"bound {DEGREE_BOUND}"
    with pytest.raises(InputError, match=bound):
        FormSpan(2, DEGREE_BOUND, [x])
    with pytest.raises(InputError, match=bound):
        FormSpan.complete(3, DEGREE_BOUND)
    with pytest.raises(InputError, match=bound):
        x.substitute_linear([[1, 0], [0, 1]])
    below = HF.monomial(2, (DEGREE_BOUND - 1, 0))
    assert FormSpan(2, DEGREE_BOUND - 1, [below]).pivots == ((DEGREE_BOUND - 1, 0),)
    S = GradedSeries.complete(2)
    with pytest.raises(InputError, match=bound):
        S.level(DEGREE_BOUND)
    with pytest.raises(InputError, match=bound):
        S.dims(DEGREE_BOUND)
    twisted = GradedSeries.complete(1, 2)
    with pytest.raises(InputError, match=bound):
        twisted.semigroup(Flag.standard(1), DEGREE_BOUND // 2)


def test_generated_levels_form_ordered_products(monkeypatch):
    """A generated level multiplies a row that entered with a generator row
    only by that row and the generator rows after it: level 3 of four
    linear forms spanning three reduces 2 products, where `*`, which forms
    every product, reduces 8 for the same span."""
    reduced = []
    original = polyform._top_reduce

    def counted(row, table):
        reduced.append(row)
        return original(row, table)

    monkeypatch.setattr(polyform, "_top_reduce", counted)
    x, y, z = (HF.variable(3, i) for i in range(3))
    S = GradedSeries.generated(2, 1, [x + y, y + z.scaled(2), x - z, x + y + z])
    below, gens = S.level(2), S.level(1)
    reduced.clear()
    level = S.level(3)
    assert len(reduced) == 2
    reduced.clear()
    every = below * gens
    assert len(reduced) == 8
    assert level == every and level.is_complete


def test_ordered_products_start_at_the_signature(monkeypatch):
    """Level 3 multiplies each row of level 2 by the generator rows from the
    row's signature on: the generator row that a pending product took as
    its second factor.  A remainder of a reduction has none and meets every
    generator row.  No row here has one term, so each product formed is
    either a pending product or a reduction."""

    def q(*e):
        return HF.monomial(3, e)

    S = GradedSeries.generated(2, 2, [
        q(1, 1, 0) + q(0, 2, 0).scaled(2),
        -q(0, 0, 2) - q(0, 2, 0),
        -q(0, 1, 1) - q(1, 0, 1),
    ])
    gens = list(S.level(1)._rows.values())
    position = {id(g): i for i, g in enumerate(gens)}
    below = list(S.level(2)._rows.values())
    starts = [
        position[id(row.args[1])] if type(row) is polyform._Pending else 0
        for row in below
    ]
    assert min(map(len, gens)) > 1 and all(len(polyform._terms(r)) > 1 for r in below)
    assert dict in map(type, below) and max(starts) == len(gens) - 1
    formed = []
    pending, reduce = polyform._Pending, polyform._top_reduce

    class Recorded(pending):
        __slots__ = ()

        def __init__(self, op, *args):
            super().__init__(op, *args)
            formed.append(args)

    def counted(row, table):
        formed.append(row)
        return reduce(row, table)

    monkeypatch.setattr(polyform, "_Pending", Recorded)
    monkeypatch.setattr(polyform, "_top_reduce", counted)
    S.level(3)
    assert len(formed) == sum(len(gens) - start for start in starts)
