"""Flag-view levels built by subduction against the oracle that transforms
each parent level, on small generated series and their level-2 Fujita
approximations under random invertible rational flags: pivots, bases,
valuative witnesses and the restricted series of the slice identity.
Views of series without generators, which transform each parent level
themselves, are checked against the reference substitution and span.
Every span reader also runs on a freshly built view level whose table
still holds products not multiplied out, against the oracle's level.  A
view's generator spans, mapped one generator level at a time, are checked
against the spans of the reference substitution of each generator, and the
substitutions a view makes are counted.  Generated levels, which form only
the ordered generator products, are checked against the reference that
forms every product, among them series of one-term and longer generators
under sparse flags, and so is the product of a span that is not a full
level with a level, which forms every product too.  A view that claims
monomial generators, its generator spans monomial spans whether or not
their rows are one term, is checked to have key-sum levels equal to the
subduction of those spans and a body that no longer grows, and a Fujita
approximation against the series generated by its level's basis."""

import sys
from fractions import Fraction
from random import Random

from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from okbody import polyform
from okbody.convbody import okounkov_body, valuative_witness
from okbody.exactnum import det
from okbody.flagval import Flag
from okbody.glseries import GradedSeries, _generated_level
from okbody.polyform import FormSpan, HomogeneousForm, all_exponents
from oracles import (
    pending_rows,
    reference_contains,
    reference_generated_levels,
    reference_inverse,
    reference_span_reduce,
    reference_substitute_linear,
    reference_view_level,
)

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
nonzero = small.filter(bool)
# no shrinking: a failure is reported as found, without rerunning the
# slow reference many times over
PHASES = (Phase.explicit, Phase.reuse, Phase.generate)


def forms(nvars: int, degree: int, most: int, monomial: bool):
    exps = list(all_exponents(nvars, degree))
    size = 1 if monomial else 3
    terms = st.dictionaries(st.sampled_from(exps), nonzero, min_size=1, max_size=size)
    form = terms.map(lambda t: HomogeneousForm(nvars, t, degree))
    return st.lists(form, min_size=1, max_size=most)


def mixed_forms(nvars: int, degree: int):
    """One-term forms and forms of two or more terms in one list, at least
    one of each."""
    exps = list(all_exponents(nvars, degree))
    terms = st.dictionaries(st.sampled_from(exps), nonzero, min_size=2, max_size=3)
    form = terms.map(lambda t: HomogeneousForm(nvars, t, degree))
    longer = st.lists(form, min_size=1, max_size=2)
    return st.tuples(forms(nvars, degree, 3, True), longer).map(lambda p: p[0] + p[1])


def flags(n: int):
    matrix = st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)
    return matrix.filter(lambda m: det(m) != 0).map(Flag)


def sparse_flags(n: int):
    """A scaled permutation, at times with one more entry off the
    permutation (still invertible), which keeps most one-term rows one
    term; the standard flag among them."""

    def build(perm, scales, extra):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, j in enumerate(perm):
            m[i][j] = scales[i]
        i, j, c = extra
        if j != perm[i]:
            m[i][j] = c
        return Flag(m)

    scales = st.one_of(st.just([Fraction(1)] * n), st.lists(nonzero, min_size=n, max_size=n))
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), small)
    return st.builds(build, st.permutations(range(n)), scales, extra)


def oracle_view(series: GradedSeries, flag: Flag) -> GradedSeries:
    return GradedSeries(
        series.d,
        series.twist,
        lambda view, k: reference_view_level(series, flag, k),
    )


def assert_same_levels(got: GradedSeries, want: GradedSeries, K: int):
    for k in range(1, K + 1):
        a, b = got.level(k), want.level(k)
        assert a.pivots == b.pivots  # read before the lazy reduced rows
        assert a == b
        assert a.basis == b.basis


@settings(derandomize=True, deadline=None, max_examples=100, phases=PHASES)
@given(st.data())
def test_view_levels_match_oracle(data):
    d = data.draw(st.integers(1, 3), label="d")
    twist = data.draw(st.integers(1, 1 if d == 3 else 2), label="twist")
    K = data.draw(st.integers(2, 4 if d == 3 else 5), label="K")
    monomial = data.draw(st.booleans(), label="monomial")
    gens = {1: data.draw(forms(d + 1, twist, 4, monomial), label="level 1")}
    if data.draw(st.booleans(), label="level 2"):
        gens[2] = data.draw(forms(d + 1, 2 * twist, 2, monomial), label="level 2")
    series = GradedSeries.generated(d, twist, gens)
    if data.draw(st.booleans(), label="fujita"):
        series = series.fujita_subseries(2)
        K = min(K, 3)
    flag = data.draw(flags(d + 1), label="flag")
    view, oracle = series.under_flag(flag), oracle_view(series, flag)
    assert_same_levels(view, oracle, K)

    k = data.draw(st.integers(1, K), label="witness level")
    pivots = oracle.level(k).pivots
    if pivots:
        p = data.draw(st.sampled_from(pivots), label="witness pivot")
        target = [Fraction(x, k) for x in p[:d]]
        got = valuative_witness(series, flag, K, target)
        v, level, form = valuative_witness(oracle, Flag.standard(d), K, target)
        assert got == (v, level, form.substitute_linear(flag.matrix))

    if d >= 2:
        b = data.draw(st.integers(1, 2), label="veronese")
        a = data.draw(st.integers(0, b * series.twist - 1), label="subtracted")

        def restricted(s: GradedSeries) -> GradedSeries:
            return s.veronese(b).subtract_flag_divisor(a).restrict_to_flag_divisor()

        assert_same_levels(restricted(view), restricted(oracle), K // b)


@settings(derandomize=True, deadline=None, max_examples=60, phases=PHASES)
@given(st.data())
def test_generated_levels_match_all_products(data):
    """A generated level multiplies each row only by the generator rows
    from its signature on, and spans what every product spans, with
    generators at one or two levels, under the standard flag and a flag
    view.  The mixed arm puts one-term generators and longer ones in one
    series, under a sparse flag, so that products of one-term rows, and
    one-term rows with a signature, reach the subduction of the series
    and of its view."""
    d = data.draw(st.integers(1, 3), label="d")
    twist = data.draw(st.integers(1, 1 if d == 3 else 2), label="twist")
    K = data.draw(st.integers(2, 3 if d == 3 else 4), label="K")
    mixed = data.draw(st.booleans(), label="mixed")
    if mixed:
        gens = {1: data.draw(mixed_forms(d + 1, twist), label="level 1")}
    else:
        gens = {1: data.draw(forms(d + 1, twist, 4, False), label="level 1")}
    if data.draw(st.booleans(), label="level 2"):
        gens[2] = data.draw(forms(d + 1, 2 * twist, 2, mixed), label="level 2")
    series = GradedSeries.generated(d, twist, gens)
    flag = data.draw((sparse_flags if mixed else flags)(d + 1), label="flag")
    view = series.under_flag(flag)
    inverse = reference_inverse(flag.matrix)
    moved = {
        j: [reference_substitute_linear(g, inverse) for g in forms]
        for j, forms in gens.items()
    }
    for got, want in (
        (series, reference_generated_levels(d + 1, twist, gens, K)),
        (view, reference_generated_levels(d + 1, twist, moved, K)),
    ):
        for k, basis in enumerate(want, start=1):
            assert got.level(k).basis == basis


def test_product_of_a_part_of_a_level_forms_every_product():
    """The signature rule needs the full level on the left: a subspace of a
    view level times the view's generators keeps every product."""
    x1, x2, x3 = (HomogeneousForm.variable(3, i) for i in range(3))
    series = GradedSeries.generated(2, 1, [x1 + x2, x2 + x3.scaled(2), x1 - x3])
    view = series.under_flag(Flag.random(2, 3))
    A, B = view.level(2).subspace_with_min_exponent(1), view.level(1)
    assert A.dim == 3
    want = FormSpan(3, 3, [a * b for a in A.basis for b in B.basis])
    assert want.dim == 6
    assert A * B == want


@settings(derandomize=True, deadline=None, max_examples=60, phases=PHASES)
@given(st.data())
def test_readers_of_pending_view_levels_match_oracle(data):
    d = data.draw(st.integers(1, 3), label="d")
    twist = data.draw(st.integers(1, 1 if d == 3 else 2), label="twist")
    gens = {1: data.draw(forms(d + 1, twist, 4, False), label="level 1")}
    series = GradedSeries.generated(d, twist, gens)
    flag = data.draw(flags(d + 1), label="flag")
    k = data.draw(st.integers(1, 3 if d == 3 else 4), label="k")
    nvars, degree = d + 1, k * twist
    want = reference_view_level(series, flag, k)
    assume(not want.is_complete and pending_rows(series.under_flag(flag).level(k)))

    def fresh() -> FormSpan:
        span = series.under_flag(flag).level(k)
        assert pending_rows(span)
        return span

    assert fresh().pivots == want.pivots
    assert fresh().basis == want.basis
    assert fresh() == want and want == fresh()
    assert fresh().is_monomial_span == want.is_monomial_span

    (extra,) = data.draw(forms(nvars, degree, 1, False), label="extra")
    inside = HomogeneousForm.zero(nvars, degree)
    for f, c in zip(want.basis, data.draw(st.lists(small, min_size=3, max_size=3))):
        inside = inside + f.scaled(c)
    got = fresh()
    for probe in (extra, inside, extra + inside):
        in_want = reference_contains(want.basis, want.pivots, probe)
        assert reference_contains(got.basis, got.pivots, probe) == in_want
    assert reference_contains(got.basis, got.pivots, inside)

    other = FormSpan(nvars, degree, data.draw(forms(nvars, degree, 2, False), label="other"))
    assert fresh() + other == want + other
    assert other + fresh() == other + want
    # both factors hold pending rows
    product = fresh() * series.under_flag(flag).level(1)
    assert product == want * reference_view_level(series, flag, 1)

    assert fresh().transformed(flag.matrix) == want.transformed(flag.matrix)
    assert fresh().transformed(flag.matrix) == series.level(k)
    assert fresh().restricted() == want.restricted()
    power = data.draw(st.integers(0, 2), label="power")
    x = HomogeneousForm.monomial(nvars, (power,) + (0,) * d)
    xpower = FormSpan(nvars, power, [x])
    assert (fresh() * xpower).divided_by_variable(power) == want
    minimum = data.draw(st.integers(1, degree), label="minimum")
    got = fresh().subspace_with_min_exponent(minimum)
    assert got == want.subspace_with_min_exponent(minimum)
    points = data.draw(
        st.lists(st.lists(small, min_size=nvars, max_size=nvars), min_size=1, max_size=2),
        label="points",
    )
    assert fresh().subspace_vanishing_at(points) == want.subspace_vanishing_at(points)


def test_complete_level_as_a_factor():
    """Level 2 is complete, with rational reduced rows, and level 3 is
    not, so level 3 multiplies the parent's complete span, unchanged by the
    flag, by the transformed level-1 generator."""

    def x(*e):
        return HomogeneousForm.monomial(2, e)

    g2 = [x(2, 0) + x(0, 2).scaled(Fraction(1, 2)), x(1, 1) + x(0, 2)]
    series = GradedSeries.generated(1, 1, {1: [x(1, 0)], 2: g2})
    assert series.level(2).is_complete and not series.level(3).is_complete
    for seed in (1, 2, 3):
        flag = Flag.random(1, seed)
        assert_same_levels(series.under_flag(flag), oracle_view(series, flag), 6)


def test_views_of_series_without_generators():
    """An explicit series, a Veronese subseries and a punctured series
    have no generators, so their views transform each parent level; the
    parent basis moved by the reference substitution spans the same level."""

    def x(*e):
        return HomogeneousForm.monomial(3, e)

    half = Fraction(1, 2)
    explicit = GradedSeries.explicit(2, 1, {
        1: [x(1, 0, 0) + x(0, 1, 0), x(0, 0, 1)],
        2: [x(2, 0, 0) - x(0, 1, 1), x(1, 1, 0) + x(0, 0, 2).scaled(half)],
        3: [x(3, 0, 0), x(1, 1, 1) + x(0, 3, 0), x(0, 1, 2)],
    })
    generated = GradedSeries.generated(2, 1, [x(1, 0, 0), x(0, 1, 0) + x(0, 0, 1).scaled(half)])
    punctured = GradedSeries.complete(2).puncture((1, -1, 2))
    for seed, series in enumerate((explicit, generated.veronese(2), punctured), start=1):
        assert series.generators is None
        flag = Flag.random(2, seed)
        view = series.under_flag(flag)
        inverse = reference_inverse(flag.matrix)
        for k in range(1, 4):
            parent = series.level(k)
            assert parent.dim and not parent.is_complete
            moved = [reference_substitute_linear(f, inverse) for f in parent.basis]
            basis, pivots = reference_span_reduce(3, k * series.twist, moved)
            got = view.level(k)
            assert got.pivots == pivots  # read before the lazy reduced rows
            assert got.basis == basis


def random_flag(rng, n: int, rational: bool) -> Flag:
    """An invertible flag matrix, integer or with rational entries; most
    have det != +-1, so their substitution has denominators."""
    while True:
        matrix = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)) if rational else 1)
             for _ in range(n)]
            for _ in range(n)
        ]
        if det(matrix) != 0:
            return Flag(matrix)


def random_form(rng, nvars: int, degree: int, rational: bool) -> HomogeneousForm:
    exps = list(all_exponents(nvars, degree))
    terms = {}
    for e in rng.sample(exps, min(len(exps), rng.randint(1, 3))):
        num = rng.choice((-6, -2, -1, 1, 2, 4, 6))  # contents other than 1 too
        terms[e] = Fraction(num, rng.choice((1, 2, 3, 5)) if rational else 1)
    return HomogeneousForm(nvars, terms, degree)


def test_view_generators_match_per_generator_substitution():
    """A view maps each generator span by one integer substitution; each
    equals the span of the reference substitution of the generators under
    the flag, its basis has Fraction coefficients, and the view's levels
    are those of the series generated by the reference images."""
    rng = Random(19)
    seen = set()
    for case in range(80):
        d = rng.randint(1, 3)
        twist = rng.randint(1, 1 if d == 3 else 2)
        rational_flag, rational_gens = case % 2 == 1, case % 4 >= 2
        gens = {1: [random_form(rng, d + 1, twist, rational_gens) for _ in range(rng.randint(1, 3))]}
        if case % 8 >= 4:
            gens[2] = [random_form(rng, d + 1, 2 * twist, rational_gens) for _ in range(2)]
        series = GradedSeries.generated(d, twist, gens)
        flag = random_flag(rng, d + 1, rational_flag)
        view = series.under_flag(flag)
        inverse = reference_inverse(flag.matrix)
        want = {
            j: tuple(reference_substitute_linear(g, inverse) for g in forms)
            for j, forms in gens.items()
        }
        assert view._gspans == {
            j: FormSpan(d + 1, j * twist, images) for j, images in want.items()
        }
        assert all(
            type(c) is Fraction for forms in view.generators.values() for g in forms
            for c in g.terms.values()
        )
        reference = GradedSeries.generated(d, twist, want)
        for k in range(1, 4 if d < 3 else 3):
            got = view.level(k)
            assert got.pivots == reference.level(k).pivots
            assert got == reference.level(k)
        den = max(v.denominator for row in inverse for v in row)
        seen.add((den > 1, len(gens), rational_flag, rational_gens))
    # integer flags with and without denominators in their inverse, rational
    # flags, rational generators, and generators at levels 1 and 2
    assert {(True, 2, False, True), (True, 2, True, False)} <= seen
    assert {den for den, *_ in seen} == {False, True}


def test_view_substitutes_once_per_generator_level(monkeypatch):
    """Building a view makes one `_substitute` call per generator level and
    builds no form through the validating constructor."""
    calls = {"_substitute": 0, "__init__": 0}
    original = polyform._substitute

    def substitute(*args):
        calls["_substitute"] += 1
        return original(*args)

    for mod in [m for name, m in list(sys.modules.items()) if name.startswith("okbody")]:
        if getattr(mod, "_substitute", None) is original:
            monkeypatch.setattr(mod, "_substitute", substitute)
    init = HomogeneousForm.__init__

    def counted_init(self, *args, **kwargs):
        calls["__init__"] += 1
        init(self, *args, **kwargs)

    rng = Random(20)
    gens = {
        1: [random_form(rng, 3, 1, True) for _ in range(3)],
        2: [random_form(rng, 3, 2, True) for _ in range(2)],
        3: [random_form(rng, 3, 3, False)],
    }
    series = GradedSeries.generated(2, 1, gens)
    monkeypatch.setattr(HomogeneousForm, "__init__", counted_init)
    view = series.under_flag(random_flag(rng, 3, True))
    assert calls == {"_substitute": 3, "__init__": 0}
    assert [len(view.generators[j]) for j in (1, 2, 3)] == [3, 2, 1]
    # positive controls: each form substituted alone is one more table, and
    # the validating constructor is counted
    gens[1][0].substitute_linear(reference_inverse(Flag.random(2, 1).matrix))
    HomogeneousForm.variable(3, 0)
    assert calls == {"_substitute": 4, "__init__": 1}


def matrix_flag(rng, n: int, kind: str) -> Flag:
    """A permutation matrix, a diagonal matrix or an upper triangular one,
    with nonzero integer entries on its diagonal."""
    if kind == "permutation":
        perm = rng.sample(range(n), n)
        return Flag([[int(perm[i] == j) for j in range(n)] for i in range(n)])
    diagonal = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(n)]
    return Flag([
        [diagonal[i] if i == j else rng.randint(-2, 2) * (kind == "triangular" and i < j)
         for j in range(n)]
        for i in range(n)
    ])


def check_monomial_view(series: GradedSeries, flag: Flag, K: int) -> bool:
    """Whether the view of the series claims monomial generators; if it
    does, each level up to K + 2 is the key sums of the level below and
    the generator pivots, the same as the subduction of its generator spans,
    every form of the reference level of the moved generators is a
    monomial, and the body at K equals the body at K + 4, certified exact.
    The series has generators at level 1 only."""
    view = series.under_flag(flag)
    if view.monomial_generator_level is None:
        return False
    n = series.d + 1
    subduced = GradedSeries(series.d, series.twist, _generated_level, reach=1)
    subduced._generate(view._gspans)
    subduced.monomial_generator_level = None  # subduction, not key sums
    inverse = reference_inverse(flag.matrix)
    moved = {1: [reference_substitute_linear(g, inverse) for g in series.generators[1]]}
    lower = [(0,) * n]
    top = view.level(1).pivots
    for k, basis in enumerate(reference_generated_levels(n, series.twist, moved, K + 2), start=1):
        pivots = view.level(k).pivots
        assert set(pivots) == {tuple(map(sum, zip(a, b))) for a in lower for b in top}
        assert view.level(k) == subduced.level(k)
        assert all(len(f.terms) == 1 for f in basis)
        assert view.level(k).basis == basis
        lower = pivots
    rep = okounkov_body(series, flag, K)
    assert rep.certificate == "exact"
    assert rep.body == okounkov_body(series, flag, K + 4).body
    return True


def test_monomial_view_certificates_are_consistent():
    """Seeded series of three to six quadric monomials in P^2 under
    permutation, diagonal and triangular matrix flags
    (`check_monomial_view`).  Permutation and diagonal views always claim
    monomial generators; triangular views on some series and not on others.
    Views whose generator spans are monomial spans with rows of more than
    one term claim them too: the four complete corpus series under seeded
    flags, and X1^2 + X1X2, X1X2, X2^2, X3^2 under the standard flag.  A
    series whose first generator span is a monomial span and whose second
    is not claims nothing, and its levels are those of every product."""
    rng = Random(35)
    claimed = {kind: [] for kind in ("permutation", "diagonal", "triangular")}
    for case in range(36):
        kind = list(claimed)[case % 3]
        n, twist = 3, 2
        exps = rng.sample(list(all_exponents(n, twist)), rng.randint(3, 6))
        gens = [HomogeneousForm.monomial(n, e) for e in exps]
        series = GradedSeries.generated(n - 1, twist, gens)
        claimed[kind].append(check_monomial_view(series, matrix_flag(rng, n, kind), 2))
    assert all(claimed["permutation"]) and all(claimed["diagonal"])
    assert set(claimed["triangular"]) == {False, True}

    for d, twist in ((1, 1), (2, 1), (2, 2), (3, 1)):
        gens = [HomogeneousForm.monomial(d + 1, e) for e in all_exponents(d + 1, twist)]
        complete = GradedSeries.generated(d, twist, gens)
        for seed in (1, 2, 5):
            flag = Flag.random(d, seed)
            span = complete.under_flag(flag)._gspans[1]
            assert any(len(row) > 1 for row in span._rows.values())
            assert check_monomial_view(complete, flag, 2)
    x = [HomogeneousForm.monomial(3, e) for e in ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2))]
    series = GradedSeries.generated(2, 2, [x[0] + x[1], *x[1:]])
    assert any(len(row) > 1 for row in series._gspans[1]._rows.values())
    assert check_monomial_view(series, Flag.standard(2), 6)

    gens = {1: x[1:], 2: [x[0] * x[3] + x[0] * x[0]]}
    series = GradedSeries.generated(2, 2, gens)
    assert series._gspans[1].is_monomial_span and not series._gspans[2].is_monomial_span
    assert series.monomial_generator_level is None
    for k, basis in enumerate(reference_generated_levels(3, 2, gens, 4), start=1):
        assert series.level(k).basis == basis
    assert okounkov_body(series, Flag.standard(2), 4).certificate == "truncation"


def dense_or_mixed_forms(rng, nvars: int, degree: int, dense: bool):
    """Dense: monomials under one integer change of coordinates, as relations
    among monomials survive it.  Mixed: one-term forms and one form of two
    or three terms."""
    exps = list(all_exponents(nvars, degree))
    picked = rng.sample(exps, rng.randint(3, min(len(exps), 5)))
    monomials = [HomogeneousForm.monomial(nvars, e) for e in picked]
    if dense:
        matrix = random_flag(rng, nvars, False).matrix
        return [m.substitute_linear(matrix) for m in monomials]
    return monomials[1:] + [random_form(rng, nvars, degree, False) + monomials[0]]


def test_fujita_levels_match_the_series_of_their_level_basis(monkeypatch):
    """On seeded dense and mixed series of three to five quadrics in P^2, the
    levels of `fujita_subseries(p)` up to K = 5 are those of the series
    generated by the basis of level p, and so is whether its generators
    are monomials: also on a generated and an explicit series whose level 1
    is spanned by monomials though the rows of the explicit one's level 1
    are not one term each.  The approximation takes the term rows of level
    p, so building it and its levels never reads `FormSpan.basis`."""
    reads = []
    basis = FormSpan.basis
    monkeypatch.setattr(
        FormSpan, "basis", property(lambda span: reads.append(span) or basis.fget(span))
    )
    rng = Random(36)
    cases = [dense_or_mixed_forms(rng, 3, 2, dense=case % 2 == 0) for case in range(12)]
    x = [HomogeneousForm.monomial(3, e) for e in ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2))]
    cases.append([x[0] + x[1], *x[1:]])
    all_series = [GradedSeries.generated(2, 2, gens) for gens in cases]
    all_series.append(GradedSeries.explicit(2, 2, {1: cases[-1]}))
    for case, series in enumerate(all_series):
        p = 1 + case // 2 % 2
        approximation = series.fujita_subseries(p)
        levels = [approximation.level(k) for k in range(1, 6)]
        assert reads == []
        reference = GradedSeries.generated(2, 2 * p, {1: series.level(p).basis})
        assert approximation.monomial_generator_level == reference.monomial_generator_level
        for k, got in enumerate(levels, start=1):
            assert got.pivots == reference.level(k).pivots
            assert got == reference.level(k)
        # positive control: the reference read the basis of level p
        assert reads
        reads.clear()
    assert any(len(row) > 1 for row in series.level(1)._rows.values())
    assert approximation.monomial_generator_level == 1
