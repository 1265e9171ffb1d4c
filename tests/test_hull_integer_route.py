"""The hull on integer points over one common denominator against the
Fraction route it replaced (`oracles.fraction_route_polytope`): random
point sets over small denominators in dimension at most 4, and
Newton-Okounkov bodies of monomial series."""

from fractions import Fraction

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from okbody.convbody import RationalPolytope, okounkov_body
from okbody.flagval import Flag
from okbody.glseries import GradedSeries
from okbody.polyform import HomogeneousForm, all_exponents
from oracles import fraction_route_polytope, normalized_value_points

# no shrinking: a failure is reported as found
PHASES = (Phase.explicit, Phase.reuse, Phase.generate)

coord = st.integers(-6, 6)
step = st.integers(-2, 2)


@st.composite
def integer_point_sets(draw, d: int, most: int):
    """Random integer points, some on a hyperplane, a plane or a line, some
    repeated, or a single point."""
    point = st.tuples(*[coord] * d)
    shape = draw(st.sampled_from(["general", "hyperplane", "plane", "line", "single"]))
    if shape == "single":
        return [draw(point)]
    if shape in ("plane", "line"):
        base = draw(point)
        dirs = [draw(point) for _ in range(2 if shape == "plane" else 1)]
        coeffs = st.lists(step, min_size=len(dirs), max_size=len(dirs))
        pts = [
            tuple(x + sum(c * u[j] for c, u in zip(cs, dirs)) for j, x in enumerate(base))
            for cs in draw(st.lists(coeffs, min_size=1, max_size=most))
        ]
    else:
        pts = draw(st.lists(point, min_size=1, max_size=most))
        if shape == "hyperplane" and d >= 2:
            # last coordinate an integer affine function of the others
            w = draw(st.tuples(*[step] * d))
            pts = [p[:-1] + (sum(a * x for a, x in zip(w, p)) + w[-1],) for p in pts]
    repeats = draw(st.lists(st.sampled_from(pts), max_size=2))
    return pts + repeats


def canonical(poly: RationalPolytope) -> tuple:
    return (poly.n, poly.affdim, poly.vertices, poly.equations, poly.inequalities)


@settings(derandomize=True, deadline=None, max_examples=400, phases=PHASES)
@given(st.data(), st.integers(1, 4))
def test_integer_route_matches_fraction_route(data, d):
    pts = data.draw(integer_point_sets(d, most=10 if d < 4 else 8))
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    fractions = [tuple(Fraction(x, den) for x in p) for p in pts]
    want = canonical(fraction_route_polytope(fractions, d))
    assert canonical(RationalPolytope.from_points(fractions, d)) == want


@settings(derandomize=True, deadline=None, max_examples=40, phases=PHASES)
@given(st.data())
def test_body_matches_fraction_normalized_value_points(data):
    d = data.draw(st.integers(2, 3), label="d")
    twist = data.draw(st.integers(1, 2), label="twist")
    K = data.draw(st.integers(2, 4 if d == 2 else 3), label="K")
    exps = list(all_exponents(d + 1, twist))
    chosen = data.draw(
        st.lists(st.sampled_from(exps), min_size=1, max_size=len(exps), unique=True),
        label="monomials",
    )
    gens = [HomogeneousForm.monomial(d + 1, e) for e in chosen]
    series = GradedSeries.generated(d, twist, {1: gens})
    seed = data.draw(st.none() | st.integers(1, 60), label="flag seed")
    flag = Flag.standard(d) if seed is None else Flag.random(d, seed)
    rep = okounkov_body(series, flag, K)
    pts = normalized_value_points(rep.semigroup, K)
    assert canonical(rep.body) == canonical(RationalPolytope.from_points(pts, d))
    assert canonical(rep.body) == canonical(fraction_route_polytope(pts, d))
