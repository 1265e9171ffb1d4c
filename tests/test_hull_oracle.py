"""The beneath-beyond hull and the vertex cuts against the slow reference
in `oracles.py`, on small random point sets in dimension at most 4; and
scaling and translation, which reuse the hull's facet incidences, against
a second hull of the moved vertices."""

from fractions import Fraction

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from okbody.convbody import RationalPolytope
from oracles import (
    reference_intersect_halfspace,
    reference_ordered_ring,
    reference_polytope,
    reference_scaled,
    reference_slice_at,
    reference_translate,
    reference_volume,
)

# no shrinking: a failure is reported as found, without rerunning the
# slow reference many times over
PHASES = (Phase.explicit, Phase.reuse, Phase.generate)

small = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])
)
factors = st.builds(Fraction, st.integers(1, 7), st.integers(1, 5))


@st.composite
def point_sets(draw, d: int, most: int):
    """Random points, some squashed onto a hyperplane or a line, some
    repeated, or a single point."""
    point = st.tuples(*[small] * d)
    shape = draw(st.sampled_from(["general", "hyperplane", "line", "single"]))
    if shape == "single":
        return [draw(point)]
    pts = draw(st.lists(point, min_size=1, max_size=most))
    if shape == "hyperplane" and d >= 2:
        # last coordinate an affine function of the others
        w = draw(st.tuples(*[small] * d))
        pts = [p[:-1] + (sum(a * x for a, x in zip(w, p)) + w[-1],) for p in pts]
    elif shape == "line":
        base, step = draw(point), draw(point)
        pts = [
            tuple(x + c * y for x, y in zip(base, step))
            for c in draw(st.lists(small, min_size=1, max_size=most))
        ]
    repeats = draw(st.lists(st.sampled_from(pts), max_size=2))
    return pts + repeats


def canonical(poly: RationalPolytope) -> tuple:
    return (poly.n, poly.affdim, poly.vertices, poly.equations, poly.inequalities)


def check_against_oracle(data, d: int, most: int) -> None:
    pts = data.draw(point_sets(d, most))
    poly = RationalPolytope.from_points(pts, d)
    ref = reference_polytope(pts, d)
    assert canonical(poly) == canonical(ref)
    assert poly.volume() == reference_volume(ref)
    assert poly.volume(ambient=True) == reference_volume(ref, ambient=True)
    if d == 2 and poly.affdim == 2:
        assert poly.ordered_ring() == reference_ordered_ring(ref)

    coord = data.draw(st.integers(0, d - 1))
    t = data.draw(small)
    if ref.vertices and all(v[coord] == t for v in ref.vertices):
        # the body lies inside the slicing hyperplane; the reference's
        # active-set enumeration drops the equation made trivial by the
        # slice and reports an empty section, so the expected section is
        # the body itself with the coordinate dropped
        expected = reference_polytope(
            [v[:coord] + v[coord + 1:] for v in ref.vertices], d - 1
        )
    else:
        expected = reference_slice_at(ref, coord, t)
    assert canonical(poly.slice_at(coord, t)) == canonical(expected)

    normal = data.draw(st.tuples(*[st.integers(-2, 2)] * d))
    offset = data.draw(small)
    assert canonical(poly.intersect_halfspace(normal, offset)) == canonical(
        reference_intersect_halfspace(ref, normal, offset)
    )

    c = data.draw(factors)
    w = data.draw(st.tuples(*[small] * d))
    assert poly.scaled(c).volume() == reference_volume(reference_scaled(ref, c))
    assert poly.translate(w).volume() == reference_volume(reference_translate(ref, w))

    # membership: a point lies in the body iff adding it leaves the hull
    # as it was, and in its relative interior iff moreover it lies
    # strictly inside every facet (read in Fractions off the reference)
    q = data.draw(st.tuples(*[small] * d))
    inside = reference_polytope(pts + [q], d) == ref
    assert poly.contains_point(q) == inside
    assert poly.contains_point(q, strictly=True) == (
        inside
        and all(sum(Fraction(x) * y for x, y in zip(a, q)) < b for a, b in ref.inequalities)
    )
    assert poly.contains(RationalPolytope.from_points([q], d)) == inside


@settings(derandomize=True, deadline=None, max_examples=300, phases=PHASES)
@given(st.data(), st.integers(1, 3))
def test_hull_matches_oracle_up_to_dimension_3(data, d):
    check_against_oracle(data, d, most=8)


@settings(derandomize=True, deadline=None, max_examples=100, phases=PHASES)
@given(st.data())
def test_hull_matches_oracle_in_dimension_4(data):
    # the reference filters 4-d points with one exact LP each, so the
    # sets stay small
    check_against_oracle(data, 4, most=6)


@settings(derandomize=True, deadline=None, max_examples=300, phases=PHASES)
@given(st.data(), st.integers(1, 4))
def test_transforms_match_second_hull(data, d):
    # single points, points on a line or a hyperplane, and solid sets, in
    # dimensions 1 to 4, scaled by p/q and moved
    pts = data.draw(point_sets(d, 8))
    poly = RationalPolytope.from_points(pts, d)
    c = data.draw(factors)
    w = data.draw(st.tuples(*[small] * d))
    grown = c**poly.affdim * poly.volume()
    cases = [
        (poly.scaled(c), reference_scaled(poly, c), grown),
        (poly.translate(w), reference_translate(poly, w), poly.volume()),
        (
            poly.scaled(c).translate(w),
            reference_translate(reference_scaled(poly, c), w),
            grown,
        ),
    ]
    for got, want, volume in cases:
        assert canonical(got) == canonical(want)
        assert got.volume() == want.volume() == volume
        assert got.volume(ambient=True) == want.volume(ambient=True)


def test_transforms_of_empty_and_zero_dimensional_bodies():
    empty = RationalPolytope.empty(2)
    assert empty.scaled(Fraction(3, 2)) is empty
    assert empty.translate((1, 1)) is empty
    point = RationalPolytope.from_points([(Fraction(1, 2), -1, 3)])
    for got, want in (
        (point.scaled(Fraction(2, 3)), reference_scaled(point, Fraction(2, 3))),
        (point.translate((1, Fraction(1, 3), 0)), reference_translate(point, (1, Fraction(1, 3), 0))),
    ):
        assert canonical(got) == canonical(want)
        assert got.volume() == 1
    origin = RationalPolytope.from_points([()], 0)
    assert canonical(origin.scaled(5)) == canonical(origin.translate(()))
