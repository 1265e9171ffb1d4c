"""The beneath-beyond hull and the vertex cuts against the slow reference
in `oracles.py`, on small random point sets in dimension at most 4."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from okbody.convbody import RationalPolytope
from oracles import (
    reference_intersect_halfspace,
    reference_ordered_ring,
    reference_polytope,
    reference_slice_at,
    reference_volume,
)

small = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])
)


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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data(), st.integers(1, 3))
def test_hull_matches_oracle_up_to_dimension_3(data, d):
    check_against_oracle(data, d, most=8)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_hull_matches_oracle_in_dimension_4(data):
    # the reference filters 4-d points with one exact LP each, so the
    # sets stay small
    check_against_oracle(data, 4, most=6)
