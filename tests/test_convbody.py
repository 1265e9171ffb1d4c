"""Tests for exact rational polytopes and body construction."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from okbody import cli, convbody
from okbody.convbody import (
    RationalPolytope,
    okounkov_body,
    valuative_witness,
)
from okbody.errors import InputError, InvariantError
from okbody.exactnum import det, lattice_index, smith_normal_form
from okbody.flagval import Flag, indecomposables
from okbody.glseries import GradedSeries
from okbody.polyform import FormSpan, HomogeneousForm
from oracles import (
    fraction_route_polytope,
    normalized_value_points,
    reference_indecomposables,
    value_points,
)

F = Fraction


def monomial_series(d, degree, exponents, label=""):
    nvars = d + 1
    gens = [HomogeneousForm.monomial(nvars, e) for e in exponents]
    return GradedSeries.generated(d, degree, gens, label=label)


@pytest.fixture
def triangle():
    return RationalPolytope.from_points([(0, 0), (2, 0), (0, 2)])


class TestFromPoints:
    def test_redundant_points_dropped(self, triangle):
        fat = RationalPolytope.from_points(
            [(0, 0), (2, 0), (0, 2), (1, 1), (F(1, 2), F(1, 2)), (1, 0)]
        )
        assert fat == triangle
        assert fat.vertices == ((F(0), F(0)), (F(0), F(2)), (F(2), F(0)))

    def test_full_dim_has_no_equations(self, triangle):
        assert triangle.affdim == 2
        assert triangle.equations == ()
        assert len(triangle.inequalities) == 3

    def test_segment_equation_is_primitive(self):
        seg = RationalPolytope.from_points([(0, 0), (3, 4), (F(3, 2), 2)])
        assert seg.affdim == 1
        ((normal, offset),) = seg.equations
        assert normal == (4, -3)
        assert offset == 0

    def test_point_and_empty(self):
        pt = RationalPolytope.from_points([(5, 7)])
        assert pt.affdim == 0
        e = RationalPolytope.empty(2)
        assert e.is_empty
        assert e.affdim == -1

    def test_zero_dim_ambient(self):
        z = RationalPolytope.from_points([()], 0)
        assert z.affdim == 0
        assert not z.is_empty

    def test_cube_facets(self):
        cube = RationalPolytope.from_points(
            [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        )
        assert len(cube.vertices) == 8
        assert len(cube.inequalities) == 6

    def test_direct_construction_rejected(self):
        with pytest.raises(InputError):
            RationalPolytope()

    def test_mixed_dimension_rejected(self):
        with pytest.raises(InputError):
            RationalPolytope.from_points([(0, 0), (1, 2, 3)])

    def test_hyperplane_through_points(self):
        # in space the normal is a cross product; collinear points, in
        # space or in four dimensions, span no unique hyperplane
        plane = convbody._hyperplane([(1, 0, 0), (0, 2, 0), (0, 0, 3)], [], (0, 0, 0), 1)
        assert plane == ((6, 3, 2), 6)
        below = convbody._hyperplane([(1, 0, 0), (0, 2, 0), (0, 0, 3)], [], (1, 1, 1), 1)
        assert below == ((-6, -3, -2), -6)
        line = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        assert convbody._hyperplane(line, [], (1, 0, 0), 1) is None
        assert convbody._hyperplane([p + (0,) for p in line], [], (1, 0, 0, 0), 1) is None

    def test_hull_makes_no_rational_elimination(self, monkeypatch):
        # facets, equations and volumes come from integer eliminations
        # only; the canonical basis of a span of forms of several terms is
        # still reduced by rref_rows, which keeps the counting below honest
        import sys

        from okbody import exactnum

        modules = [
            m for m in list(sys.modules.values()) if m.__name__.startswith("okbody")
        ]
        assert not [m.__name__ for m in modules if hasattr(m, "nullspace")]
        calls = {}
        original = exactnum.rref_rows
        for mod in modules:
            if getattr(mod, "rref_rows", None) is original:

                def counted(*args, _name=mod.__name__):
                    calls[_name] = calls.get(_name, 0) + 1
                    return original(*args)

                monkeypatch.setattr(mod, "rref_rows", counted)
        rng = random.Random(7)
        solid = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(30)]
        flat = [(x, y, 2 * x - y + 1) for x, y, _ in solid]
        for pts in (solid, flat):
            poly = RationalPolytope.from_points(pts, 3)
            assert poly.affdim == (3 if pts is solid else 2)
            assert poly.volume() > 0
            assert calls == {}
        x, y, z = (HomogeneousForm.variable(3, i) for i in range(3))
        FormSpan(3, 1, [x + y, y + z]).basis
        assert calls == {"okbody.polyform": 1}


class TestEquality:
    def test_order_and_redundancy_invariant(self, triangle):
        again = RationalPolytope.from_points([(0, 2), (1, 1), (2, 0), (0, 0)])
        assert again == triangle

    def test_distinct_bodies_differ(self, triangle):
        other = RationalPolytope.from_points([(0, 0), (1, 0), (0, 1)])
        assert other != triangle

    def test_hrep_consistency(self, triangle):
        # every vertex satisfies every inequality, with equality on some facet
        for v in triangle.vertices:
            slacks = [
                b - sum(a * x for a, x in zip(normal, v))
                for normal, b in triangle.inequalities
            ]
            assert all(s >= 0 for s in slacks)
            assert any(s == 0 for s in slacks)

    def test_hrep_consistency_off_origin(self):
        # bodies not containing the origin exercise the affine reduction
        # in both full and deficient dimension
        bodies = [
            RationalPolytope.from_points([(1, 0), (0, 1), (1, 1)]),
            RationalPolytope.from_points([(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]),
            RationalPolytope.from_points([(1, 1), (2, 3)]),
            RationalPolytope.from_points([(3, 5), (4, 5), (3, 6), (4, 6)]),
        ]
        for body in bodies:
            for v in body.vertices:
                assert body.contains_point(v)
                assert not body.contains_point(v, strictly=True)
                slacks = [
                    b - sum(a * x for a, x in zip(normal, v))
                    for normal, b in body.inequalities
                ]
                assert all(s >= 0 for s in slacks)
                assert any(s == 0 for s in slacks)

    def test_off_origin_facets_and_slice(self):
        P = RationalPolytope.from_points([(1, 0), (0, 1), (1, 1)])
        assert sorted(P.inequalities) == [
            ((F(-1), F(-1)), F(-1)),
            ((F(0), F(1)), F(1)),
            ((F(1), F(0)), F(1)),
        ]
        assert P.slice_at(0, F(1, 2)).vertices == ((F(1, 2),), (F(1),))
        assert P.contains_point((F(1, 2), F(3, 4)), strictly=True)
        assert not P.contains_point((0, 0))


class TestMembership:
    def test_interior_boundary_outside(self, triangle):
        assert triangle.contains_point((1, 1))
        assert not triangle.contains_point((1, 1), strictly=True)
        assert triangle.contains_point((F(1, 3), F(1, 3)), strictly=True)
        assert not triangle.contains_point((2, 1))

    def test_strict_is_relative_interior(self):
        seg = RationalPolytope.from_points([(0, 0), (3, 4)])
        assert seg.contains_point((F(3, 2), 2), strictly=True)
        assert not seg.contains_point((0, 0), strictly=True)

    def test_containment_of_bodies(self, triangle):
        small = RationalPolytope.from_points([(0, 0), (1, 0), (0, 1)])
        assert triangle.contains(small)
        assert not small.contains(triangle)
        assert triangle.contains(RationalPolytope.empty(2))


class TestVolume:
    def test_full_dim(self, triangle):
        assert triangle.volume() == 2
        assert triangle.volume(ambient=True) == 2

    def test_simplex_3d(self):
        sim = RationalPolytope.from_points(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        assert sim.volume() == F(1, 6)

    def test_unit_cube(self):
        cube = RationalPolytope.from_points(
            [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        )
        assert cube.volume() == 1

    def test_segment_lattice_length(self):
        # primitive direction (3, 4): one lattice step end to end
        seg = RationalPolytope.from_points([(0, 0), (3, 4)])
        assert seg.volume() == 1
        assert seg.volume(ambient=True) == 0
        double = RationalPolytope.from_points([(0, 0), (6, 8)])
        assert double.volume() == 2

    def test_skew_square_lattice_area(self):
        # unit square in the plane z = x: directions (1,0,1) and (0,1,0)
        # form a basis of the direction lattice, so the area is 1
        sq = RationalPolytope.from_points(
            [(0, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 1)]
        )
        assert sq.affdim == 2
        assert sq.volume() == 1
        assert sq.volume(ambient=True) == 0

    def test_degenerate_cases(self):
        assert RationalPolytope.from_points([(5, 7)]).volume() == 1
        assert RationalPolytope.from_points([(5, 7)]).volume(ambient=True) == 0
        assert RationalPolytope.empty(2).volume() == 0
        assert RationalPolytope.from_points([()], 0).volume() == 1

    def test_full_dimensional_simplex_kernel(self, monkeypatch):
        """A full-dimensional simplex is measured by the lattice index of
        its edges, which equals the product of their Smith factors; only
        lower-dimensional bodies run the Smith form."""
        rng = random.Random(413)
        for _ in range(400):
            n = rng.randint(1, 4)
            edges = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if det(edges) == 0:
                continue
            assert lattice_index(edges, n) == math.prod(smith_normal_form(edges))
            simplex = RationalPolytope.from_points([(0,) * n] + [tuple(e) for e in edges], n)
            assert simplex.volume() == F(abs(det(edges)), math.factorial(n))
        calls = []
        monkeypatch.setattr(
            convbody, "smith_normal_form", lambda m: calls.append(m) or smith_normal_form(m)
        )
        cube = [(a, b, c) for a in (0, 2) for b in (0, 1) for c in (0, 1)]
        assert RationalPolytope.from_points(cube, 3).volume() == 2
        assert calls == []
        flat = [(x, y, x + y) for x, y, _ in cube]
        assert RationalPolytope.from_points(flat, 3).volume() == 2
        assert calls

    def test_scaling_law(self, triangle):
        rng = random.Random(411)
        for _ in range(5):
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            assert triangle.scaled(c).volume() == c**2 * triangle.volume()

    def test_lattice_volume_is_unimodular_invariant(self):
        # rational points spanning an m-dimensional affine subspace of Q^n:
        # an integer translation and an integer map of determinant +-1 move
        # the direction lattice onto the image's, so the volume stays
        rng = random.Random(412)

        def rational():
            return F(rng.randint(-4, 4), rng.randint(1, 4))

        for _ in range(300):
            n = rng.randint(1, 4)
            m = rng.randint(1, n)
            base = [rational() for _ in range(n)]
            dirs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            pts = [
                [b + sum(rational() * d[j] for d in dirs) for j, b in enumerate(base)]
                for _ in range(m + rng.randint(1, 3))
            ]
            poly = RationalPolytope.from_points(pts, n)
            if poly.affdim < 1:
                continue
            # a unimodular map: signed permutation times random shears
            perm = rng.sample(range(n), n)
            U = [
                [rng.choice((1, -1)) * int(perm[i] == j) for j in range(n)]
                for i in range(n)
            ]
            for _ in range(2 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    U[i] = [a + c * b for a, b in zip(U[i], U[j])]
            shift = [rng.randint(-5, 5) for _ in range(n)]
            moved = [
                [sum(u * x for u, x in zip(row, p)) + t for row, t in zip(U, shift)]
                for p in pts
            ]
            image = RationalPolytope.from_points(moved, n)
            assert image.affdim == poly.affdim
            assert image.volume() == poly.volume() > 0
            assert image.volume(ambient=True) == poly.volume(ambient=True)


class TestSlices:
    def test_triangle_slices(self, triangle):
        assert triangle.slice_at(0, 1).vertices == ((F(0),), (F(1),))
        assert triangle.slice_at(0, F(1, 2)).vertices == ((F(0),), (F(3, 2),))
        assert triangle.slice_at(0, F(4, 3)).vertices == ((F(0),), (F(2, 3),))

    def test_slice_at_vertex_and_beyond(self, triangle):
        top = triangle.slice_at(0, 2)
        assert top.affdim == 0
        assert top.vertices == ((F(0),),)
        assert triangle.slice_at(0, 3).is_empty

    def test_slice_of_interval(self):
        iv = RationalPolytope.from_points([(0,), (2,)])
        inner = iv.slice_at(0, 1)
        assert inner.n == 0
        assert inner.affdim == 0
        assert iv.slice_at(0, 3).is_empty

    def test_slice_other_coordinate(self, triangle):
        assert triangle.slice_at(1, 1).vertices == ((F(0),), (F(1),))


class TestHalfspace:
    def test_triangle_cut(self, triangle):
        h = triangle.intersect_halfspace((-1, 0), F(-1, 2))  # x >= 1/2
        assert h.vertices == (
            (F(1, 2), F(0)),
            (F(1, 2), F(3, 2)),
            (F(2), F(0)),
        )

    def test_slack_and_empty_cuts(self, triangle):
        assert triangle.intersect_halfspace((1, 0), 10) == triangle
        assert triangle.intersect_halfspace((1, 0), -1).is_empty

    def test_cut_to_face(self, triangle):
        edge = triangle.intersect_halfspace((-1, -1), -2)  # x + y >= 2
        assert edge.affdim == 1
        assert edge.vertices == ((F(0), F(2)), (F(2), F(0)))


class TestTransforms:
    def test_no_hull_after_the_first(self, monkeypatch):
        """Volume, scaling and translation read the facet incidences the
        hull left, and run no hull, affine hull or kernel of their own."""
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        bodies = [
            okounkov_body(cli.load_series(str(corpus / name))[0], Flag.standard(d), K).body
            for name, d, K in (("p3_o1_complete.json", 3, 3), ("p2_except_x2x3.json", 2, 8))
        ]
        flat = [(x, y, 2 * x - y + 1) for x in range(3) for y in range(-1, 2)]
        bodies.append(RationalPolytope.from_points(flat, 3))
        assert [b.affdim for b in bodies] == [3, 2, 2]
        calls = []
        for name in ("_hull", "_affine_data", "kernel"):
            original = getattr(convbody, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(convbody, name, counted)
        for body in bodies:
            moved = body.scaled(F(2, 3)).translate((1,) + (F(1, 2),) * (body.n - 1))
            assert moved.volume() == F(2, 3) ** body.affdim * body.volume() > 0
        assert calls == []

    def test_volume_needs_incidences(self, triangle):
        bare = RationalPolytope._raw(
            2, 2, triangle.vertices, triangle.equations, triangle.inequalities
        )
        for read in (bare.volume, lambda: bare.scaled(2), lambda: bare.translate((1, 0))):
            with pytest.raises(InvariantError, match="incidences"):
                read()

    def test_degenerate_simplex_is_an_invariant_error(self):
        # three collinear points with the incidences of a triangle
        line = ((F(0), F(0)), (F(1), F(0)), (F(2), F(0)))
        broken = RationalPolytope._raw(
            2, 2, line, (), (), [frozenset({1, 2}), frozenset({0, 1}), frozenset({0, 2})]
        )
        with pytest.raises(InvariantError, match="degenerate"):
            broken.volume()

    def test_translate(self, triangle):
        t = triangle.translate((1, 1))
        assert t.vertices == ((F(1), F(1)), (F(1), F(3)), (F(3), F(1)))

    def test_scaled(self, triangle):
        s = triangle.scaled(F(1, 2))
        assert s.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
        with pytest.raises(InputError):
            triangle.scaled(0)

    def test_ordered_ring(self, triangle):
        ring = triangle.ordered_ring()
        assert ring[0] == (F(0), F(0))
        assert set(ring) == set(triangle.vertices)
        assert len(ring) == 3


class TestOkounkovBody:
    def test_quadrics_without_mixed_term(self, triangle):
        S = monomial_series(
            2, 2, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]
        )
        rep = okounkov_body(S, Flag.standard(2), 5)
        assert rep.body == triangle
        assert rep.certificate == "exact"
        assert rep.lattice_index == 1
        assert rep.hilbert.stabilized
        assert rep.hilbert.volume == 4
        assert (
            math.factorial(2) * rep.body.volume()
            == rep.lattice_index * rep.hilbert.volume
        )

    def test_complete_series_give_scaled_simplices(self):
        for d, m, K in [(1, 1, 4), (2, 1, 5), (3, 1, 6), (2, 2, 5)]:
            rep = okounkov_body(GradedSeries.complete(d, m), Flag.standard(d), K)
            simplex = RationalPolytope.from_points(
                [(0,) * d] + [tuple(m if j == i else 0 for j in range(d)) for i in range(d)]
            )
            assert rep.body == simplex
            assert rep.certificate == "exact"
            assert rep.lattice_index == 1
            assert (
                math.factorial(d) * rep.body.volume()
                == rep.lattice_index * rep.hilbert.volume
            )

    def test_even_powers_have_coarse_lattice(self):
        S = monomial_series(1, 2, [(2, 0), (0, 2)])
        rep = okounkov_body(S, Flag.standard(1), 5)
        assert rep.body.vertices == ((F(0),), (F(2),))
        assert rep.lattice_index == 2
        assert rep.hilbert.volume == 1
        assert rep.body.volume() == rep.lattice_index * rep.hilbert.volume

    def test_triangle_with_vertex_off_origin(self):
        S = monomial_series(2, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        rep = okounkov_body(S, Flag.standard(2), 5)
        assert rep.body == RationalPolytope.from_points([(1, 0), (0, 1), (1, 1)])
        assert rep.body.volume() == F(1, 2)
        assert rep.lattice_index == 1
        assert rep.hilbert.volume == 1

    def test_random_flag_downgrades_certificate(self):
        # the view's generator span is no monomial span, and its hull still
        # grows with K
        S, flag = p2_except_x2x3(), Flag.random(2, 7)
        assert not S.under_flag(flag)._gspans[1].is_monomial_span
        rep = okounkov_body(S, flag, 4)
        assert rep.body == RationalPolytope.from_points([(0, 0), (F(7, 4), 0), (1, 1), (0, 2)])
        assert rep.certificate == "truncation"
        assert rep.certificate_note
        assert okounkov_body(S, flag, 6).body.volume() > rep.body.volume()

    def test_report_carries_semigroup(self):
        S = monomial_series(2, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        rep = okounkov_body(S, Flag.standard(2), 4)
        assert rep.truncation == 4
        # the value semigroup's level counts, the level dimensions
        assert rep.dims == [3, 6, 10, 15]


class TestWitness:
    def test_vertex_witness(self):
        S = monomial_series(
            2, 2, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]
        )
        w = valuative_witness(S, Flag.standard(2), 5, (2, 0))
        assert w is not None
        v, k, section = w
        assert v == (2, 0)
        assert k == 1
        assert section == HomogeneousForm.monomial(3, (2, 0, 0))

    def test_fractional_point_witness(self):
        S = monomial_series(1, 2, [(2, 0), (0, 2)])
        w = valuative_witness(S, Flag.standard(1), 6, (F(1, 2),))
        assert w is not None
        v, k, _ = w
        assert F(v[0], k) == F(1, 2)

    def test_unreachable_point(self):
        S = monomial_series(
            2, 2, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]
        )
        assert valuative_witness(S, Flag.standard(2), 5, (F(5, 2), 0)) is None
        assert valuative_witness(S, Flag.standard(2), 5, (3, 3)) is None

    def test_witness_section_has_claimed_valuation(self):
        # the returned section, viewed through the flag, must take the
        # valuation value it certifies
        from okbody.flagval import valuation

        S = GradedSeries.complete(2)
        flag = Flag.random(2, 19)
        w = valuative_witness(S, flag, 4, (F(1, 2), F(1, 4)))
        assert w is not None
        v, k, section = w
        assert valuation(section, flag) == v
        assert (F(v[0], k), F(v[1], k)) == (F(1, 2), F(1, 4))


class TestBodyProperties:
    def test_monomial_bodies_match_exponent_hulls(self):
        # for monomial series the truncated body at K equals the hull of
        # v/k over all value points with k <= K; spot-check by
        # recomputing the hull directly from the value points
        rng = random.Random(515)
        for _ in range(6):
            deg = rng.randint(1, 3)
            pool = [
                (a, deg - a - b)
                for a in range(deg + 1)
                for b in range(deg - a + 1)
            ]
            rng.shuffle(pool)
            chosen = pool[: rng.randint(2, len(pool))]
            exps = [(deg - sum(e), e[0], e[1]) for e in [(p[0], p[1]) for p in chosen]]
            try:
                S = monomial_series(2, deg, exps)
            except InputError:
                continue
            K = 4
            rep = okounkov_body(S, Flag.standard(2), K)
            pts = normalized_value_points(value_points(S, Flag.standard(2), K), K)
            hull = RationalPolytope.from_points(pts)
            assert rep.body == hull

    def test_body_scales_with_veronese(self):
        S = GradedSeries.complete(2)
        rep1 = okounkov_body(S, Flag.standard(2), 4)
        rep2 = okounkov_body(S.veronese(2), Flag.standard(2), 4)
        assert rep2.body == rep1.body.scaled(2)


def p2_except_x2x3():
    return monomial_series(
        2, 2, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]
    )


def p3_series0():
    """Five quadric monomials of P^3: X3X4, X3^2, X2X4, X2X3, X1X3."""
    return monomial_series(
        3, 2, [(0, 0, 1, 1), (0, 0, 2, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)]
    )


class TestLatticeIndex:
    """okounkov_body reads the lattice index off the kept points; it equals
    the index of the group all value points generate, under the standard
    flag (the index given) and under seeded flags."""

    @pytest.mark.parametrize(
        "series, seeds, K, index",
        [
            (p2_except_x2x3, (1, 2, 3), 8, 1),
            (lambda: monomial_series(1, 2, [(2, 0), (0, 2)]), (1, 4), 6, 2),
            (lambda: monomial_series(2, 2, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]), (3,), 5, 4),
            (p3_series0, (1, 5), 8, 1),
        ],
    )
    def test_index_from_kept_points(self, series, seeds, K, index):
        S = series()
        flags = [Flag.standard(S.d)] + [Flag.random(S.d, seed) for seed in seeds]
        indices = []
        for flag in flags:
            rep = okounkov_body(S, flag, K)
            levels = value_points(S, flag, K)
            points = [v + (k,) for k, vs in levels.items() for v in vs]
            assert len(reference_indecomposables(levels)) < len(points)
            assert rep.lattice_index == lattice_index(points, S.d + 1)
            indices.append(rep.lattice_index)
        assert indices[0] == index


def canonical(poly: RationalPolytope) -> tuple:
    return (poly.n, poly.affdim, poly.vertices, poly.equations, poly.inequalities)


class TestIndecomposableHull:
    """The body is the hull of the indecomposable value points only; the
    reference is the Fraction route on every normalized value point."""

    @staticmethod
    def check(series, flag, K):
        """The body at K against the Fraction route on every value point,
        and each point the one-pass filter drops against a decomposition;
        returns the value points and the kept ones."""
        rep = okounkov_body(series, flag, K)
        levels = value_points(series, flag, K)
        want = fraction_route_polytope(normalized_value_points(levels, K), series.d)
        assert canonical(rep.body) == canonical(want)
        kept = indecomposables(series.under_flag(flag).value_levels(K), series.d)
        for k, vs in levels.items():
            for v in set(vs) - {u for u, j in kept if j == k}:
                # a dropped point is a sum of two value points at lower levels
                assert any(
                    tuple(x - y for x, y in zip(v, u)) in levels[k - j]
                    for j in range(1, k)
                    for u in levels[j]
                )
        return levels, kept

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_series_under_generic_flags(self, seed):
        _, kept = self.check(p2_except_x2x3(), Flag.random(2, seed), 8)
        # a subduction remainder at every level, so every level keeps points
        assert {k for _, k in kept} == set(range(1, 9))

    def test_explicit_levels_not_closed_under_products(self):
        def m(*exps):
            return [HomogeneousForm.monomial(3, e) for e in exps]

        S = GradedSeries.explicit(
            2,
            1,
            {
                1: m((1, 0, 0), (0, 1, 0)),
                2: m((0, 0, 2), (1, 1, 0)),
                3: m((1, 0, 2), (2, 1, 0), (0, 3, 0)),
                4: m((4, 0, 0), (1, 1, 2)),
            },
        )
        levels, kept = self.check(S, Flag.standard(2), 4)
        assert (2, 0) not in levels[2]  # X0 * X0 is missing
        assert ((4, 0), 4) in kept

    @pytest.mark.parametrize(
        "derived",
        [
            lambda S: S.vanishing_along_flag_divisor(F(1, 3)),
            lambda S: S.puncture((1, 2, 3)),
        ],
    )
    def test_derived_series(self, derived):
        self.check(derived(GradedSeries.complete(2)), Flag.standard(2), 8)

    def test_restricted_side_of_slice_identity(self):
        flag = Flag.random(2, 1)
        _, _, sub_rep, _ = cli._slice_sides(p2_except_x2x3(), flag, F(1, 2), 8)
        view = p2_except_x2x3().under_flag(flag)
        restricted = view.veronese(2).subtract_flag_divisor(1).restrict_to_flag_divisor()
        self.check(restricted, Flag.standard(1), 4)
        assert sub_rep.body == okounkov_body(restricted, Flag.standard(1), 4).body

    def test_p3_body_hulls_four_points(self, capsys, monkeypatch):
        original = RationalPolytope._from_integer_points.__func__
        sizes = []

        def counted(cls, points, *args):
            sizes.append(len(points))
            return original(cls, points, *args)

        monkeypatch.setattr(RationalPolytope, "_from_integer_points", classmethod(counted))
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        assert cli.main(["body", str(corpus / "p3_o1_complete.json"), "-K", "12"]) == 0
        capsys.readouterr()
        assert sizes == [4]

    def test_stray_point_past_the_generation_level(self):
        # monomial generators at level 1, and a provider that adds X2^3,
        # which no product of generators gives, at level 3
        base = monomial_series(2, 1, [(1, 0, 0), (0, 1, 0)])
        stray = FormSpan(3, 3, [HomogeneousForm.monomial(3, (0, 0, 3))])

        def provider(series, k):
            return base.level(k) + stray if k == 3 else base.level(k)

        S = GradedSeries(2, 1, provider, generators=base.generators)
        with pytest.raises(InvariantError, match="grew past its generation level"):
            okounkov_body(S, Flag.standard(2), 4)
