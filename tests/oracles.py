"""Slow reference implementations that rewrites are checked against.

The polytope oracle is the hull layer `convbody` had before its
beneath-beyond hull: a 1-d sort, a 2-d monotone chain, and for higher
dimensions one exact LP per candidate point (`_is_extreme`) plus a
brute-force facet search over vertex subsets (`_hull_nd`).  Slices and
halfspace cuts enumerate basic feasible points of the inequality system
(`_enumerate_vertices`).  The helpers below are kept as they were; the
`reference_*` functions wrap them with the old `RationalPolytope` method
bodies, building every polytope through `reference_polytope`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from okbody.convbody import RationalPolytope
from okbody.errors import InputError, InvariantError
from okbody.exactnum import (
    det,
    feasible_nonneg,
    hermite_normal_form,
    nullspace,
    rank,
    rref_rows,
    solve_rational_system,
)

Point = tuple[Fraction, ...]


def _fr_point(p: Sequence) -> Point:
    return tuple(Fraction(v) for v in p)


def _primitive(vec: Sequence[Fraction], fix_sign: bool) -> tuple[int, ...]:
    den = math.lcm(*(v.denominator for v in vec)) if vec else 1
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g:
        ints = [v // g for v in ints]
    if fix_sign:
        lead = next((v for v in ints if v), 0)
        if lead < 0:
            ints = [-v for v in ints]
    return tuple(ints)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# hull primitives (full dimensional, local coordinates)


def _hull_1d(pts: list[Point]) -> tuple[list[Point], list[tuple[Point, Fraction]]]:
    xs = sorted({p[0] for p in pts})
    lo, hi = xs[0], xs[-1]
    if lo == hi:
        raise InvariantError("hull: 1d input not full dimensional")
    verts = [(lo,), (hi,)]
    facets = [((Fraction(-1),), -lo), ((Fraction(1),), hi)]
    return verts, facets


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(pts: list[Point]) -> tuple[list[Point], list[tuple[Point, Fraction]]]:
    """Monotone chain; returns counterclockwise vertex ring and edge facets."""
    ps = sorted(set(pts))
    lower: list[Point] = []
    for p in ps:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(ps):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        raise InvariantError("hull: 2d input not full dimensional")
    facets = []
    for u, v in zip(ring, ring[1:] + ring[:1]):
        t = (v[0] - u[0], v[1] - u[1])
        normal = (t[1], -t[0])
        facets.append((normal, _dot(normal, u)))
    return ring, facets


def _is_extreme(p: Point, others: list[Point]) -> bool:
    if not others:
        return True
    dim = len(p)
    A = [[Fraction(q[i]) for q in others] for i in range(dim)]
    A.append([Fraction(1)] * len(others))
    b = [Fraction(v) for v in p] + [Fraction(1)]
    return feasible_nonneg(A, b) is None


def _hull_nd(
    pts: list[Point], m: int
) -> tuple[list[Point], list[tuple[Point, Fraction]]]:
    """Extreme point filter plus brute force facet enumeration.

    Intended for the small vertex counts that value semigroup hulls have;
    every m-subset spanning a hyperplane with all points on one side
    contributes its (deduplicated) facet.
    """
    uniq = sorted(set(pts))
    verts = [p for p in uniq if _is_extreme(p, [q for q in uniq if q != p])]
    facets: dict[tuple[tuple[int, ...], Fraction], None] = {}
    for sub in itertools.combinations(verts, m):
        diffs = [
            [sub[i][j] - sub[0][j] for j in range(m)] for i in range(1, m)
        ]
        ker = nullspace(diffs)
        if len(ker) != 1:
            continue
        normal = ker[0]
        b = _dot(normal, sub[0])
        side = [_dot(normal, v) - b for v in verts]
        if all(s <= 0 for s in side):
            normal = [-v for v in normal]
        elif not all(s >= 0 for s in side):
            continue
        # normal . v >= offset holds inside; flip to the <= convention and
        # rescale to a primitive integer normal (offset follows suit since
        # the facet point stays on the hyperplane)
        key_n = _primitive([-v for v in normal], fix_sign=False)
        key_b = _dot(key_n, sub[0])
        facets[(key_n, key_b)] = None
    out = [
        (tuple(Fraction(v) for v in n), b) for (n, b) in facets
    ]
    if not out:
        raise InvariantError("hull: no facets found for full dimensional input")
    return verts, out


# ---------------------------------------------------------------------------
# affine hull reduction


class _AffineData(NamedTuple):
    p0: Point
    basis: tuple[Point, ...]  # rows spanning the direction space
    equations: tuple[tuple[tuple[int, ...], Fraction], ...]


def _affine_data(points: list[Point], n: int) -> _AffineData:
    p0 = points[0]
    diffs = [
        [p[j] - p0[j] for j in range(n)] for p in points[1:]
    ]
    if diffs:
        red, _ = rref_rows(diffs)
        basis = tuple(tuple(row) for row in red)
    else:
        basis = ()
    if len(basis) == n:
        equations: tuple = ()
    else:
        normals = nullspace([list(row) for row in basis]) if basis else [
            [Fraction(i == j) for j in range(n)] for i in range(n)
        ]
        red_n, _ = rref_rows(normals)
        equations = tuple(
            (
                _primitive(row, fix_sign=True),
                _dot(_primitive(row, fix_sign=True), p0),
            )
            for row in red_n
        )
    return _AffineData(p0, basis, equations)


def _to_local(points: list[Point], p0: Point, basis: tuple[Point, ...]) -> list[Point]:
    m = len(basis)
    n = len(p0)
    A = [[basis[i][j] for i in range(m)] for j in range(n)]
    out = []
    for p in points:
        rhs = [p[j] - p0[j] for j in range(n)]
        c = solve_rational_system(A, rhs)
        if c is None:
            raise InvariantError("affine reduction: point outside hull")
        out.append(tuple(c))
    return out


def _from_local(c: Point, p0: Point, basis: tuple[Point, ...]) -> Point:
    n = len(p0)
    return tuple(
        p0[j] + sum((ci * basis[i][j] for i, ci in enumerate(c)), Fraction(0))
        for j in range(n)
    )


def _coordinate_map(basis: tuple[Point, ...], n: int) -> list[list[Fraction]]:
    """Matrix M with local coordinates c(x) = M (x - p0); rows span the
    direction space, so facet normals built from M need no further
    reduction against the hull equations."""
    m = len(basis)
    gram = [
        [_dot(basis[i], basis[j]) for j in range(m)] for i in range(m)
    ]
    out = []
    for i in range(m):
        rhs = [Fraction(i == j) for j in range(m)]
        sol = solve_rational_system(gram, rhs)
        if sol is None:
            raise InvariantError("coordinate map: gram system unsolvable")
        row = [
            sum((sol[k] * basis[k][j] for k in range(m)), Fraction(0))
            for j in range(n)
        ]
        out.append(row)
    return out


def _enumerate_vertices(
    eqs: list[tuple[list[Fraction], Fraction]],
    ineqs: list[tuple[list[Fraction], Fraction]],
    n: int,
) -> list[Point]:
    """All basic feasible points of {eq, ineq} by trying active sets."""
    if n == 0:
        feas = all(b == 0 for _, b in eqs) and all(b >= 0 for _, b in ineqs)
        return [()] if feas else []
    need = n - len(eqs)
    pts: set[Point] = set()
    base_rows = [list(a) for a, _ in eqs]
    base_rhs = [b for _, b in eqs]
    if need <= 0:
        sol = solve_rational_system(base_rows, base_rhs)
        cands = [sol] if sol is not None else []
    else:
        cands = []
        for active in itertools.combinations(range(len(ineqs)), need):
            rows = base_rows + [list(ineqs[i][0]) for i in active]
            rhs = base_rhs + [ineqs[i][1] for i in active]
            if rank(rows) < n:
                continue
            sol = solve_rational_system(rows, rhs)
            if sol is not None:
                cands.append(sol)
    for sol in cands:
        p = tuple(sol)
        if all(_dot(a, p) == b for a, b in eqs) and all(
            _dot(a, p) <= b for a, b in ineqs
        ):
            pts.add(p)
    return sorted(pts)


def _triangulate(points: list[Point], ambient: int) -> list[tuple[Point, ...]]:
    """Simplices covering the hull of the points; each simplex is a tuple of
    affdim + 1 points given in the ambient coordinates."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return [tuple(pts)]
    aff = _affine_data(pts, ambient)
    m = len(aff.basis)
    local = _to_local(pts, aff.p0, aff.basis)
    if m == 1:
        lverts, _ = _hull_1d(local)
        sims = [tuple(lverts)]
    elif m == 2:
        ring, _ = _hull_2d(local)
        sims = [
            (ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)
        ]
    else:
        lverts, lfacets = _hull_nd(local, m)
        apex = min(lverts)
        sims = []
        for normal, b in lfacets:
            if _dot(normal, apex) == b:
                continue
            fverts = [v for v in lverts if _dot(normal, v) == b]
            for sub in _triangulate(fverts, m):
                sims.append((apex,) + sub)
    # map local simplices back to the ambient coordinates
    out = []
    for sim in sims:
        out.append(tuple(_from_local(c, aff.p0, aff.basis) for c in sim))
    return out


# ---------------------------------------------------------------------------
# the old RationalPolytope methods, as functions


def reference_polytope(points: Sequence[Sequence], n: int | None = None) -> RationalPolytope:
    pts = [_fr_point(p) for p in points]
    if n is None:
        if not pts:
            raise InputError("from_points: ambient dimension unknown")
        n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InputError("from_points: mixed dimensions")
    pts = sorted(set(pts))
    if not pts:
        return RationalPolytope.empty(n)
    if n == 0:
        return RationalPolytope._raw(0, 0, [()], (), ())
    aff = _affine_data(pts, n)
    m = len(aff.basis)
    if m == 0:
        return RationalPolytope._raw(n, 0, [pts[0]], aff.equations, ())
    local = _to_local(pts, aff.p0, aff.basis)
    if m == 1:
        lverts, lfacets = _hull_1d(local)
    elif m == 2:
        lverts, lfacets = _hull_2d(local)
    else:
        lverts, lfacets = _hull_nd(local, m)
    verts = [_from_local(c, aff.p0, aff.basis) for c in lverts]
    cmap = _coordinate_map(aff.basis, n)
    shift = aff.p0
    inequalities = []
    for normal_loc, b_loc in lfacets:
        g = [
            sum(
                (Fraction(normal_loc[i]) * cmap[i][j] for i in range(m)),
                Fraction(0),
            )
            for j in range(n)
        ]
        b = b_loc + _dot(g, shift)
        gp = _primitive(g, fix_sign=False)
        # primitive scaling is positive, so the offset rescales by the
        # same factor
        num = next((a for a, c in zip(gp, g) if c), None)
        if num is None:
            raise InvariantError("facet: zero normal")
        factor = Fraction(num) / next(c for c in g if c)
        inequalities.append((tuple(Fraction(v) for v in gp), b * factor))
    return RationalPolytope._raw(n, m, verts, aff.equations, inequalities)


def reference_ordered_ring(poly: RationalPolytope) -> list[Point]:
    if poly.n != 2 or poly.affdim != 2:
        raise InputError("ordered_ring: need a full dimensional polygon")
    pts = list(poly.vertices)
    ring, _ = _hull_2d(pts)
    start = min(range(len(ring)), key=lambda i: ring[i])
    return ring[start:] + ring[:start]


def _reference_lattice_coords(poly: RationalPolytope, v: Point) -> Point:
    E = [list(a) for a, _ in poly.equations]
    Et = [[E[i][j] for i in range(len(E))] for j in range(poly.n)]
    H, U = hermite_normal_form(Et)
    lat = [
        U[i]
        for i in range(len(U))
        if all(h == 0 for h in H[i])
    ]
    if len(lat) != poly.affdim:
        raise InvariantError("volume: direction lattice rank mismatch")
    v0 = poly.vertices[0]
    A = [[Fraction(lat[i][j]) for i in range(len(lat))] for j in range(poly.n)]
    rhs = [v[j] - v0[j] for j in range(poly.n)]
    c = solve_rational_system(A, rhs)
    if c is None:
        raise InvariantError("volume: vertex outside direction lattice span")
    return tuple(c)


def reference_volume(poly: RationalPolytope, ambient: bool = False) -> Fraction:
    if poly.is_empty:
        return Fraction(0)
    if ambient and poly.affdim < poly.n:
        return Fraction(0)
    if poly.affdim == 0:
        return Fraction(1)
    if poly.affdim == poly.n:
        pts = list(poly.vertices)
    else:
        pts = [_reference_lattice_coords(poly, v) for v in poly.vertices]
    m = poly.affdim
    simplices = _triangulate(pts, m)
    total = Fraction(0)
    for sim in simplices:
        apex = sim[0]
        rows = [
            [w[j] - apex[j] for j in range(m)] for w in sim[1:]
        ]
        total += abs(det(rows))
    return total / math.factorial(m)


def reference_intersect_halfspace(
    poly: RationalPolytope, normal: Sequence, offset
) -> RationalPolytope:
    a = _fr_point(normal)
    b = Fraction(offset)
    if len(a) != poly.n or poly.is_empty:
        if len(a) != poly.n:
            raise InputError("intersect_halfspace: wrong dimension")
        return poly
    eqs = [(list(e), v) for e, v in poly.equations]
    ineqs = [(list(e), v) for e, v in poly.inequalities]
    ineqs.append((list(a), b))
    pts = _enumerate_vertices(eqs, ineqs, poly.n)
    keep = [v for v in poly.vertices if _dot(a, v) <= b]
    return reference_polytope(pts + keep, poly.n)


def reference_slice_at(poly: RationalPolytope, coord: int, value) -> RationalPolytope:
    if not 0 <= coord < poly.n:
        raise InputError("slice_at: coordinate out of range")
    t = Fraction(value)
    if poly.is_empty:
        return RationalPolytope.empty(poly.n - 1)
    eqs = []
    for a, bv in poly.equations:
        eqs.append(
            ([Fraction(v) for i, v in enumerate(a) if i != coord],
             bv - Fraction(a[coord]) * t)
        )
    ineqs = []
    for a, bv in poly.inequalities:
        ineqs.append(
            ([v for i, v in enumerate(a) if i != coord],
             bv - a[coord] * t)
        )
    if poly.n == 1:
        ok = all(bv == 0 for e, bv in eqs) and all(bv >= 0 for e, bv in ineqs)
        if ok:
            return RationalPolytope._raw(0, 0, [()], (), ())
        return RationalPolytope.empty(0)
    pts = _enumerate_vertices(eqs, ineqs, poly.n - 1)
    return reference_polytope(pts, poly.n - 1)
