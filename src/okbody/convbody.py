"""Exact rational convex bodies and Newton-Okounkov body computation.

Polytopes are stored by canonical data: sorted exact vertex tuples, the
affine hull as primitive integer equations, and facet inequalities whose
normals live inside the direction space of the hull (so lower dimensional
bodies have one canonical inequality system, not one per normal lift).
All predicates are float free.

One exact hull serves every dimension: an incremental beneath-beyond
hull (Edelsbrunner 1987; Barber, Dobkin and Huhdanpaa 1996) on integer
points in the local coordinates of the affine hull.  Slices and halfspace
cuts are computed from vertices, as the hull of the kept vertices and of
the points where segments between vertices cross the cut.

Volumes are lattice normalized: a polytope spanning a proper affine
subspace is measured against the integer points of its own direction
space, which is the normalization under which lattice point counts and
body volumes match up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InputError, InvariantError
from .exactnum import (
    det,
    hermite_normal_form,
    rank,
    rref_rows,
    solve_rational_system,
    nullspace,
)
from .flagval import Flag, ValueSemigroup
from .glseries import GradedSeries, HilbertData
from .polyform import HomogeneousForm

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
# the hull (full dimensional, local coordinates)

Facet = tuple[tuple[int, ...], Fraction]


def _hyperplane(
    pts: list[tuple[int, ...]], inside: tuple[int, ...], weight: int
) -> tuple[tuple[int, ...], int] | None:
    """The hyperplane a.x = b through the integer points, as a primitive
    normal oriented so that inside / weight lies strictly below it, or
    None when the points do not span a unique hyperplane."""
    q0 = pts[0]
    # a zero row keeps the matrix nonempty for a lone point on a line
    ker = nullspace(
        [[0] * len(q0)] + [[x - y for x, y in zip(q, q0)] for q in pts[1:]]
    )
    if len(ker) != 1:
        return None
    a = _primitive(ker[0], fix_sign=False)
    b = sum(x * y for x, y in zip(a, q0))
    if sum(x * y for x, y in zip(a, inside)) > weight * b:
        a, b = tuple(-v for v in a), -b
    return a, b


def _hull(points: list[Point], m: int) -> tuple[list[int], dict[Facet, set[int]]]:
    """Beneath-beyond hull of points spanning R^m, inserted in the order given.

    Returns the indices of the vertices and the facets a.x <= b, keyed by
    primitive integer normal and offset, each with the indices of points
    on it, among them all its vertices.  A point beyond some facets gets
    a facet through itself and each ridge between a facet it sees and one
    it does not; coplanar pieces share a key and merge.  A point beyond
    no facet lies in the hull so far and can never become a vertex.  The
    work runs on integer points, scaled by the lcm of the denominators.
    """
    scale = math.lcm(*(v.denominator for p in points for v in p))
    ipts = [tuple(int(v * scale) for v in p) for p in points]
    simplex = [0]
    spanned: list[list[int]] = []
    for i, q in enumerate(ipts):
        diff = [x - y for x, y in zip(q, ipts[0])]
        if len(spanned) < m and rank(spanned + [diff]) > len(spanned):
            spanned.append(diff)
            simplex.append(i)
    if len(simplex) != m + 1:
        raise InvariantError("hull: input not full dimensional")
    # the simplex centroid, times m + 1, lies strictly inside every facet
    inside = tuple(sum(ipts[i][j] for i in simplex) for j in range(m))
    facets: dict[tuple[tuple[int, ...], int], set[int]] = {}
    for skip in simplex:
        on = [i for i in simplex if i != skip]
        facets[_hyperplane([ipts[i] for i in on], inside, m + 1)] = set(on)
    chosen = set(simplex)
    for i, p in enumerate(ipts):
        if i in chosen:
            continue
        beyond = {f: sum(x * y for x, y in zip(f[0], p)) > f[1] for f in facets}
        visible = [f for f, out in beyond.items() if out]
        hidden = [f for f, out in beyond.items() if not out]
        for f in visible:
            for g in hidden:
                ridge = facets[f] & facets[g]
                if len(ridge) < m - 1:
                    continue
                key = _hyperplane([p] + [ipts[j] for j in ridge], inside, m + 1)
                if key is not None:
                    facets.setdefault(key, set()).update(ridge | {i})
        for f in visible:
            del facets[f]
    verts = [
        i
        for i in sorted(set().union(*facets.values()))
        if rank([f[0] for f, on in facets.items() if i in on]) == m
    ]
    return verts, {(a, Fraction(b, scale)): on for (a, b), on in facets.items()}


# ---------------------------------------------------------------------------
# affine hull reduction


class _AffineData(NamedTuple):
    p0: Point
    basis: tuple[Point, ...]  # rows spanning the direction space, in RREF
    pivots: tuple[int, ...]  # the pivot columns of the basis
    equations: tuple[tuple[tuple[int, ...], Fraction], ...]


def _affine_data(points: list[Point], n: int) -> _AffineData:
    p0 = points[0]
    diffs = [
        [p[j] - p0[j] for j in range(n)] for p in points[1:]
    ]
    if diffs:
        red, pivots = rref_rows(diffs)
        basis = tuple(tuple(row) for row in red)
    else:
        basis, pivots = (), []
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
    return _AffineData(p0, basis, tuple(pivots), equations)


def _to_local(points: list[Point], aff: _AffineData) -> list[Point]:
    """Local coordinates c with x = p0 + sum c_i basis_i.  The basis is in
    RREF, so c is x - p0 read at the pivot columns; this equals M (x - p0)
    for the matrix M of `_coordinate_map`."""
    return [tuple(p[j] - aff.p0[j] for j in aff.pivots) for p in points]


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


# ---------------------------------------------------------------------------
# the polytope


class RationalPolytope:
    """Convex hull of finitely many rational points, canonically presented."""

    __slots__ = ("n", "affdim", "vertices", "equations", "inequalities")

    def __init__(self):
        raise InputError("use RationalPolytope.from_points")

    @classmethod
    def _raw(
        cls, n, affdim, vertices, equations, inequalities
    ) -> RationalPolytope:
        self = object.__new__(cls)
        self.n = n
        self.affdim = affdim
        self.vertices = tuple(sorted(vertices))
        self.equations = tuple(equations)
        self.inequalities = tuple(sorted(inequalities))
        return self

    @classmethod
    def empty(cls, n: int) -> RationalPolytope:
        return cls._raw(n, -1, (), (), ())

    @classmethod
    def from_points(cls, points: Sequence[Sequence], n: int | None = None) -> RationalPolytope:
        pts = [_fr_point(p) for p in points]
        if n is None:
            if not pts:
                raise InputError("from_points: ambient dimension unknown")
            n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise InputError("from_points: mixed dimensions")
        pts = list(dict.fromkeys(pts))
        if not pts:
            return cls.empty(n)
        if n == 0:
            return cls._raw(0, 0, [()], (), ())
        aff = _affine_data(pts, n)
        m = len(aff.basis)
        if m == 0:
            return cls._raw(n, 0, [pts[0]], aff.equations, ())
        lverts, lfacets = _hull(_to_local(pts, aff), m)
        verts = [pts[i] for i in lverts]
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
        return cls._raw(n, m, verts, aff.equations, inequalities)

    # -- basic data -------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.affdim < 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalPolytope)
            and self.n == other.n
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.n, self.vertices))

    def __repr__(self) -> str:
        return (
            f"RationalPolytope(n={self.n}, affdim={self.affdim}, "
            f"vertices={len(self.vertices)})"
        )

    # -- predicates ---------------------------------------------------------

    def contains_point(self, point: Sequence, strictly: bool = False) -> bool:
        """Membership; with strictly=True, membership in the relative
        interior (equations stay equalities, facet inequalities go strict).
        """
        if self.is_empty:
            return False
        p = _fr_point(point)
        if len(p) != self.n:
            raise InputError("contains_point: wrong dimension")
        for a, b in self.equations:
            if _dot(a, p) != b:
                return False
        for a, b in self.inequalities:
            v = _dot(a, p)
            if v > b or (strictly and v == b):
                return False
        return True

    def contains(self, other: RationalPolytope) -> bool:
        if other.is_empty:
            return True
        return all(self.contains_point(v) for v in other.vertices)

    def ordered_ring(self) -> list[Point]:
        """Boundary vertices in counterclockwise order (full dimensional
        polygons in the plane only)."""
        if self.n != 2 or self.affdim != 2:
            raise InputError("ordered_ring: need a full dimensional polygon")
        first, last = self.vertices[0], self.vertices[-1]

        def side(v: Point) -> Fraction:
            return (last[0] - first[0]) * (v[1] - first[1]) - (
                last[1] - first[1]
            ) * (v[0] - first[0])

        below = [v for v in self.vertices if side(v) < 0]
        above = [v for v in self.vertices if side(v) > 0]
        return [first, *below, last, *reversed(above)]

    # -- volume ---------------------------------------------------------------

    def volume(self, ambient: bool = False) -> Fraction:
        """Exact volume, lattice normalized in the body's own dimension.

        ambient=True measures in the ambient dimension instead, so lower
        dimensional bodies report 0; a 0-dimensional body has volume 1 in
        its own dimension.
        """
        if self.is_empty:
            return Fraction(0)
        if ambient and self.affdim < self.n:
            return Fraction(0)
        if self.affdim == 0:
            return Fraction(1)
        m = self.affdim
        pts, cell = list(self.vertices), Fraction(1)
        if m < self.n:
            pts, cell = self._lattice_coords()
        total = Fraction(0)
        for sim in _triangulate(pts):
            apex = sim[0]
            rows = [
                [w[j] - apex[j] for j in range(m)] for w in sim[1:]
            ]
            total += abs(det(rows))
        return total / (math.factorial(m) * cell)

    def _lattice_coords(self) -> tuple[list[Point], Fraction]:
        """The vertices read at affdim coordinates on which the direction
        space projects one to one, and the volume there of a fundamental
        cell of the direction lattice."""
        E = [list(a) for a, _ in self.equations]
        Et = [[E[i][j] for i in range(len(E))] for j in range(self.n)]
        H, U = hermite_normal_form(Et)
        lat = [
            U[i]
            for i in range(len(U))
            if all(h == 0 for h in H[i])
        ]
        if len(lat) != self.affdim:
            raise InvariantError("volume: direction lattice rank mismatch")
        _, piv = rref_rows(lat)
        cell = abs(det([[row[j] for j in piv] for row in lat]))
        return [tuple(v[j] for j in piv) for v in self.vertices], cell

    # -- constructive operations ---------------------------------------------

    def translate(self, vec: Sequence) -> RationalPolytope:
        w = _fr_point(vec)
        if len(w) != self.n:
            raise InputError("translate: wrong dimension")
        if self.is_empty:
            return self
        return RationalPolytope.from_points(
            [tuple(a + b for a, b in zip(v, w)) for v in self.vertices], self.n
        )

    def scaled(self, factor: Fraction) -> RationalPolytope:
        factor = Fraction(factor)
        if factor <= 0:
            raise InputError("scaled: factor must be positive")
        if self.is_empty:
            return self
        return RationalPolytope.from_points(
            [tuple(factor * x for x in v) for v in self.vertices], self.n
        )

    def intersect_halfspace(self, normal: Sequence, offset) -> RationalPolytope:
        """Intersection with normal . x <= offset: the hull of the kept
        vertices and of the edge crossings of the cut."""
        a = _fr_point(normal)
        b = Fraction(offset)
        if len(a) != self.n:
            raise InputError("intersect_halfspace: wrong dimension")
        s = [_dot(a, v) - b for v in self.vertices]
        keep = [v for v, sv in zip(self.vertices, s) if sv <= 0]
        return RationalPolytope.from_points(
            keep + _crossings(self.vertices, s), self.n
        )

    def slice_at(self, coord: int, value) -> RationalPolytope:
        """The section at coordinate == value, living in one dimension less
        (the sliced coordinate is dropped)."""
        if not 0 <= coord < self.n:
            raise InputError("slice_at: coordinate out of range")
        t = Fraction(value)
        s = [v[coord] - t for v in self.vertices]
        on = [v for v, sv in zip(self.vertices, s) if sv == 0]
        return RationalPolytope.from_points(
            [v[:coord] + v[coord + 1:] for v in on + _crossings(self.vertices, s)],
            self.n - 1,
        )


def _crossings(vertices: Sequence[Point], s: list[Fraction]) -> list[Point]:
    """Where the segments between vertices on opposite sides of a
    hyperplane cross it, s holding each vertex's signed level.  Every
    vertex of a cut body is a kept vertex or such a crossing on an edge,
    and every crossing lies in the cut body, so together they span it."""
    out = []
    for u, su in zip(vertices, s):
        if su < 0:
            for v, sv in zip(vertices, s):
                if sv > 0:
                    lam = su / (su - sv)
                    out.append(tuple(x + lam * (y - x) for x, y in zip(u, v)))
    return out


def _triangulate(points: list[Point]) -> list[tuple[Point, ...]]:
    """Simplices covering the hull of distinct points, each a tuple of
    affdim + 1 of the points: a cone from the least vertex over every
    facet that misses it, recursing into the facet."""
    if len(points) == 1:
        return [tuple(points)]
    aff = _affine_data(points, len(points[0]))
    verts, facets = _hull(_to_local(points, aff), len(aff.basis))
    apex = min(verts, key=points.__getitem__)
    sims = []
    for on in facets.values():
        if apex not in on:
            for sub in _triangulate([points[i] for i in verts if i in on]):
                sims.append((points[apex],) + sub)
    return sims


# ---------------------------------------------------------------------------
# Newton-Okounkov bodies


class BodyReport(NamedTuple):
    body: RationalPolytope
    semigroup: ValueSemigroup
    truncation: int
    certificate: str  # "exact" or "truncation"
    certificate_note: str
    lattice_index: int | None
    hilbert: HilbertData
    dims: list[int]


def _normalized_points(semigroup: ValueSemigroup, upto: int) -> list[Point]:
    pts = []
    for v, k in semigroup.points():
        if k <= upto:
            pts.append(tuple(Fraction(x, k) for x in v))
    return pts


def okounkov_body(
    series: GradedSeries, flag: Flag, K: int
) -> BodyReport:
    """Truncated Newton-Okounkov body with an exactness certificate.

    The body is the hull of normalized value points up to level K.  The
    certificate is "exact" when the flag transformed series is visibly
    generated by monomials in levels <= K: monomial generators make every
    value point a convex combination of generator points, so the truncated
    hull equals the limit body.  Otherwise the hull is a certified inner
    approximation ("truncation").
    """
    if K < 1:
        raise InputError("okounkov_body: truncation must be >= 1")
    view = series.under_flag(flag)
    sg = series.semigroup(flag, K)
    pts = _normalized_points(sg, K)
    body = RationalPolytope.from_points(pts, series.d)
    certificate = "truncation"
    note = "hull of value points up to the truncation; inner approximation"
    gens = view.generators
    if gens is not None:
        k0 = max(gens)
        monomial = all(g.is_monomial for forms in gens.values() for g in forms)
        if monomial and k0 <= K:
            early = RationalPolytope.from_points(
                _normalized_points(sg, k0), series.d
            )
            if early == body:
                certificate = "exact"
                note = (
                    f"monomial generators in levels <= {k0}; "
                    "truncated hull is the limit body"
                )
            else:
                raise InvariantError(
                    "okounkov_body: monomial generator hull grew past its "
                    "generation level"
                )
    return BodyReport(
        body=body,
        semigroup=sg,
        truncation=K,
        certificate=certificate,
        certificate_note=note,
        lattice_index=sg.group_index(),
        hilbert=series.hilbert_data(K),
        dims=[len(sg.level(k)) for k in range(1, K + 1)],
    )


def valuative_witness(
    series: GradedSeries, flag: Flag, K: int, target: Sequence
) -> tuple[tuple[int, ...], int, HomogeneousForm] | None:
    """A section witnessing a normalized body point: a level k <= K and a
    section of that level whose valuation v satisfies v / k == target.
    Returns (v, k, section in the original coordinates), or None."""
    t = _fr_point(target)
    if len(t) != series.d:
        raise InputError("valuative_witness: wrong target dimension")
    view = series.under_flag(flag)
    for k in range(1, K + 1):
        scaled = [x * k for x in t]
        if any(s.denominator != 1 for s in scaled):
            continue
        v = tuple(int(s) for s in scaled)
        span = view.level(k)
        for f, piv in zip(span.basis, span.pivots):
            if piv[: series.d] == v:
                witness = f
                if not flag.is_standard:
                    witness = f.substitute_linear(flag.matrix)
                return v, k, witness
    return None
