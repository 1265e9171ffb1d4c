"""Exact rational convex bodies and Newton-Okounkov body computation.

Polytopes are stored by canonical data: sorted exact vertex tuples, the
affine hull as primitive integer equations, and facet inequalities whose
normals live inside the direction space of the hull (so lower dimensional
bodies have one canonical inequality system, not one per normal lift).
All predicates are float free.

Every hull clears its rational points to integer points over one common
denominator, once, on entry.  One exact hull serves every dimension: an
incremental beneath-beyond hull (Edelsbrunner 1987; Barber, Dobkin and
Huhdanpaa 1996) on those integer points, in ambient coordinates.  Its
hyperplanes are taken inside the affine hull, by adding the hull's
equations to every facet's kernel, so each facet normal is already the
canonical one in the direction space; every kernel is the primitive
integer one of `exactnum.kernel`.  Fractions appear only in the output:
the vertices and the offsets of equations and facets.  Slices and
halfspace cuts are computed from vertices, as the hull of the kept
vertices and of the points where segments between vertices cross the cut.

Volumes are lattice normalized: a polytope spanning a proper affine
subspace is measured against the integer points of its own direction
space, which is the normalization under which lattice point counts and
body volumes match up.  The hull is triangulated in ambient coordinates,
and each m-simplex is measured by the Smith factors of its m edge
vectors: their product is the index of the edge lattice in the integer
points of its span, m! times the simplex's volume there, in every
dimension.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InputError, InvariantError
from .exactnum import echelon_add, kernel, smith_normal_form
from .flagval import Flag, ValueSemigroup
from .glseries import GradedSeries, HilbertData
from .polyform import HomogeneousForm

Point = tuple[Fraction, ...]


def _fr_point(p: Sequence) -> Point:
    return tuple(Fraction(v) for v in p)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# the hull (integer points in ambient coordinates, inside the affine hull)

IntPoint = tuple[int, ...]
Facet = tuple[IntPoint, int]


def _integer_points(points: Sequence[Point]) -> tuple[list[IntPoint], int]:
    """Rational points as integer points over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in points], den


def _hyperplane(
    pts: list[IntPoint],
    equations: list[IntPoint],
    inside: IntPoint,
    weight: int,
) -> Facet | None:
    """The hyperplane a.x = b through the integer points inside the affine
    hull with the given equation normals, as a primitive normal in the
    direction space, oriented so that inside / weight lies strictly below
    it, or None when the points do not span a unique such hyperplane."""
    q0 = pts[0]
    diffs = [[x - y for x, y in zip(q, q0)] for q in pts[1:]]
    ker = kernel(equations + diffs, len(q0))
    if len(ker) != 1:
        return None
    a = tuple(ker[0])
    b = sum(x * y for x, y in zip(a, q0))
    if sum(x * y for x, y in zip(a, inside)) > weight * b:
        a, b = tuple(-v for v in a), -b
    return a, b


def _hull(
    points: list[IntPoint], aff: _AffineData
) -> tuple[list[int], dict[Facet, set[int]]]:
    """Beneath-beyond hull of integer points spanning an m-dimensional
    affine hull, inserted in the order given after the m + 1 affinely
    independent points of aff.simplex.

    Returns the indices of the vertices and the facets a.x <= b, keyed by
    primitive integer normal in the direction space of the hull and
    integer offset on the points as given, each with the indices of points
    on it, among them all its vertices.  A point beyond some facets gets a
    facet through itself and each ridge between a facet it sees and one it
    does not; coplanar pieces share a key and merge.  A point beyond no
    facet lies in the hull so far and can never become a vertex.  A point
    is a vertex iff the facets through it meet in it alone.
    """
    eqs = [a for a, _ in aff.equations]
    simplex, m = aff.simplex, len(aff.simplex) - 1
    # the simplex centroid, times m + 1, lies strictly inside every facet
    inside = tuple(map(sum, zip(*(points[i] for i in simplex))))
    facets: dict[Facet, set[int]] = {}
    for skip in simplex:
        on = [i for i in simplex if i != skip]
        key = _hyperplane([points[i] for i in on], eqs, inside, m + 1)
        if key is None:
            raise InvariantError("hull: simplex facet spans no unique hyperplane")
        facets[key] = set(on)
    chosen = set(simplex)
    for i, p in enumerate(points):
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
                key = _hyperplane(
                    [p] + [points[j] for j in ridge], eqs, inside, m + 1
                )
                if key is not None:
                    facets.setdefault(key, set()).update(ridge | {i})
        for f in visible:
            del facets[f]
    verts = [
        i
        for i in sorted(set().union(*facets.values()))
        if set.intersection(*(on for on in facets.values() if i in on)) == {i}
    ]
    return verts, facets


# ---------------------------------------------------------------------------
# affine hull reduction


class _AffineData(NamedTuple):
    equations: tuple[tuple[IntPoint, Fraction], ...]
    simplex: tuple[int, ...]  # affinely independent points, points[0] first


def _affine_data(
    points: list[IntPoint], n: int, denominator: int = 1
) -> _AffineData:
    """The affine hull of integer points with one common denominator, the
    points / denominator.  Affinely independent points are picked greedily,
    fraction free, in one pass that stops once n directions are found; the
    equations are the kernel of their differences, taken with the columns
    reversed: a kernel basis is reduced from the right, so read back, last
    row first, it is the reduced row echelon basis of the equation space,
    each row led by its positive free entry.  Each offset is
    a.points[0] / denominator."""
    p0 = points[0]
    simplex, echelon = [0], []
    for i in range(1, len(points)):
        if len(echelon) == n:
            break
        if echelon_add(echelon, [x - y for x, y in zip(points[i], p0)]):
            simplex.append(i)
    equations = []
    for row in reversed(kernel([e[::-1] for _, e in echelon], n)):
        a = tuple(row[::-1])
        equations.append((a, Fraction(sum(x * y for x, y in zip(a, p0)), denominator)))
    return _AffineData(tuple(equations), tuple(simplex))


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
    def from_points(
        cls, points: Sequence[Sequence], n: int | None = None
    ) -> RationalPolytope:
        """The hull of rational points, cleared to integer points over one
        common denominator, once, here."""
        pts = [_fr_point(p) for p in points]
        if n is None:
            if not pts:
                raise InputError("from_points: ambient dimension unknown")
            n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise InputError("from_points: mixed dimensions")
        pts, den = _integer_points(pts)
        pts = list(dict.fromkeys(pts))
        if not pts:
            return cls.empty(n)
        aff = _affine_data(pts, n, den)
        m = len(aff.simplex) - 1
        verts, inequalities = [0], []
        if m > 0:
            verts, facets = _hull(pts, aff)
            inequalities = [
                (tuple(map(Fraction, a)), Fraction(b, den)) for a, b in facets
            ]
        vertices = [tuple(Fraction(x, den) for x in pts[i]) for i in verts]
        return cls._raw(n, m, vertices, aff.equations, inequalities)

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
        ipts, den = _integer_points(self.vertices)
        total = 0
        for apex, *rest in _triangulate(ipts):
            edges = [[x - y for x, y in zip(w, apex)] for w in rest]
            total += math.prod(smith_normal_form(edges))
        return Fraction(total, math.factorial(m) * den**m)

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


def _triangulate(points: list[IntPoint]) -> list[tuple[IntPoint, ...]]:
    """Simplices covering the hull of distinct integer points, each a tuple
    of affdim + 1 of the points: a cone from the least vertex over every
    facet that misses it, recursing into the facet."""
    if len(points) == 1:
        return [tuple(points)]
    verts, facets = _hull(points, _affine_data(points, len(points[0])))
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


def okounkov_body(
    series: GradedSeries, flag: Flag, K: int
) -> BodyReport:
    """Truncated Newton-Okounkov body with an exactness certificate.

    The body is the hull of the indecomposable value points nu(s) / k up
    to level K (`ValueSemigroup.indecomposables`), which span the hull of
    all of them.  The certificate is "exact" when the flag transformed
    series is visibly generated by monomials in levels <= k0 <= K: no
    value point above k0 is then indecomposable, so the truncated hull
    equals the limit body.  Otherwise the hull is a certified inner
    approximation ("truncation").
    """
    if K < 1:
        raise InputError("okounkov_body: truncation must be >= 1")
    view = series.under_flag(flag)
    sg = view.semigroup(Flag.standard(series.d), K)
    kept = sg.indecomposables()
    body = RationalPolytope.from_points(
        [tuple(Fraction(x, k) for x in v) for v, k in kept], series.d
    )
    certificate = "truncation"
    note = "hull of value points up to the truncation; inner approximation"
    gens = view.generators
    if gens is not None:
        k0 = max(gens)
        monomial = all(g.is_monomial for forms in gens.values() for g in forms)
        if monomial and k0 <= K:
            if any(k > k0 for _, k in kept):
                raise InvariantError(
                    "okounkov_body: monomial generator hull grew past its "
                    "generation level"
                )
            certificate = "exact"
            note = (
                f"monomial generators in levels <= {k0}; "
                "truncated hull is the limit body"
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
