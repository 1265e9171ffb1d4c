"""Exact rational convex bodies and Newton-Okounkov body computation.

Polytopes are stored by canonical data: sorted exact vertex tuples, the
affine hull as primitive integer equations, and facet inequalities whose
normals live inside the direction space of the hull (so lower dimensional
bodies have one canonical inequality system, not one per normal lift).
All predicates are float free.

Every hull clears its rational points to integer points over one common
denominator, once, on entry; a body's value points come as integer points
over the lcm of their levels.  One exact hull serves every dimension: an
incremental beneath-beyond hull (Edelsbrunner 1987; Barber, Dobkin and
Huhdanpaa 1996) on those integer points, in ambient coordinates.  Its
hyperplanes are taken inside the affine hull, by adding the hull's
equations to every facet's kernel, so each facet normal is already the
canonical one in the direction space; every kernel is the primitive
integer one of `exactnum.kernel`, except in space, where the kernel of
two independent rows is spanned by their cross product, taken primitive.
Fractions appear only in the output: the vertices and the offsets of
equations and facets.  Slices and
halfspace cuts are computed from vertices, as the hull of the kept
vertices and of the points where segments between vertices cross the cut.

Every polytope keeps the facet-vertex incidences its hull found: for each
facet inequality, the indices of the sorted vertices on it.  Scaling by a
positive factor and translation move the vertices and the offsets and
keep the normals, the incidences and both sort orders, so they run no
hull.  Membership is decided in integers: each point is cleared to an
integer point over its denominator once, and each a.x <= b is compared by
cross-multiplication.

Volumes are lattice normalized: a polytope spanning a proper affine
subspace is measured against the integer points of its own direction
space, which is the normalization under which lattice point counts and
body volumes match up.  The hull is triangulated in ambient coordinates
by cones from the least vertex over the facets that miss it, recursively,
with the face lattice read off the incidences: the facets of a facet F
are the inclusion-maximal nonempty intersections of F with the other
facets.  Each m-simplex is measured by the Smith factors of its m edge
vectors: their product is the index of the edge lattice in the integer
points of its span, m! times the simplex's volume there, in every
dimension.  For a full-dimensional simplex that index is |det| of the
edges, which one Hermite pass gives (`lattice_index`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .errors import InputError, InvariantError
from .exactnum import (
    cleared_row,
    cleared_rows,
    echelon_add,
    kernel,
    lattice_index,
    smith_normal_form,
)
from .flagval import Flag, indecomposables
from .glseries import GradedSeries, HilbertData
from .polyform import HomogeneousForm, check_degree

Point = tuple[Fraction, ...]


def _fr_point(p: Sequence) -> Point:
    return tuple(Fraction(v) for v in p)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# the hull (integer points in ambient coordinates, inside the affine hull)

IntPoint = tuple[int, ...]
Facet = tuple[IntPoint, int]


def _hyperplane(
    pts: list[IntPoint],
    equations: list[IntPoint],
    inside: IntPoint,
    weight: int,
) -> Facet | None:
    """The hyperplane a.x = b through the integer points inside the affine
    hull with the given equation normals, as a primitive normal in the
    direction space, oriented so that inside / weight lies strictly below
    it, or None when the points do not span a unique such hyperplane.
    The normal spans the kernel of the equation normals and the point
    differences; in space the kernel of two such rows is spanned by their
    cross product, which saves the elimination on every facet of a 3-d
    hull."""
    q0 = pts[0]
    rows = equations + [[x - y for x, y in zip(q, q0)] for q in pts[1:]]
    if len(q0) == 3 and len(rows) == 2:
        (u1, u2, u3), (v1, v2, v3) = rows
        c = (u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1)
        g = math.gcd(*c)
        if not g:
            return None
        a = tuple(x // g for x in c)
    else:
        ker = kernel(rows, len(q0))
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
    equations: tuple[Facet, ...]
    simplex: tuple[int, ...]  # affinely independent points, points[0] first


def _affine_data(points: list[IntPoint], n: int) -> _AffineData:
    """The affine hull of integer points.  Affinely independent points are
    picked greedily, fraction free, in one pass that stops once n
    directions are found; the equations are the kernel of their
    differences, taken with the columns reversed: a kernel basis is reduced
    from the right, so read back, last row first, it is the reduced row
    echelon basis of the equation space, each row led by its positive free
    entry.  Each offset is the integer a.points[0]."""
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
        equations.append((a, sum(x * y for x, y in zip(a, p0))))
    return _AffineData(tuple(equations), tuple(simplex))


# ---------------------------------------------------------------------------
# the polytope


class RationalPolytope:
    """Convex hull of finitely many rational points, canonically presented."""

    __slots__ = ("n", "affdim", "vertices", "equations", "inequalities", "_facets")

    def __init__(self):
        raise InputError("use RationalPolytope.from_points")

    @classmethod
    def _raw(
        cls, n, affdim, vertices, equations, inequalities, facets=None
    ) -> RationalPolytope:
        """A polytope from its canonical data.  facets, when given, holds
        for each inequality the indices of the sorted vertices on its
        facet, and vertices and inequalities come sorted already."""
        self = object.__new__(cls)
        self.n = n
        self.affdim = affdim
        self.equations = tuple(equations)
        if facets is None:
            self.vertices = tuple(sorted(vertices))
            self.inequalities = tuple(sorted(inequalities))
        else:
            self.vertices = tuple(vertices)
            self.inequalities = tuple(inequalities)
        self._facets = None if facets is None else tuple(facets)
        return self

    @classmethod
    def empty(cls, n: int) -> RationalPolytope:
        return cls._raw(n, -1, (), (), (), ())

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
        return cls._from_integer_points(*cleared_rows(pts), n)

    @classmethod
    def _from_integer_points(
        cls, points: list[IntPoint], den: int, n: int
    ) -> RationalPolytope:
        """The hull of integer points over one common denominator, which
        divides each hyperplane offset here; normals stay integer tuples.
        The hull's facet incidences are kept, on the vertices alone."""
        pts = list(dict.fromkeys(points))
        if not pts:
            return cls.empty(n)
        aff = _affine_data(pts, n)
        m = len(aff.simplex) - 1
        verts, facets = [0], {}
        if m > 0:
            verts, facets = _hull(pts, aff)
        verts.sort(key=pts.__getitem__)
        rank = {i: r for r, i in enumerate(verts)}
        vertices = [tuple(Fraction(x, den) for x in pts[i]) for i in verts]
        equations = [(a, Fraction(b, den)) for a, b in aff.equations]
        faces = sorted(
            ((a, Fraction(b, den)), frozenset(rank[i] for i in on if i in rank))
            for (a, b), on in facets.items()
        )
        return cls._raw(
            n, m, vertices, equations, [f for f, _ in faces], [v for _, v in faces]
        )

    def _facet_vertices(self) -> tuple[frozenset[int], ...]:
        """For each inequality, the indices of the vertices on its facet."""
        if self._facets is None and self.affdim > 0:
            raise InvariantError("polytope carries no facet incidences")
        return self._facets or ()

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
        if len(point) != self.n:
            raise InputError("contains_point: wrong dimension")
        return self._holds(*cleared_row(point), strictly)

    def contains(self, other: RationalPolytope) -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        ipts, den = cleared_rows(other.vertices)
        return all(self._holds(p, den, False) for p in ipts)

    def _holds(self, p: Sequence[int], den: int, strictly: bool) -> bool:
        """Membership of the point p / den, den > 0: each a.x <= b is
        compared as a.p * b.denominator <= b.numerator * den."""
        for a, b in self.equations:
            if sum(map(mul, a, p)) * b.denominator != b.numerator * den:
                return False
        for a, b in self.inequalities:
            v = sum(map(mul, a, p)) * b.denominator
            w = b.numerator * den
            if v > w or (strictly and v == w):
                return False
        return True

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
        ipts, den = cleared_rows(self.vertices)
        total = 0
        for apex, *rest in _cones(frozenset(range(len(ipts))), self._facet_vertices()):
            edges = [[x - y for x, y in zip(ipts[w], ipts[apex])] for w in rest]
            if len(edges) != m:
                raise InvariantError("volume: a simplex of the wrong dimension")
            if m == self.n:
                index = lattice_index(edges, m)
            else:
                index = math.prod(smith_normal_form(edges))
            if not index:
                raise InvariantError("volume: a degenerate simplex")
            total += index
        return Fraction(total, math.factorial(m) * den**m)

    # -- constructive operations ---------------------------------------------

    def translate(self, vec: Sequence) -> RationalPolytope:
        """The body moved by vec: every face moves along, so the vertices
        and offsets move and the normals and incidences stay."""
        w = _fr_point(vec)
        if len(w) != self.n:
            raise InputError("translate: wrong dimension")
        if self.is_empty:
            return self

        def moved(hyperplanes):
            return [(a, sum(map(mul, a, w), b)) for a, b in hyperplanes]

        return RationalPolytope._raw(
            self.n,
            self.affdim,
            [tuple(x + y for x, y in zip(v, w)) for v in self.vertices],
            moved(self.equations),
            moved(self.inequalities),
            self._facet_vertices(),
        )

    def scaled(self, factor: Fraction) -> RationalPolytope:
        """The body scaled by factor > 0 about the origin: the vertices and
        offsets scale, the normals and incidences stay, and both sort
        orders are kept."""
        factor = Fraction(factor)
        if factor <= 0:
            raise InputError("scaled: factor must be positive")
        if self.is_empty:
            return self
        return RationalPolytope._raw(
            self.n,
            self.affdim,
            [tuple(factor * x for x in v) for v in self.vertices],
            [(a, factor * b) for a, b in self.equations],
            [(a, factor * b) for a, b in self.inequalities],
            self._facet_vertices(),
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


def _cones(
    face: frozenset[int], facets: Sequence[frozenset[int]]
) -> Iterator[tuple[int, ...]]:
    """Simplices covering a face, given by its vertex indices and those of
    its facets, each simplex a tuple of face dimension + 1 vertex indices:
    a cone from the least vertex over every facet that misses it.  The
    facets of a facet F are the inclusion-maximal nonempty sets among its
    intersections with the other facets, so the recursion reads the face
    lattice off the incidences, with no hull."""
    if len(face) == 1:
        yield tuple(face)
        return
    apex = min(face)
    for f in facets:
        if apex in f:
            continue
        meets = {f & g for g in facets if g is not f} - {frozenset()}
        sub = [g for g in meets if not any(g < h for h in meets)]
        for simplex in _cones(f, sub):
            yield (apex,) + simplex


# ---------------------------------------------------------------------------
# Newton-Okounkov bodies


class BodyReport(NamedTuple):
    body: RationalPolytope
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
    to level K (`flagval.indecomposables`), which span the hull of all of
    them.  The certificate is "exact" when the flag transformed series is
    visibly generated by monomials in levels <= k0 <= K: no value point
    above k0 is then indecomposable, so the truncated hull equals the
    limit body.  Otherwise the hull is a certified inner approximation
    ("truncation").  The lattice index is that of the group the kept
    points generate: each dropped point is a kept point plus a value point
    of a lower level, so by induction on the level the kept points
    generate the group of all value points.  The levels are read once
    (`GradedSeries.value_levels`), which records their dimensions: the
    Hilbert data is read off them, as the value point counts are the
    level dimensions and a change of flag keeps them.
    """
    if K < 1:
        raise InputError("okounkov_body: truncation must be >= 1")
    check_degree(K * series.twist, f"okounkov body to level {K}")
    view = series.under_flag(flag)
    kept = indecomposables(view.value_levels(K), series.d)
    dims = view.dims(K)
    den = math.lcm(*(k for _, k in kept))
    body = RationalPolytope._from_integer_points(
        [tuple(x * (den // k) for x in v) for v, k in kept], den, series.d
    )
    certificate = "truncation"
    note = "hull of value points up to the truncation; inner approximation"
    k0 = view.monomial_generator_level
    if k0 is not None and k0 <= K:
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
        truncation=K,
        certificate=certificate,
        certificate_note=note,
        lattice_index=lattice_index([v + (k,) for v, k in kept], series.d + 1),
        hilbert=HilbertData.of(dims, series.d),
        dims=dims,
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
    check_degree(K * series.twist, f"valuative witness to level {K}")
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
