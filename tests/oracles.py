"""Slow reference implementations that rewrites are checked against.

The polytope oracle is the hull layer `convbody` had before its
beneath-beyond hull: a 1-d sort, a 2-d monotone chain, and for higher
dimensions one exact LP per candidate point (`_is_extreme`) plus a
brute-force facet search over vertex subsets (`_hull_nd`).  Slices and
halfspace cuts enumerate basic feasible points of the inequality system
(`_enumerate_vertices`).  The helpers below are kept as they were; the
`reference_*` functions wrap them with the old `RationalPolytope` method
bodies, building every polytope through `reference_polytope`.

The level oracle is the form layer `polyform` had before spans kept their
reduced term rows: `substitute_linear` multiplying out per-form powers of
the linear forms in `Fraction` dicts, and `span_reduce` going from forms to
dense rows and back.  The span operations below are the old `FormSpan`
method bodies on a reference basis, a tuple of forms in reduced row
echelon form.

The view-level oracle is how flag views built their levels before
subduction: each parent level written in flag coordinates by one
substitution and a full reduction, complete levels passed through.  Its
levels hold only multiplied-out rows (`pending_rows` counts the others).
`reference_generated_levels` is a generated series as it forms every
product: level k is the reduced span of all products of the reference
basis of level k - j with the generators at level j, level 0 the constants.

The Fraction route is the beneath-beyond hull as it ran before value
points entered it as integers over one common denominator: the points
normalized to Fractions, and every hyperplane taken as the primitive
first `nullspace` vector of its rows (`fraction_route_polytope`).
`nullspace`, the rational kernel kept here since the library runs only
the integer one (as are `rank` and `solve_rational_system`, which the
oracles below and the solver tests use), reads `rref_rows`, which runs
on the same integer echelon routine (`exactnum._echelon`) as the hull
under test, so this oracle checks the Fraction handling around the
elimination, not the elimination itself; `tests/test_exactnum_sympy.py` is the independent
check of that.

`fraction_dot` is the intersection product as `SurfaceLattice.dot`
computed it before it cleared classes to integers: Fraction arithmetic
term by term.

`reference_translate` and `reference_scaled` are how a polytope moved
and scaled before it kept its hull's facet incidences: by a second hull of
its moved vertices (`RationalPolytope.from_points`).

`reference_indecomposables` is `ValueSemigroup.indecomposables` as it
scanned the value points one at a time, each against every kept point;
`reference_inverse` is how a `Flag` inverted its matrix, by `rref_rows` on
the matrix beside the identity.

`reference_filtered_dimension` is `flagval.filtered_dimension` as it
counted the pivots dominating sigma, one index at a time.

`reference_stable_base_locus` is `monideal.stable_base_locus` as it summed
the base ideals: one `MonomialIdeal.plus` per level, which re-sorts and
re-minimalizes the whole running sum, and one `locus_components` per level.

`reference_maximize` is `exactnum.maximize` as it ran on a Fraction
tableau: `_fraction_pivot` scales the pivot row to a 1 and clears the
column from the others, and `_fraction_simplex_core` compares ratios as
Fractions.  The pivot rule (Bland's) and its tie-breaks are the ones the
integer tableau keeps, so both make the same pivots.

`reference_threshold` is how `surfacezar` started `mu` and `surface_body`
before the mu LP certified D: a decomposition of D that decides
pseudo-effectivity by its own LP, then the bigness check, the LP for C and
the mu LP, three LPs in all.  It has the signature of
`surfacezar._threshold`, so a test can put it in that function's place.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from okbody.convbody import RationalPolytope
from okbody.errors import InputError, InvariantError
from okbody.exactnum import (
    _check_rect,
    det,
    echelon_add,
    feasible_nonneg,
    hermite_normal_form,
    in_cone,
    integer_row,
    maximize,
    rref_rows,
)
from okbody import polyform
from okbody.monideal import (
    BaseLocusReport,
    MonomialIdeal,
    base_ideal,
    locus_components,
)
from okbody.polyform import HomogeneousForm
from okbody.surfacezar import zariski

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


def nullspace(A: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of A, one vector per free column, read off
    the rational reduced row echelon form."""
    n, m = _check_rect(A, "nullspace")
    R, pivots = rref_rows(A)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for row, p in zip(R, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def rank(A: Sequence[Sequence[Fraction]]) -> int:
    echelon: list[tuple[int, list[int]]] = []
    return sum(echelon_add(echelon, integer_row(row)) for row in A)


def solve_rational_system(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve A x = b exactly.  Returns one solution (free variables set to 0)
    or None when the system is inconsistent."""
    n, m = _check_rect(A, "solve_rational_system")
    if len(b) != n:
        raise InputError("solve_rational_system: rhs length mismatch")
    aug = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(A, b)]
    R, pivots = rref_rows(aug)
    x = [Fraction(0)] * m
    for row, p in zip(R, pivots):
        if p == m:
            return None  # pivot in the constant column
        x[p] = row[m]
    return x


def fraction_dot(gram: Sequence[Sequence[int]], a: Sequence, b: Sequence) -> Fraction:
    """a . b over the Gram matrix, in Fractions term by term."""
    total = Fraction(0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            total += Fraction(x) * gram[i][j] * Fraction(y)
    return total


def reference_threshold(lattice, D, C):
    """(decomposition of D, mu, y, z) with D = y + mu C and C = z on the
    effective generators, by the start order of three LPs."""
    dec = zariski(lattice, D)
    if lattice.dot(dec.positive, dec.positive) <= 0:
        raise InputError("mu: divisor is not big")
    gens = lattice.effective_generators
    z = in_cone(gens, C)
    if z is None:
        raise InputError("mu: flag curve is not an effective class")
    A = [[g[r] for g in gens] + [C[r]] for r in range(lattice.rank)]
    c = [Fraction(0)] * len(gens) + [Fraction(1)]
    status, x, value = maximize(A, list(dec.divisor), c)
    if status == "unbounded":
        raise InputError("mu: effective threshold unbounded; degenerate cone data")
    if status != "optimal":
        raise InvariantError("mu: threshold LP infeasible for an effective class")
    return dec, value, x[: len(gens)], z


# ---------------------------------------------------------------------------
# the Fraction simplex


def _fraction_pivot(T: list[list[Fraction]], row: int, col: int) -> None:
    """Scale T[row] to a 1 in column col and clear col from every other row,
    skipping zero entries."""
    piv = T[row][col]
    T[row] = [v / piv if v else v for v in T[row]]
    for i, r in enumerate(T):
        if i != row and r[col]:
            f = r[col]
            T[i] = [a - f * b if b else a for a, b in zip(r, T[row])]


def _fraction_simplex_core(
    T: list[list[Fraction]], basis: list[int], nvars: int
) -> str:
    """Maximize the objective stored in the last tableau row.

    T has rows [A | b] then one objective row [c | value]; basis holds the
    basic variable of each constraint row.  Returns "optimal" or "unbounded".
    """
    nrows = len(T) - 1
    while True:
        obj = T[-1]
        enter = next((j for j in range(nvars) if obj[j] > 0), None)
        if enter is None:
            return "optimal"
        best: tuple[Fraction, int, int] | None = None  # (ratio, basis var, row)
        for i in range(nrows):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                key = (ratio, basis[i], i)
                if best is None or key < best:
                    best = key
        if best is None:
            return "unbounded"
        _fraction_pivot(T, best[2], enter)
        basis[best[2]] = enter


def reference_maximize(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize c.x subject to A x = b, x >= 0, exactly.

    Returns (status, x, value) with status in {"optimal", "unbounded",
    "infeasible"}.
    """
    n, m = _check_rect(A, "maximize")
    if len(b) != n or len(c) != m:
        raise InputError("maximize: dimension mismatch")
    rows = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(A, b)]
    for row in rows:
        if row[-1] < 0:
            row[:] = [-v for v in row]
    # phase 1: artificial variables, maximize -(sum of artificials)
    T = []
    basis = []
    for i, row in enumerate(rows):
        art = [Fraction(0)] * n
        art[i] = Fraction(1)
        T.append(row[:-1] + art + [row[-1]])
        basis.append(m + i)
    # maximize -(sum of artificials), priced out on the basic artificials
    T.append([Fraction(0)] * m + [Fraction(-1)] * n + [Fraction(0)])
    for i in range(n):
        _fraction_pivot(T, i, m + i)
    _fraction_simplex_core(T, basis, m + n)
    if T[-1][-1] != 0:
        return "infeasible", None, None
    # drive leftover artificials out of the basis where possible
    for i in range(n):
        if basis[i] >= m:
            enter = next((j for j in range(m) if T[i][j] != 0), None)
            if enter is not None:
                _fraction_pivot(T, i, enter)
                basis[i] = enter
    # phase 2: real objective on the original variables
    keep = [i for i in range(n) if basis[i] < m or T[i][-1] == 0]
    T2 = [[T[i][j] for j in range(m)] + [T[i][-1]] for i in keep]
    basis2 = [basis[i] for i in keep]
    # the real objective, priced out on the basic real columns
    T2.append(list(map(Fraction, c)) + [Fraction(0)])
    for i, bv in enumerate(basis2):
        if bv < m:
            _fraction_pivot(T2, i, bv)
    status = _fraction_simplex_core(T2, basis2, m)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * m
    for i, bv in enumerate(basis2):
        if bv < m:
            x[bv] = T2[i][-1]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return "optimal", x, value


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


def reference_translate(poly: RationalPolytope, vec: Sequence) -> RationalPolytope:
    w = _fr_point(vec)
    if len(w) != poly.n:
        raise InputError("translate: wrong dimension")
    if poly.is_empty:
        return poly
    return RationalPolytope.from_points(
        [tuple(a + b for a, b in zip(v, w)) for v in poly.vertices], poly.n
    )


def reference_scaled(poly: RationalPolytope, factor: Fraction) -> RationalPolytope:
    factor = Fraction(factor)
    if factor <= 0:
        raise InputError("scaled: factor must be positive")
    if poly.is_empty:
        return poly
    return RationalPolytope.from_points(
        [tuple(factor * x for x in v) for v in poly.vertices], poly.n
    )


# ---------------------------------------------------------------------------
# the Fraction route of the beneath-beyond hull


def normalized_value_points(semigroup, upto: int) -> list[Point]:
    """The value points nu(s) / k of levels k <= upto, as Fractions."""
    return [
        tuple(Fraction(x, k) for x in v) for v, k in semigroup.points() if k <= upto
    ]


def _fr_hyperplane(pts, equations, inside, weight):
    q0 = pts[0]
    # a zero row keeps the matrix nonempty for a lone point on a line
    ker = nullspace(
        [[0] * len(q0)]
        + equations
        + [[x - y for x, y in zip(q, q0)] for q in pts[1:]]
    )
    if len(ker) != 1:
        return None
    a = _primitive(ker[0], fix_sign=False)
    b = sum(x * y for x, y in zip(a, q0))
    if sum(x * y for x, y in zip(a, inside)) > weight * b:
        a, b = tuple(-v for v in a), -b
    return a, b


def _fr_affine_data(points: list[Point], n: int):
    p0 = points[0]
    simplex, echelon = [0], []
    for i in range(1, len(points)):
        if len(echelon) == n:
            break
        v = [x - y for x, y in zip(points[i], p0)]
        for lead, row in echelon:
            if v[lead]:
                v = [x - v[lead] * y for x, y in zip(v, row)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            echelon.append((lead, [x / v[lead] for x in v]))
            simplex.append(i)
    if echelon:
        ker = nullspace([row[::-1] for _, row in echelon])
        normals = [row[::-1] for row in reversed(ker)]
    else:
        normals = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    equations = []
    for row in normals:
        a = _primitive(row, fix_sign=True)
        equations.append((a, _dot(a, p0)))
    return tuple(equations), tuple(simplex)


def _fr_hull(points: list[Point], equations, simplex):
    scale = math.lcm(*(v.denominator for p in points for v in p))
    ipts = [tuple(int(v * scale) for v in p) for p in points]
    eqs = [a for a, _ in equations]
    m = len(simplex) - 1
    inside = tuple(map(sum, zip(*(ipts[i] for i in simplex))))
    facets = {}
    for skip in simplex:
        on = [i for i in simplex if i != skip]
        key = _fr_hyperplane([ipts[i] for i in on], eqs, inside, m + 1)
        if key is None:
            raise InvariantError("hull: simplex facet spans no unique hyperplane")
        facets[key] = set(on)
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
                key = _fr_hyperplane(
                    [p] + [ipts[j] for j in ridge], eqs, inside, m + 1
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
    return verts, {(a, Fraction(b, scale)): on for (a, b), on in facets.items()}


def fraction_route_polytope(points: Sequence[Sequence], n: int) -> RationalPolytope:
    """The beneath-beyond hull as it ran on Fraction points: points
    normalized and deduplicated as Fractions, the greedy simplex and the
    equations by Fraction elimination, and each hyperplane the primitive
    first `nullspace` vector of its rows, on the points scaled to integers
    by the lcm of their denominators."""
    pts = list(dict.fromkeys(_fr_point(p) for p in points))
    if not pts:
        return RationalPolytope.empty(n)
    equations, simplex = _fr_affine_data(pts, n)
    m = len(simplex) - 1
    if m == 0:
        return RationalPolytope._raw(n, 0, [pts[0]], equations, ())
    verts, facets = _fr_hull(pts, equations, simplex)
    inequalities = [(tuple(map(Fraction, a)), b) for a, b in facets]
    return RationalPolytope._raw(n, m, [pts[i] for i in verts], equations, inequalities)


# ---------------------------------------------------------------------------
# the level oracle

Exponent = tuple[int, ...]


def j_unit(n: int, k: int) -> Exponent:
    e = [0] * n
    e[k] = 1
    return tuple(e)


def _mul_terms(
    a: dict[Exponent, Fraction], b: dict[Exponent, Fraction]
) -> dict[Exponent, Fraction]:
    out: dict[Exponent, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, Fraction(0)) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def reference_substitute_linear(
    form: HomogeneousForm, matrix: Sequence[Sequence[Fraction]]
) -> HomogeneousForm:
    self = form
    n = self.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InputError("substitute_linear: matrix must be nvars x nvars")
    lines = [
        {
            (j_unit(n, k)): Fraction(matrix[j][k])
            for k in range(n)
            if Fraction(matrix[j][k]) != 0
        }
        for j in range(n)
    ]
    one = {(0,) * n: Fraction(1)}
    powers: dict[tuple[int, int], dict[Exponent, Fraction]] = {}

    def power(j: int, p: int) -> dict[Exponent, Fraction]:
        if p == 0:
            return one
        got = powers.get((j, p))
        if got is None:
            got = _mul_terms(power(j, p - 1), lines[j])
            powers[(j, p)] = got
        return got

    total: dict[Exponent, Fraction] = {}
    for e, c in self.terms.items():
        prod = one
        for j, ej in enumerate(e):
            if ej:
                prod = _mul_terms(prod, power(j, ej))
        for ee, cc in prod.items():
            total[ee] = total.get(ee, Fraction(0)) + c * cc
    return HomogeneousForm(n, total, self.degree)


def reference_span_reduce(
    nvars: int, degree: int, forms
) -> tuple[tuple[HomogeneousForm, ...], tuple[Exponent, ...]]:
    kept = []
    for f in forms:
        if f.is_zero:
            continue
        if f.nvars != nvars or f.degree != degree:
            raise InputError("span_reduce: form of wrong shape")
        kept.append(f)
    if not kept:
        return (), ()
    if all(f.is_monomial for f in kept):
        exps = sorted({next(iter(f.terms)) for f in kept})
        basis = tuple(HomogeneousForm.monomial(nvars, e) for e in exps)
        return basis, tuple(exps)
    cols = sorted({e for f in kept for e in f.terms})
    colpos = {e: j for j, e in enumerate(cols)}
    rows = [
        [Fraction(0)] * len(cols) for _ in kept
    ]
    for i, f in enumerate(kept):
        for e, c in f.terms.items():
            rows[i][colpos[e]] = c
    red, piv = rref_rows(rows)
    basis = tuple(
        HomogeneousForm(
            nvars,
            {cols[j]: v for j, v in enumerate(row) if v != 0},
            degree,
        )
        for row in red
    )
    return basis, tuple(cols[j] for j in piv)


def _combine(
    basis: Sequence[HomogeneousForm],
    coeffs: Sequence[Fraction],
    nvars: int,
    degree: int,
) -> HomogeneousForm:
    total = HomogeneousForm.zero(nvars, degree)
    for f, c in zip(basis, coeffs):
        if c:
            total = total + f.scaled(c)
    return total


def reference_contains(basis, pivots, form: HomogeneousForm) -> bool:
    rem = form
    for f, p in zip(basis, pivots):
        c = rem.coefficient(p)
        if c:
            rem = rem - f.scaled(c)
    return rem.is_zero


def reference_subspace_with_min_exponent(
    basis, nvars: int, degree: int, var: int, minimum: int
):
    low = sorted(
        {e for f in basis for e in f.terms if e[var] < minimum}
    )
    if not low:
        return reference_span_reduce(nvars, degree, basis)
    rows = [
        [f.coefficient(e) for f in basis] for e in low
    ]
    combos = nullspace(rows)
    forms = [
        _combine(basis, c, nvars, degree) for c in combos
    ]
    return reference_span_reduce(nvars, degree, forms)


def reference_subspace_vanishing_at(basis, nvars: int, degree: int, points):
    rows = [
        [f.evaluate(p) for f in basis] for p in points
    ]
    combos = nullspace(rows)
    forms = [
        _combine(basis, c, nvars, degree) for c in combos
    ]
    return reference_span_reduce(nvars, degree, forms)


# ---------------------------------------------------------------------------
# the value-point and flag oracles


def reference_indecomposables(semigroup) -> list[tuple[tuple[int, ...], int]]:
    """The value points less each (v, k) with v - g in level k - j for an
    already kept (g, j), 2j <= k, point by point."""
    sets = {k: set(vs) for k, vs in semigroup.levels.items()}
    kept: list[tuple[tuple[int, ...], int]] = []
    for v, k in semigroup.points():
        if not any(
            2 * j <= k and tuple(x - y for x, y in zip(v, g)) in sets.get(k - j, ())
            for g, j in kept
        ):
            kept.append((v, k))
    return kept


def reference_inverse(matrix) -> list[list[Fraction]] | None:
    """The inverse of a square rational matrix, or None if it is singular."""
    n = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    red, piv = rref_rows(aug)
    if piv != list(range(n)):
        return None
    return [row[n:] for row in red]


def reference_filtered_dimension(span, sigma) -> int:
    """The number of pivots whose first len(sigma) entries are each at
    least the entry of sigma."""
    r = len(sigma)
    return sum(
        1
        for p in span.pivots
        if all(p[i] >= sigma[i] for i in range(r))
    )


# the base-locus oracle


def reference_stable_base_locus(series, K: int):
    """The stable base locus report, summed level by level through `plus`."""
    n = series.d + 1
    ideals = {}
    cumulative = MonomialIdeal(n)
    loci = {}
    for k in range(1, K + 1):
        ideals[k] = base_ideal(series, k)
        cumulative = cumulative.plus(ideals[k])
        loci[k] = locus_components(cumulative)
    components = loci[K]
    stabilized_at = None
    for k in range(1, K // 2 + 1):
        if loci[k] == loci[2 * k] == components:
            stabilized_at = k
            break
    return BaseLocusReport(
        truncation=K,
        base_ideals=ideals,
        cumulative=cumulative,
        components=components,
        empty=all(len(c) == n for c in components),
        stabilized=stabilized_at is not None,
        stabilized_at=stabilized_at,
    )


# the view-level oracle


def reference_view_level(series, flag, k: int):
    """Level k of the series under the flag, transformed from the parent."""
    span = series.level(k)
    if span.is_complete:
        return span
    return span.transformed(reference_inverse(flag.matrix))


def reference_generated_levels(nvars: int, twist: int, gens, K: int):
    """The reference bases of levels 1..K of the series generated by gens
    (generator level -> forms), every product formed."""
    bases = {0: (HomogeneousForm.monomial(nvars, (0,) * nvars),)}
    for k in range(1, K + 1):
        products = [
            f * g
            for j, forms in gens.items()
            if j <= k
            for f in bases[k - j]
            for g in forms
        ]
        bases[k], _ = reference_span_reduce(nvars, k * twist, products)
    return [bases[k] for k in range(1, K + 1)]


def pending_rows(span) -> int:
    """How many rows of a span are pending rows (products, quotients or
    cuts) not yet computed; the tests of the span readers check that their
    input has some."""
    return sum(
        isinstance(row, polyform._Pending) and row.row is None
        for row in span._rows.values()
    )
