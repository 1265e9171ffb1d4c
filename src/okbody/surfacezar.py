"""Surface engine: exact Zariski decompositions over a user-described
intersection lattice and the piecewise linear description of the body of a
big divisor with respect to a flag (curve, point).

The user supplies the Neron-Severi data: Gram matrix, candidate negative
curves, and effective-cone generators, all integral.  The engine never
discovers curves; it validates the supplied configuration and fails loudly
when the list is insufficient to certify a decomposition.

Inside the engine a class is an integer vector over one positive
denominator.  The lattice holds its listed curves and generators as integer
vectors, with their integer Gram images G c, so an intersection with a
listed class is one integer dot product; the support solves, the fixpoint,
the continuation levels and the body's hull run on integers too, their
eliminations all in `exactnum`.  The other numbers of the public types are
Fractions, built once from those integers.  `ZariskiDecomposition.check`
recomputes its intersection numbers in plain Fraction arithmetic over the
Gram matrix, so that it shares no kernel with the engine it checks.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .convbody import RationalPolytope
from .errors import InputError, InvariantError
from .exactnum import cleared_row, cleared_rows, in_cone, kernel, maximize, negative_definite

Vec = tuple[Fraction, ...]


def _vec(v: Sequence, rank: int, what: str) -> Vec:
    out = tuple(x if type(x) is Fraction else Fraction(x) for x in v)
    if len(out) != rank:
        raise InputError(f"{what}: expected a class vector of length {rank}")
    return out


def _integral(v: Sequence, rank: int, what: str) -> tuple[int, ...]:
    row, den = cleared_row(v)
    if len(row) != rank:
        raise InputError(f"{what}: expected a class vector of length {rank}")
    if den != 1:
        raise InputError(f"surface lattice: {what} not integral")
    return tuple(row)


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


class SurfaceLattice:
    """Intersection lattice of a surface with its curve bookkeeping.

    The listed curves and effective generators are lattice classes, kept as
    integer vectors (`negative_curves`, `effective_generators`) with their
    integer Gram images (`_curve_images`, `_generator_images`)."""

    __slots__ = (
        "rank",
        "gram",
        "negative_curves",
        "effective_generators",
        "_curve_images",
        "_generator_images",
    )

    def __init__(
        self,
        gram: Sequence[Sequence[int]],
        negative_curves: Sequence[Sequence[int]] = (),
        effective_generators: Sequence[Sequence[int]] = (),
    ):
        rank = len(gram)
        if rank < 1:
            raise InputError("surface lattice: empty Gram matrix")
        rows = [cleared_row(row) for row in gram]
        if any(len(row) != rank for row, _ in rows):
            raise InputError("surface lattice: Gram matrix not square")
        if any(den != 1 for _, den in rows):
            raise InputError("surface lattice: Gram matrix not integral")
        G = tuple(tuple(row) for row, _ in rows)
        for i in range(rank):
            for j in range(rank):
                if G[i][j] != G[j][i]:
                    raise InputError("surface lattice: Gram matrix not symmetric")
        self.rank = rank
        self.gram = G
        self.negative_curves = tuple(
            _integral(c, rank, "negative curve") for c in negative_curves
        )
        self.effective_generators = tuple(
            _integral(g, rank, "effective generator") for g in effective_generators
        )
        if not self.effective_generators:
            raise InputError("surface lattice: need effective-cone generators")
        if any(not any(g) for g in self.effective_generators):
            raise InputError("surface lattice: zero effective generator")
        if len(set(self.negative_curves)) != len(self.negative_curves):
            raise InputError("surface lattice: repeated negative curve")
        self._curve_images = [self._image(c) for c in self.negative_curves]
        self._generator_images = [self._image(g) for g in self.effective_generators]
        for c, image in zip(self.negative_curves, self._curve_images):
            if _idot(c, image) >= 0:
                raise InputError(
                    "surface lattice: listed curve has nonnegative self-intersection"
                )

    def _image(self, v: Sequence[int]) -> tuple[int, ...]:
        """G v for an integer vector v."""
        return tuple(_idot(row, v) for row in self.gram)

    def dot(self, a: Sequence, b: Sequence) -> Fraction:
        """a . b for classes of rational (or integer) entries: each class is
        cleared to integers once, and the sum runs over the integer Gram
        matrix."""
        ia, da = cleared_row(a)
        ib, db = cleared_row(b)
        return Fraction(_idot(ia, self._image(ib)), da * db)

    def is_pseudoeffective(self, D: Sequence) -> bool:
        target = _vec(D, self.rank, "divisor")
        return in_cone(self.effective_generators, target) is not None

    def _combines_to(self, weights: Sequence, D: Sequence) -> bool:
        """Whether weights are a nonnegative combination of the effective
        generators equal to D: a certificate that D is pseudo-effective.
        Both sides are cleared to integers, w / wden and v / vden, and
        compared as sum_k w_k g_k vden = v wden."""
        gens = self.effective_generators
        if len(weights) != len(gens):
            return False
        w, wden = cleared_row(weights)
        if any(x < 0 for x in w):
            return False
        v, vden = cleared_row(D)
        return all(
            _idot(w, column) * vden == x * wden for column, x in zip(zip(*gens), v)
        )

    def __repr__(self) -> str:
        return (
            f"SurfaceLattice(rank={self.rank}, "
            f"curves={len(self.negative_curves)}, "
            f"generators={len(self.effective_generators)})"
        )


def _fraction_dot(gram: Sequence[Sequence[int]], a: Sequence, b: Sequence) -> Fraction:
    """a . b over the Gram matrix in plain Fraction arithmetic, term by
    term."""
    return sum(
        (Fraction(x) * g * Fraction(y) for x, row in zip(a, gram) for g, y in zip(row, b)),
        Fraction(0),
    )


def _fraction_negative_definite(G: Sequence[Sequence[Fraction]]) -> bool:
    """Whether a symmetric Fraction matrix is negative definite: Gaussian
    elimination without row exchanges meets only negative pivots."""
    M = [list(row) for row in G]
    for s, pivot_row in enumerate(M):
        p = pivot_row[s]
        if p >= 0:
            return False
        for row in M[s + 1:]:
            f = row[s] / p
            for j in range(s + 1, len(M)):
                row[j] -= f * pivot_row[j]
    return True


class ZariskiDecomposition(NamedTuple):
    """D = P + N with P nef against the listed curves and P orthogonal to
    the support of N."""

    divisor: Vec
    positive: Vec
    negative: tuple[tuple[tuple[int, ...], Fraction], ...]

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c, m in self.negative)

    def negative_class(self) -> Vec:
        n = len(self.divisor)
        out = [Fraction(0)] * n
        for c, m in self.negative:
            for i in range(n):
                out[i] += m * c[i]
        return tuple(out)

    def multiplicity(self, curve: Sequence) -> Fraction:
        key = tuple(Fraction(x) for x in curve)
        for c, m in self.negative:
            if c == key:
                return m
        return Fraction(0)

    def check(self, lattice: SurfaceLattice) -> None:
        """Verify the defining invariants exactly; raises on violation.

        The intersection numbers are Fraction sums over the Gram matrix,
        computed apart from the engine's integer kernels."""
        gram = lattice.gram
        N = self.negative_class()
        if tuple(p + n for p, n in zip(self.positive, N)) != self.divisor:
            raise InvariantError("zariski: D != P + N")
        for c, m in self.negative:
            if m <= 0:
                raise InvariantError("zariski: nonpositive multiplicity kept")
            if _fraction_dot(gram, self.positive, c) != 0:
                raise InvariantError("zariski: P not orthogonal to supp N")
        for c in lattice.negative_curves:
            if _fraction_dot(gram, self.positive, c) < 0:
                raise InvariantError("zariski: P negative against a listed curve")
        supp = self.support
        if supp and not _fraction_negative_definite(
            [[_fraction_dot(gram, a, b) for b in supp] for a in supp]
        ):
            raise InvariantError("zariski: support Gram not negative definite")


def _negative_definite(lattice: SurfaceLattice, idx: Sequence[int]) -> bool:
    """Whether the integer Gram matrix of the listed curves idx is negative
    definite, by `exactnum.negative_definite`."""
    curves, images = lattice.negative_curves, lattice._curve_images
    return negative_definite([[_idot(curves[a], images[b]) for b in idx] for a in idx])


def _solve_support(
    lattice: SurfaceLattice, supp: list[int], rhs: list[int], den: int
) -> tuple[list[int], int]:
    """The multiplicities x with sum_j x_j (C_i . C_j) = rhs_i / den over
    the support curves C_i, as integers v over a positive denominator: the
    kernel of [G | -rhs] is one vector (v w, w), w != 0, exactly when the
    support Gram matrix G is nonsingular, and x = v / (w den)."""
    curves, images = lattice.negative_curves, lattice._curve_images
    rows = [
        [_idot(curves[a], images[b]) for b in supp] + [-r] for a, r in zip(supp, rhs)
    ]
    ker = kernel(rows, len(supp) + 1)
    if len(ker) != 1 or not ker[0][-1]:
        raise InputError(
            "zariski: support intersection matrix is singular; "
            "check the negative-curve list"
        )
    *v, w = ker[0]
    if w < 0:
        v, w = [-x for x in v], -w
    return v, w * den


def _positive_part(
    lattice: SurfaceLattice, supp: list[int], x: Sequence[int], den: int
) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
    """((m, mden), (P, pden)) with P / pden = x / den - sum m_i C_i / mden
    orthogonal to the support curves C_i, both over positive denominators;
    on the empty support, m = [] and P = x."""
    if not supp:
        return ([], 1), (list(x), den)
    images = lattice._curve_images
    m, mden = _solve_support(lattice, supp, [_idot(x, images[i]) for i in supp], den)
    P = [v * mden for v in x]
    curves = lattice.negative_curves
    for i, mi in zip(supp, m):
        if mi:
            f = den * mi
            P = [p - f * c for p, c in zip(P, curves[i])]
    return (m, mden), (P, den * mden)


def zariski(
    lattice: SurfaceLattice, D: Sequence, witness: Sequence | None = None
) -> ZariskiDecomposition:
    """Zariski decomposition of a pseudo-effective class.

    Grows the support of the negative part to a fixpoint: starting from the
    empty support, take the positive part on the support, then admit every
    curve it still meets negatively.  D is cleared to integers once; each
    intersection with a listed curve is one integer dot product with its
    Gram image.
    A witness, weights on the effective generators, is checked exactly;
    when it is absent or does not combine to D, an LP decides whether D is
    pseudo-effective.
    """
    D = _vec(D, lattice.rank, "divisor")
    certified = witness is not None and lattice._combines_to(witness, D)
    if not certified and not lattice.is_pseudoeffective(D):
        raise InputError("zariski: divisor is not pseudo-effective")
    x, den = cleared_row(D)
    images = lattice._curve_images
    supp: list[int] = []
    while True:
        (coeffs, cden), (P, pden) = _positive_part(lattice, supp, x, den)
        entering = [
            i for i, g in enumerate(images) if i not in supp and _idot(P, g) < 0
        ]
        if not entering:
            break
        supp.extend(entering)
    if any(m < 0 for m in coeffs):
        raise InputError(
            "zariski: negative multiplicity in the fixpoint; "
            "the negative-curve list is inconsistent"
        )
    kept = sorted((i, m) for i, m in zip(supp, coeffs) if m > 0)
    if kept and not _negative_definite(lattice, [i for i, _ in kept]):
        raise InputError(
            "zariski: support Gram matrix not negative definite; "
            "check the negative-curve list"
        )
    if any(_idot(P, g) < 0 for g in lattice._generator_images):
        raise InputError(
            "zariski: negative-curve list insufficient; the positive part "
            "still meets an effective class negatively"
        )
    curves = lattice.negative_curves
    return ZariskiDecomposition(
        divisor=D,
        positive=tuple(Fraction(p, pden) for p in P),
        negative=tuple((curves[i], Fraction(m, cden)) for i, m in kept),
    )


def volume(lattice: SurfaceLattice, D: Sequence) -> Fraction:
    """Self-intersection of the positive part: the exact volume of D."""
    z = zariski(lattice, D)
    return lattice.dot(z.positive, z.positive)


def mu(lattice: SurfaceLattice, D: Sequence, C: Sequence) -> Fraction:
    """Largest t keeping D - tC inside the effective cone, by exact LP.

    Requires D big (positive Zariski volume); the rational polyhedrality of
    the effective cone makes the threshold rational.
    """
    D = _vec(D, lattice.rank, "divisor")
    C = _vec(C, lattice.rank, "flag curve")
    return _threshold(lattice, D, C)[1]


def _threshold(
    lattice: SurfaceLattice, D: Vec, C: Vec
) -> tuple[ZariskiDecomposition, Fraction, list[Fraction], list[Fraction]]:
    """(decomposition of D, mu, y, z) with D = y + mu C and C = z on the
    effective generators, by two LPs: the mu LP, feasible exactly when D is
    pseudo-effective, whose y + mu z certifies D to its decomposition, and
    the LP for C.  For 0 <= t <= mu, y + (mu - t) z combines to D - tC."""
    gens = lattice.effective_generators
    # columns: one multiplier per generator, then t; rows: class equality
    A = [[g[r] for g in gens] + [C[r]] for r in range(lattice.rank)]
    c = [0] * len(gens) + [1]
    status, x, value = maximize(A, list(D), c)
    if status == "infeasible":
        raise InputError("zariski: divisor is not pseudo-effective")
    z = in_cone(gens, C)
    witness = None  # only on error paths: zariski runs its LP and raises first
    if status == "optimal" and z is not None:
        witness = [a + value * b for a, b in zip(x, z)]
    dec = zariski(lattice, D, witness)
    if lattice.dot(dec.positive, dec.positive) <= 0:
        raise InputError("mu: divisor is not big")
    if z is None:
        raise InputError("mu: flag curve is not an effective class")
    if status == "unbounded":
        raise InputError("mu: effective threshold unbounded; degenerate cone data")
    return dec, value, x[: len(gens)], z


class Segment(NamedTuple):
    """One maximal interval of constant negative-part support."""

    t0: Fraction
    t1: Fraction
    alpha: tuple[Fraction, Fraction]
    beta: tuple[Fraction, Fraction]
    support: tuple[int, ...]


def _affine_eval(f: tuple[Fraction, Fraction], t: Fraction) -> Fraction:
    return f[0] * t + f[1]


class SurfaceBody:
    """Piecewise linear description {(t, y): 0 <= t <= mu, a(t) <= y <= b(t)}.

    `_lower` and `_upper` hold a(t) and b(t) at the breakpoints, computed
    once from the segment starting there (the last one at mu)."""

    mu_note = (
        "mu is the exact effective threshold; the body is the closure "
        "of the big range"
    )

    __slots__ = (
        "mu",
        "segments",
        "breakpoints",
        "_lower",
        "_upper",
        "point_multiplicities",
        "divisor",
        "curve",
        "decomposition",
    )

    def __init__(
        self,
        mu_value: Fraction,
        segments: tuple[Segment, ...],
        point_multiplicities: tuple[tuple[tuple[int, ...], int], ...],
        divisor: Vec,
        curve: Vec,
        decomposition: ZariskiDecomposition,
    ):
        self.mu = mu_value
        self.segments = segments
        self.breakpoints = tuple(s.t0 for s in segments) + (mu_value,)
        starts = tuple(zip(segments + segments[-1:], self.breakpoints))
        self._lower = tuple(_affine_eval(s.alpha, t) for s, t in starts)
        self._upper = tuple(_affine_eval(s.beta, t) for s, t in starts)
        self.point_multiplicities = point_multiplicities
        self.divisor = divisor
        self.curve = curve
        self.decomposition = decomposition  # of the divisor, at t = 0

    def _segment(self, t: Fraction) -> Segment:
        t = Fraction(t)
        if t < 0 or t > self.mu:
            raise InputError("surface body: t outside [0, mu]")
        for seg in self.segments:
            if seg.t0 <= t <= seg.t1:
                return seg
        raise InvariantError("surface body: segment lookup failed")

    def alpha(self, t: Fraction) -> Fraction:
        return _affine_eval(self._segment(t).alpha, Fraction(t))

    def beta(self, t: Fraction) -> Fraction:
        return _affine_eval(self._segment(t).beta, Fraction(t))

    def area(self) -> Fraction:
        ts = self.breakpoints
        heights = [b - a for a, b in zip(self._lower, self._upper)]
        total = Fraction(0)
        for i in range(len(self.segments)):
            total += (heights[i] + heights[i + 1]) * (ts[i + 1] - ts[i]) / 2
        return total

    def polytope(self) -> RationalPolytope:
        """The hull of the lower and upper edge at every breakpoint, the
        points cleared to integers over one denominator."""
        pts = []
        for t, a, b in zip(self.breakpoints, self._lower, self._upper):
            pts += ((t, a), (t, b))
        return RationalPolytope._from_integer_points(*cleared_rows(pts), 2)

    def __repr__(self) -> str:
        return (
            f"SurfaceBody(mu={self.mu}, segments={len(self.segments)}, "
            f"area={self.area()})"
        )


def _entering(levels: dict, t: Fraction) -> list[int]:
    """The curves that join the support at time t: those whose level
    (v0, v1), with P(t) . G a positive multiple of v0 + t v1, has
    (v0 + t v1, v1) < (0, 0), so that P(t) . G is negative or turns
    negative at t."""
    tn, td = t.numerator, t.denominator
    return [j for j, (v0, v1) in levels.items() if (v0 * td + tn * v1, v1) < (0, 0)]


def surface_body(
    lattice: SurfaceLattice,
    D: Sequence,
    C: Sequence,
    point_multiplicities: dict | None = None,
) -> SurfaceBody:
    """Body of D for the flag (C, x) by parametric Zariski continuation.

    On each maximal interval where the support of the negative part N_t of
    D - tC is constant, the multiplicities solve a fixed linear system and
    are affine in t; interval ends are exact roots of orthogonality
    conditions.  The lower edge is a(t) = sum of mult_Gamma(N_t) times the
    supplied local multiplicity of Gamma meet C at x (0 = generic point);
    the upper edge adds C . P_t.  D and C are cleared to integers once, and
    the multiplicities, positive parts and levels of each interval are
    integers over positive denominators.
    """
    D = _vec(D, lattice.rank, "divisor")
    C = _vec(C, lattice.rank, "flag curve")
    curves = lattice.negative_curves
    images = lattice._curve_images
    x0, xden = cleared_row(D)
    cv, cden = cleared_row(C)
    # G . C over cden for each listed curve G, and the Gram image of C
    meets = [_idot(g, cv) for g in images]
    image_c = lattice._image(cv)
    mults = [0] * len(curves)
    echo: list[tuple[tuple[int, ...], int]] = []
    if point_multiplicities:
        for key, m in point_multiplicities.items():
            k = _vec(key, lattice.rank, "multiplicity key")
            if int(m) != m or m < 0:
                raise InputError("surface body: multiplicities must be ints >= 0")
            hits = [i for i, c in enumerate(curves) if c == k]
            if not hits:
                raise InputError(
                    "surface body: multiplicity key is not a listed curve"
                )
            # a curve G != C meets C in G . C points, counted with
            # multiplicity, so no point of C has a larger one on G
            if k != C and m * cden > meets[hits[0]]:
                raise InputError(
                    "surface body: point multiplicity exceeds G . C for a curve G"
                )
            mults[hits[0]] = int(m)
            if m:
                echo.append((curves[hits[0]], int(m)))
    # C is an irreducible curve: a listed curve G != C with G . C < 0 would
    # be a component of C
    if any(c != C and g < 0 for c, g in zip(curves, meets)):
        raise InputError(
            "surface body: flag curve meets a listed curve G negatively, so G "
            "is a component of it; the flag curve must be irreducible"
        )
    # one decomposition of D serves the bigness check of mu, the start of
    # the continuation and the body's record of it
    start, mu_value, y, z = _threshold(lattice, D, C)
    supp = sorted(curves.index(c) for c, _ in start.negative)
    minus_c = [-v for v in cv]
    segments: list[Segment] = []
    t_cur = Fraction(0)
    guard = 0
    while True:
        guard += 1
        if guard > 4 * len(curves) + 8:
            raise InvariantError("surface body: continuation failed to terminate")
        # on this support the multiplicities (c0 / d0) + t (c1 / d1) and the
        # positive part (P0 / e0) + t (P1 / e1) of D - tC are affine in t,
        # and P(t) . G is (v0 + t v1) / (e0 e1) for the level
        # (v0, v1) = ((P0 . G) e1, (P1 . G) e0) of each curve G off the
        # support
        (c0, d0), (P0, e0) = _positive_part(lattice, supp, x0, xden)
        (c1, d1), (P1, e1) = _positive_part(lattice, supp, minus_c, cden)
        levels = {
            j: (_idot(P0, g) * e1, _idot(P1, g) * e0)
            for j, g in enumerate(images)
            if j not in supp
        }
        grow_now = _entering(levels, t_cur)
        if grow_now:
            supp = sorted(supp + grow_now)
            continue

        if any(curves[i] == C for i in supp):
            raise InputError(
                "surface body: the flag curve lies in the support of the "
                "negative part; replace D by D - aC first"
            )

        # the next breakpoint: the least root of a falling level past t_cur
        roots = [Fraction(-v0, v1) for v0, v1 in levels.values() if v1 < 0]
        t_next = min([r for r in roots if r > t_cur] + [mu_value])
        tn, td = t_cur.numerator, t_cur.denominator
        un, ud = t_next.numerator, t_next.denominator
        for a, b in zip(c0, c1):
            # the multiplicity over d0 d1 is a d1 + t b d0
            a, b = a * d1, b * d0
            if (a * td + tn * b, b) < (0, 0) or a * ud + un * b < 0:
                raise InvariantError(
                    "surface body: negative-part support decreased; "
                    "parametric continuation aborted"
                )

        a_slope = Fraction(_idot(c1, [mults[i] for i in supp]), d1)
        a_icpt = Fraction(_idot(c0, [mults[i] for i in supp]), d0)
        b_slope = a_slope + Fraction(_idot(P1, image_c), e1 * cden)
        b_icpt = a_icpt + Fraction(_idot(P0, image_c), e0 * cden)
        segments.append(
            Segment(
                t0=t_cur,
                t1=t_next,
                alpha=(a_slope, a_icpt),
                beta=(b_slope, b_icpt),
                support=tuple(supp),
            )
        )

        # independent cross-check in the middle of the interval, with the
        # cone witnesses of mu showing that D - t_mid C is effective
        t_mid = (t_cur + t_next) / 2
        D_mid = tuple(d - t_mid * c for d, c in zip(D, C))
        witness = [a + (mu_value - t_mid) * b for a, b in zip(y, z)]
        z_mid = zariski(lattice, D_mid, witness)
        expected = {
            curves[i]: Fraction(a, d0) + t_mid * Fraction(b, d1)
            for i, a, b in zip(supp, c0, c1)
        }
        got = {c: m for c, m in z_mid.negative}
        if got != {c: m for c, m in expected.items() if m != 0}:
            raise InvariantError(
                "surface body: continuation disagrees with a direct "
                f"decomposition at t={t_mid}"
            )

        if t_next == mu_value:
            break
        supp = sorted(supp + _entering(levels, t_next))
        t_cur = t_next

    body = SurfaceBody(
        mu_value=mu_value,
        segments=tuple(segments),
        point_multiplicities=tuple(echo),
        divisor=D,
        curve=C,
        decomposition=start,
    )
    _check_body(body)
    return body


def _check_body(body: SurfaceBody) -> None:
    """Each segment ends at the next breakpoint, on the edge values
    recorded there; the lower edge is convex, the upper concave."""
    segs, lower, upper = body.segments, body._lower, body._upper
    if any(a > b for a, b in zip(lower, upper)):
        raise InvariantError("surface body: lower edge above upper edge")
    for s, t, a, b in zip(segs, body.breakpoints[1:], lower[1:], upper[1:]):
        if s.t1 != t:
            raise InvariantError("surface body: segment gap")
        if _affine_eval(s.alpha, t) != a:
            raise InvariantError("surface body: lower edge discontinuous")
        if _affine_eval(s.beta, t) != b:
            raise InvariantError("surface body: upper edge discontinuous")
    for prev, nxt in zip(segs, segs[1:]):
        if prev.alpha[0] > nxt.alpha[0]:
            raise InvariantError("surface body: lower edge not convex")
        if prev.beta[0] < nxt.beta[0]:
            raise InvariantError("surface body: upper edge not concave")


class BoundaryStratum(NamedTuple):
    """One boundary piece of a surface body with its valuativity status.

    valuative is True for certified strata, None when the status is unknown
    or depends on data (genus, generality of x) outside the lattice model.
    """

    name: str
    valuative: bool | None
    detail: str
    start: tuple[Fraction, Fraction]
    end: tuple[Fraction, Fraction]
    open_start: bool
    open_end: bool


def classify_boundary(body: SurfaceBody) -> tuple[BoundaryStratum, ...]:
    """Label the boundary strata of a surface body by valuativity.

    Interior rational points, the left vertical edge below its top point,
    and the lower graph are valuative; the upper graph is non-valuative
    for a very general point on a curve of positive genus and unknown
    otherwise; the right vertical edge is unknown.
    """
    a0, am = body._lower[0], body._lower[-1]
    b0, bm = body._upper[0], body._upper[-1]
    if body.mu == 0:
        return (
            BoundaryStratum(
                "right-edge",
                None,
                "degenerate body: single vertical edge, status unknown",
                (Fraction(0), a0),
                (Fraction(0), b0),
                False,
                False,
            ),
        )
    strata = [
        BoundaryStratum(
            "interior",
            True,
            "rational interior points are valuative",
            (Fraction(0), a0),
            (body.mu, bm),
            True,
            True,
        )
    ]
    if b0 > a0:
        strata.append(
            BoundaryStratum(
                "left-edge",
                True,
                "rational points on the left edge below its top are valuative",
                (Fraction(0), a0),
                (Fraction(0), b0),
                False,
                True,
            )
        )
    strata.append(
        BoundaryStratum(
            "lower-graph",
            True,
            "rational points on the lower edge left of mu are valuative",
            (Fraction(0), a0),
            (body.mu, am),
            False,
            True,
        )
    )
    strata.append(
        BoundaryStratum(
            "upper-graph",
            None,
            "non-valuative for a very general point on a curve of positive "
            "genus; unknown in general",
            (Fraction(0), b0),
            (body.mu, bm),
            b0 == a0,
            True,
        )
    )
    strata.append(
        BoundaryStratum(
            "right-edge",
            None,
            "status unknown on the right edge",
            (body.mu, am),
            (body.mu, bm),
            False,
            False,
        )
    )
    return tuple(strata)
