"""Surface engine: exact Zariski decompositions over a user-described
intersection lattice and the piecewise linear description of the body of a
big divisor with respect to a flag (curve, point).

The user supplies the Neron-Severi data: Gram matrix, candidate negative
curves, and effective-cone generators.  The engine never discovers curves;
it validates the supplied configuration and fails loudly when the list is
insufficient to certify a decomposition.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .convbody import RationalPolytope
from .errors import InputError, InvariantError
from .exactnum import det, in_cone, integer_row, kernel, maximize

Vec = tuple[Fraction, ...]


def _vec(v: Sequence, rank: int, what: str) -> Vec:
    out = tuple(Fraction(x) for x in v)
    if len(out) != rank:
        raise InputError(f"{what}: expected a class vector of length {rank}")
    return out


class SurfaceLattice:
    """Intersection lattice of a surface with its curve bookkeeping."""

    __slots__ = ("rank", "gram", "negative_curves", "effective_generators")

    def __init__(
        self,
        gram: Sequence[Sequence[int]],
        negative_curves: Sequence[Sequence[int]] = (),
        effective_generators: Sequence[Sequence[int]] = (),
    ):
        rank = len(gram)
        if rank < 1:
            raise InputError("surface lattice: empty Gram matrix")
        G = tuple(tuple(Fraction(x) for x in row) for row in gram)
        if any(len(row) != rank for row in G):
            raise InputError("surface lattice: Gram matrix not square")
        if any(x.denominator != 1 for row in G for x in row):
            raise InputError("surface lattice: Gram matrix not integral")
        G = tuple(tuple(int(x) for x in row) for row in G)
        for i in range(rank):
            for j in range(rank):
                if G[i][j] != G[j][i]:
                    raise InputError("surface lattice: Gram matrix not symmetric")
        self.rank = rank
        self.gram = G
        self.negative_curves = tuple(
            _vec(c, rank, "negative curve") for c in negative_curves
        )
        self.effective_generators = tuple(
            _vec(g, rank, "effective generator") for g in effective_generators
        )
        if not self.effective_generators:
            raise InputError("surface lattice: need effective-cone generators")
        if any(not any(g) for g in self.effective_generators):
            raise InputError("surface lattice: zero effective generator")
        if len(set(self.negative_curves)) != len(self.negative_curves):
            raise InputError("surface lattice: repeated negative curve")
        for c in self.negative_curves:
            if self.dot(c, c) >= 0:
                raise InputError(
                    "surface lattice: listed curve has nonnegative self-intersection"
                )

    def dot(self, a: Sequence, b: Sequence) -> Fraction:
        """a . b for classes of rational (or integer) entries: each class is
        cleared to integers once, and the sum runs over the integer Gram
        matrix."""
        da = math.lcm(*(x.denominator for x in a))
        db = math.lcm(*(x.denominator for x in b))
        ib = [y.numerator * (db // y.denominator) for y in b]
        total = 0
        for x, row in zip(a, self.gram):
            if x:
                total += x.numerator * (da // x.denominator) * sum(
                    g * y for g, y in zip(row, ib) if y
                )
        return Fraction(total, da * db)

    def is_pseudoeffective(self, D: Sequence) -> bool:
        target = _vec(D, self.rank, "divisor")
        return in_cone(self.effective_generators, target) is not None

    def _combines_to(self, weights: Sequence, D: Vec) -> bool:
        """Whether weights are a nonnegative combination of the effective
        generators equal to D: a certificate that D is pseudo-effective."""
        gens = self.effective_generators
        if len(weights) != len(gens) or any(w < 0 for w in weights):
            return False
        return all(
            sum(w * g[r] for w, g in zip(weights, gens) if w) == D[r]
            for r in range(self.rank)
        )

    def __repr__(self) -> str:
        return (
            f"SurfaceLattice(rank={self.rank}, "
            f"curves={len(self.negative_curves)}, "
            f"generators={len(self.effective_generators)})"
        )


class ZariskiDecomposition(NamedTuple):
    """D = P + N with P nef against the listed curves and P orthogonal to
    the support of N."""

    divisor: Vec
    positive: Vec
    negative: tuple[tuple[Vec, Fraction], ...]

    @property
    def support(self) -> tuple[Vec, ...]:
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
        """Verify the defining invariants exactly; raises on violation."""
        N = self.negative_class()
        if tuple(p + n for p, n in zip(self.positive, N)) != self.divisor:
            raise InvariantError("zariski: D != P + N")
        for c, m in self.negative:
            if m <= 0:
                raise InvariantError("zariski: nonpositive multiplicity kept")
            if lattice.dot(self.positive, c) != 0:
                raise InvariantError("zariski: P not orthogonal to supp N")
        for c in lattice.negative_curves:
            if lattice.dot(self.positive, c) < 0:
                raise InvariantError("zariski: P negative against a listed curve")
        supp = self.support
        if supp and not _negative_definite(lattice, supp):
            raise InvariantError("zariski: support Gram not negative definite")


def _negative_definite(lattice: SurfaceLattice, curves: Sequence[Vec]) -> bool:
    # alternating signs of leading principal minors
    k = len(curves)
    G = [[lattice.dot(a, b) for b in curves] for a in curves]
    for s in range(1, k + 1):
        minor = [row[:s] for row in G[:s]]
        if (-1) ** s * det(minor) <= 0:
            return False
    return True


def _solve_support(
    lattice: SurfaceLattice, supp: list[int], rhs: list[Fraction]
) -> list[Fraction]:
    """The multiplicities x with sum_j x_j (C_i . C_j) = rhs_i over the
    support curves C_i: the kernel of [G | -rhs] is one vector (x w, w),
    w != 0, exactly when the support Gram matrix G is nonsingular."""
    curves = [lattice.negative_curves[i] for i in supp]
    rows = [
        integer_row([lattice.dot(a, b) for b in curves] + [-r])
        for a, r in zip(curves, rhs)
    ]
    ker = kernel(rows, len(curves) + 1)
    if len(ker) != 1 or not ker[0][-1]:
        raise InputError(
            "zariski: support intersection matrix is singular; "
            "check the negative-curve list"
        )
    *v, w = ker[0]
    return [Fraction(x, w) for x in v]


def _positive_part(
    lattice: SurfaceLattice, supp: list[int], X: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """(m, P) with P = X - sum m_i C_i orthogonal to the support curves C_i;
    on the empty support, m = [] and P = X."""
    curves = lattice.negative_curves
    m = (
        _solve_support(lattice, supp, [lattice.dot(X, curves[i]) for i in supp])
        if supp
        else []
    )
    P = list(X)
    for i, x in zip(supp, m):
        for j in range(lattice.rank):
            P[j] -= x * curves[i][j]
    return m, P


def zariski(
    lattice: SurfaceLattice, D: Sequence, witness: Sequence | None = None
) -> ZariskiDecomposition:
    """Zariski decomposition of a pseudo-effective class.

    Grows the support of the negative part to a fixpoint: starting from the
    empty support, take the positive part on the support, then admit every
    curve it still meets negatively.
    A witness, weights on the effective generators, is checked exactly;
    when it is absent or does not combine to D, an LP decides whether D is
    pseudo-effective.
    """
    D = _vec(D, lattice.rank, "divisor")
    certified = witness is not None and lattice._combines_to(witness, D)
    if not certified and not lattice.is_pseudoeffective(D):
        raise InputError("zariski: divisor is not pseudo-effective")
    curves = lattice.negative_curves
    supp: list[int] = []
    while True:
        coeffs, P = _positive_part(lattice, supp, D)
        entering = [
            i
            for i, c in enumerate(curves)
            if i not in supp and lattice.dot(P, c) < 0
        ]
        if not entering:
            break
        supp.extend(entering)
    if any(m < 0 for m in coeffs):
        raise InputError(
            "zariski: negative multiplicity in the fixpoint; "
            "the negative-curve list is inconsistent"
        )
    kept = [(i, m) for i, m in zip(supp, coeffs) if m > 0]
    kept.sort()
    support_curves = [curves[i] for i, _ in kept]
    if support_curves and not _negative_definite(lattice, support_curves):
        raise InputError(
            "zariski: support Gram matrix not negative definite; "
            "check the negative-curve list"
        )
    positive = tuple(P)
    for g in lattice.effective_generators:
        if lattice.dot(positive, g) < 0:
            raise InputError(
                "zariski: negative-curve list insufficient; the positive part "
                "still meets an effective class negatively"
            )
    return ZariskiDecomposition(
        divisor=D,
        positive=positive,
        negative=tuple((curves[i], m) for i, m in kept),
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
    return _threshold(lattice, zariski(lattice, D), C)[0]


def _threshold(
    lattice: SurfaceLattice, dec: ZariskiDecomposition, C: Vec
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """mu of the divisor D of a Zariski decomposition, whose positive part
    shows whether D is big, with two cone witnesses: weights y on the
    effective generators with D = y + mu C, and weights z with C = z.  For
    0 <= t <= mu, y + (mu - t) z then combines to D - tC."""
    if lattice.dot(dec.positive, dec.positive) <= 0:
        raise InputError("mu: divisor is not big")
    gens = lattice.effective_generators
    z = in_cone(gens, C)
    if z is None:
        raise InputError("mu: flag curve is not an effective class")
    # columns: one multiplier per generator, then t; rows: class equality
    A = [
        [g[r] for g in gens] + [C[r]]
        for r in range(lattice.rank)
    ]
    c = [Fraction(0)] * len(gens) + [Fraction(1)]
    status, x, value = maximize(A, list(dec.divisor), c)
    if status == "unbounded":
        raise InputError("mu: effective threshold unbounded; degenerate cone data")
    if status != "optimal":
        raise InvariantError("mu: threshold LP infeasible for an effective class")
    return value, x[: len(gens)], z


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
    """Piecewise linear description {(t, y): 0 <= t <= mu, a(t) <= y <= b(t)}."""

    __slots__ = (
        "mu",
        "segments",
        "breakpoints",
        "point_multiplicities",
        "mu_note",
        "divisor",
        "curve",
        "decomposition",
    )

    def __init__(
        self,
        mu_value: Fraction,
        segments: tuple[Segment, ...],
        point_multiplicities: tuple[tuple[Vec, int], ...],
        mu_note: str,
        divisor: Vec,
        curve: Vec,
        decomposition: ZariskiDecomposition,
    ):
        self.mu = mu_value
        self.segments = segments
        self.breakpoints = tuple(s.t0 for s in segments) + (mu_value,)
        self.point_multiplicities = point_multiplicities
        self.mu_note = mu_note
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
        total = Fraction(0)
        for seg in self.segments:
            h0 = _affine_eval(seg.beta, seg.t0) - _affine_eval(seg.alpha, seg.t0)
            h1 = _affine_eval(seg.beta, seg.t1) - _affine_eval(seg.alpha, seg.t1)
            total += (h0 + h1) * (seg.t1 - seg.t0) / 2
        return total

    def polytope(self) -> RationalPolytope:
        pts = []
        for t in self.breakpoints:
            pts.append((t, self.alpha(t)))
            pts.append((t, self.beta(t)))
        return RationalPolytope.from_points(pts)

    def __repr__(self) -> str:
        return (
            f"SurfaceBody(mu={self.mu}, segments={len(self.segments)}, "
            f"area={self.area()})"
        )


def _entering(levels: dict, t: Fraction) -> list[int]:
    """The curves that join the support at time t: those whose level
    (v0, v1), with P(t) . G = v0 + t v1, has (v0 + t v1, v1) < (0, 0), so
    that P(t) . G is negative or turns negative at t."""
    return [j for j, (v0, v1) in levels.items() if (v0 + t * v1, v1) < (0, 0)]


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
    the upper edge adds C . P_t.
    """
    D = _vec(D, lattice.rank, "divisor")
    C = _vec(C, lattice.rank, "flag curve")
    curves = lattice.negative_curves
    mults = [0] * len(curves)
    echo: list[tuple[Vec, int]] = []
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
            if k != C and m > lattice.dot(k, C):
                raise InputError(
                    "surface body: point multiplicity exceeds G . C for a curve G"
                )
            mults[hits[0]] = int(m)
            if m:
                echo.append((k, int(m)))
    # one decomposition of D serves the bigness check of mu, the start of
    # the continuation and the body's record of it
    start = zariski(lattice, D)
    mu_value, y, z = _threshold(lattice, start, C)

    supp = sorted(
        i for i, c in enumerate(curves) if start.multiplicity(c) > 0
    )
    segments: list[Segment] = []
    t_cur = Fraction(0)
    guard = 0
    while True:
        guard += 1
        if guard > 4 * len(curves) + 8:
            raise InvariantError("surface body: continuation failed to terminate")
        # on this support the multiplicities c0 + t c1 and the positive part
        # P0 + t P1 of D - tC are affine in t, and so is the level
        # (P0 . G, P1 . G) of each curve G off the support
        c0, P0 = _positive_part(lattice, supp, D)
        c1, P1 = _positive_part(lattice, supp, [-x for x in C])
        levels = {
            j: (lattice.dot(P0, c), lattice.dot(P1, c))
            for j, c in enumerate(curves)
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
        roots = [-v0 / v1 for v0, v1 in levels.values() if v1 < 0]
        t_next = min([r for r in roots if r > t_cur] + [mu_value])
        for a, b in zip(c0, c1):
            if (a + t_cur * b, b) < (0, 0) or a + t_next * b < 0:
                raise InvariantError(
                    "surface body: negative-part support decreased; "
                    "parametric continuation aborted"
                )

        a_slope = sum((b * mults[i] for i, b in zip(supp, c1)), Fraction(0))
        a_icpt = sum((a * mults[i] for i, a in zip(supp, c0)), Fraction(0))
        b_slope = a_slope + lattice.dot(C, P1)
        b_icpt = a_icpt + lattice.dot(C, P0)
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
        expected = {curves[i]: a + t_mid * b for i, a, b in zip(supp, c0, c1)}
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
        mu_note=(
            "mu is the exact effective threshold; the body is the closure "
            "of the big range"
        ),
        divisor=D,
        curve=C,
        decomposition=start,
    )
    _check_body(body)
    return body


def _check_body(body: SurfaceBody) -> None:
    segs = body.segments
    for s in segs:
        if _affine_eval(s.alpha, s.t0) > _affine_eval(s.beta, s.t0) or _affine_eval(
            s.alpha, s.t1
        ) > _affine_eval(s.beta, s.t1):
            raise InvariantError("surface body: lower edge above upper edge")
    for prev, nxt in zip(segs, segs[1:]):
        if prev.t1 != nxt.t0:
            raise InvariantError("surface body: segment gap")
        if _affine_eval(prev.alpha, prev.t1) != _affine_eval(nxt.alpha, nxt.t0):
            raise InvariantError("surface body: lower edge discontinuous")
        if _affine_eval(prev.beta, prev.t1) != _affine_eval(nxt.beta, nxt.t0):
            raise InvariantError("surface body: upper edge discontinuous")
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
    a0, b0 = body.alpha(0), body.beta(0)
    am, bm = body.alpha(body.mu), body.beta(body.mu)
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
