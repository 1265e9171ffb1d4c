"""Checks of okbody's outputs against the benchmark's own computations.

Nothing here compares against a stored copy of earlier output.  Level
dimensions come from monomial sumsets, value sets of monomial series are
recomputed from the generators (under a flag by workloads.flag_values), 3-d
hulls are compared with scipy's ConvexHull plus exact membership, polygons
are cut and measured with exact code below, and surface decompositions are
checked against their defining laws.  Each check raises CheckError naming
the broken property.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import workloads as W


class CheckError(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# -- exact geometry ----------------------------------------------------------------


def fr(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def vertex_set(poly: dict) -> set[tuple[Fraction, ...]]:
    return {tuple(fr(x) for x in v) for v in poly["vertices"]}


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the convex hull of plane points, counterclockwise, with
    points inside edges dropped (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list = []
    upper: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    if len(ring) == 2 and ring[0] == ring[1]:
        return ring[:1]
    return ring


def hull_1d(values) -> list[tuple[Fraction]]:
    vals = sorted(set(values))
    return [(vals[0],)] if vals[0] == vals[-1] else [(vals[0],), (vals[-1],)]


def shoelace(ring) -> Fraction:
    if len(ring) < 3:
        return Fraction(0)
    twice = sum(
        a[0] * b[1] - b[0] * a[1] for a, b in zip(ring, ring[1:] + ring[:1])
    )
    return abs(twice) / 2


def cut(points, t: Fraction) -> list[tuple[Fraction, ...]]:
    """The section of conv(points) at first coordinate t, with that
    coordinate dropped: the points where segments between two points cross
    the hyperplane."""
    out = set()
    for p in points:
        if p[0] == t:
            out.add(p[1:])
    for p, q in itertools.combinations(points, 2):
        if (p[0] - t) * (q[0] - t) < 0:
            s = (t - p[0]) / (q[0] - p[0])
            out.add(tuple(a + s * (b - a) for a, b in zip(p[1:], q[1:])))
    return sorted(out)


def check_polytope_laws(poly: dict, points=None) -> None:
    """The H- and V-descriptions agree: every vertex satisfies every
    inequality and equation, every inequality is tight on at least affdim
    vertices, and the optional points all lie inside."""
    verts = vertex_set(poly)
    ineqs = [([fr(a) for a in h["normal"]], fr(h["offset"])) for h in poly["inequalities"]]
    eqs = [([fr(a) for a in h["normal"]], fr(h["offset"])) for h in poly["equations"]]
    dot = lambda a, v: sum(x * y for x, y in zip(a, v))  # noqa: E731
    for a, b in ineqs:
        tight = sum(1 for v in verts if dot(a, v) == b)
        expect(all(dot(a, v) <= b for v in verts), "a vertex violates an inequality")
        expect(tight >= max(poly["affdim"], 1), "an inequality is not a facet")
    for a, b in eqs:
        expect(all(dot(a, v) == b for v in verts), "a vertex violates an equation")
    for p in points or ():
        expect(all(dot(a, p) <= b for a, b in ineqs), f"point {p} outside the body")
        expect(all(dot(a, p) == b for a, b in eqs), f"point {p} off the body's span")


# -- level data -------------------------------------------------------------------


def monomial_points(exps, d: int, K: int) -> list[tuple[Fraction, ...]]:
    """Normalized value points v/k of levels 1..K of a monomial series
    under the standard flag: the valuation of a monomial is its exponent
    with the last coordinate dropped."""
    pts = set()
    for k in range(1, K + 1):
        for e in W.sumset(exps, k):
            pts.add(tuple(Fraction(x, k) for x in e[:d]))
    return sorted(pts)


def monomial_dims(exps, K: int) -> list[int]:
    return [len(W.sumset(exps, k)) for k in range(1, K + 1)]


def hilbert_volume(dims: list[int], d: int):
    if not W.hilbert_stabilized(dims, d):
        return None
    for _ in range(d):
        dims = [b - a for a, b in zip(dims, dims[1:])]
    return dims[-1]


def cone_index(exps, d: int) -> int:
    """Index in Z^(d+1) of the group generated by the value points (v, k)
    of a series generated by monomials in level 1."""
    rows = [list(e[:d]) + [1] for e in exps]
    g = 0
    for sub in itertools.combinations(rows, d + 1):
        g = math.gcd(g, W.det(sub))
    return abs(g)


def check_hilbert(payload_h: dict, dims: list[int], d: int) -> None:
    expect(payload_h["dims"] == dims, f"level dimensions {payload_h['dims']} != {dims}")
    hv = hilbert_volume(dims, d)
    expect(payload_h["stabilized"] == (hv is not None), "Hilbert stabilization flag")
    expect(payload_h["volume"] == hv, "Hilbert volume")


def check_body_report(p: dict, dims: list[int], d: int) -> None:
    """Checks common to every `body` payload."""
    check_hilbert(p["hilbert"], dims, d)
    expect(p["semigroup_level_counts"] == dims, "value points per level != level dimension")
    body = p["body"]
    check_polytope_laws(body)
    vol = fr(p["volume"])
    if d == 2:
        ring = hull_2d(vertex_set(body))
        expect(len(ring) == len(body["vertices"]), "a reported vertex is not extreme")
        expect(len(body["inequalities"]) == len(ring), "a polygon edge has no inequality")
        expect(vol == shoelace(ring), "area != shoelace area of the vertices")
    hv = p["hilbert"]["volume"]
    if p["certificate"] == "exact" and hv is not None and p["lattice_index"]:
        expect(
            math.factorial(d) * vol == p["lattice_index"] * hv,
            "d! * vol != index * Hilbert volume",
        )


def to_float(points) -> np.ndarray:
    return np.array([[float(x) for x in p] for p in points])


def primitive(normal, offset) -> tuple:
    """An inequality normal . x <= offset scaled to coprime integers."""
    den = math.lcm(*(Fraction(v).denominator for v in list(normal) + [offset]))
    ints = [int(Fraction(v) * den) for v in list(normal) + [offset]]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def check_3d_hull(body: dict, points) -> float:
    """The vertex set equals the one scipy's ConvexHull picks from the exact
    value points, the facet planes equal the exact planes through its
    triangles, the volumes agree, and every point lies in the body."""
    check_polytope_laws(body, points)
    hull = ConvexHull(to_float(points))
    expected = {points[i] for i in hull.vertices}
    expect(vertex_set(body) == expected, "3-d vertex set differs from ConvexHull")
    planes = set()
    for tri in hull.simplices:
        a, b, c = (points[i] for i in tri)
        u = [y - x for x, y in zip(a, b)]
        v = [y - x for x, y in zip(a, c)]
        n = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        off = sum(x * y for x, y in zip(n, a))
        if any(sum(x * y for x, y in zip(n, p)) > off for p in expected):
            n, off = [-x for x in n], -off
        planes.add(primitive(n, off))
    reported = {
        primitive([fr(a) for a in h["normal"]], fr(h["offset"])) for h in body["inequalities"]
    }
    expect(reported == planes, "3-d facets differ from ConvexHull's")
    return hull.volume


# -- per workload -------------------------------------------------------------------


class Checker:
    """Checks every job's outputs."""

    def __init__(self, workload: str):
        self.workload = workload

    def check(self, job: W.Job, texts: list[str]) -> str | None:
        """None when every output of the job passes, else the failure."""
        try:
            payloads = [envelope(argv, text) for argv, text in zip(job.argvs, texts)]
            getattr(self, self.workload)(job, payloads)
        except CheckError as e:
            return f"{job.key}: {e}"
        except (KeyError, TypeError, ValueError, IndexError) as e:
            return f"{job.key}: malformed output ({type(e).__name__}: {e})"
        return None

    def flag_bodies(self, job: W.Job, payloads: list[dict]) -> None:
        """The job's flag gives the series' generic value sets (the workload
        keeps no other flag), so the body must be their hull: bodies under
        all generic flags of a birational series are equal."""
        (p,) = payloads
        m = job.meta
        check_body_report(p, monomial_dims(m["exps"], m["K"]), m["d"])
        rows = [[f"{v}/1" for v in row] for row in m["flag"]]
        expect(p["flag"] == {"kind": "matrix", "rows": rows}, "flag")
        points = [tuple(Fraction(x, k) for x in v) for k, vs in enumerate(m["values"], 1) for v in vs]
        expect(vertex_set(p["body"]) == set(hull_2d(points)), "body != hull of the generic value sets")

    def hull_3d(self, job: W.Job, payloads: list[dict]) -> None:
        (p,) = payloads
        m = job.meta
        d, K, exps = m["d"], m["K"], m["exps"]
        points = monomial_points(exps, d, K)
        expect(p["certificate"] == "exact", "monomial level-1 series not certified exact")
        if job.argvs[0][0] == "body":
            check_body_report(p, monomial_dims(exps, K), d)
            vol = check_3d_hull(p["body"], points)
            expect(math.isclose(float(fr(p["volume"])), vol, rel_tol=1e-9), "3-d volume")
            return
        t = fr(job.argvs[0][-1])
        check_slice(p, points, restricted_points(exps, d, K, t), t)

    def plane_ops(self, job: W.Job, payloads: list[dict]) -> None:
        m = job.meta
        exps, d = m["exps"], m["d"]
        for argv, p in zip(job.argvs, payloads):
            getattr(self, "po_" + argv[0].replace("-", "_"))(argv, p, exps, d, m)

    # plane_ops commands, one method each

    def po_slice(self, argv, p, exps, d, m):
        K, t = int(argv[3]), fr(argv[5])
        points = monomial_points(exps, d, K)
        check_slice(p, points, restricted_points(exps, d, K, t), t)

    def po_volume(self, argv, p, exps, d, m):
        K = int(argv[3])
        dims = monomial_dims(exps, K)
        check_hilbert(p["hilbert"], dims, d)
        area = shoelace(hull_2d(monomial_points(exps, d, 1)))
        expect(fr(p["volume"]) == area, "volume != shoelace area of the own hull")
        index = cone_index(exps, d)
        expect(p["lattice_index"] == index, "lattice index")
        hv = hilbert_volume(dims, d)
        ident = p["identity"]
        expect(fr(ident["factorial_times_volume"]) == 2 * area, "d! * vol")
        expect(fr(ident["index_times_hilbert_volume"]) == index * hv, "index * Hilbert volume")
        expect(ident["agrees"] and 2 * area == index * hv, "d! * vol = index * Hilbert volume")
        full = p["full_check"]
        bir = W.difference_index(exps) == 1
        empty = locus_is_empty(exps, K)
        volume_full = hv == m["twist"] ** d
        expect(fr(full["volume"]) == hv, "full check volume")
        expect(full["expected_volume"] == m["twist"] ** d, "expected volume")
        expect(full["volume_full"] == volume_full, "volume_full")
        expect(full["birational"] == bir, "full check birationality")
        expect(full["locus_empty"] == empty, "full check locus")
        expect(full["criterion"] == (bir and empty), "criterion")
        expect(full["agree"] == (volume_full == (bir and empty)), "agree")

    def po_fujita(self, argv, p, exps, d, m):
        hull = set(hull_2d(monomial_points(exps, d, 1)))
        expect(vertex_set(p["full_body"]) == hull, "fujita full body != own hull")
        # a series generated in level 1 by monomials has the same body as
        # each of its level-p approximations
        expect(vertex_set(p["approximation"]) == hull, "approximation != own hull")
        check_polytope_laws(p["full_body"], sorted(vertex_set(p["approximation"])))
        expect(p["contained"] is True, "approximation not reported contained")

    def po_sheafify(self, argv, p, exps, d, m):
        K = int(argv[3])
        rows = p["levels"]
        expect([r["level"] for r in rows] == list(range(1, K + 1)), "sheafify levels")
        changed = False
        for r in rows:
            level = W.sumset(exps, r["level"])
            sat = saturation_piece(level, m["twist"] * r["level"])
            expect(r["dim"] == len(level), "sheafify level dimension")
            expect(r["sheafified_dim"] == len(sat), "saturated dimension")
            changed |= len(sat) != len(level)
        expect(p["changed"] == changed, "sheafify changed flag")

    def po_base_locus(self, argv, p, exps, d, m):
        K = int(argv[3])
        comps, gens = base_locus_components(exps, K)
        expect([tuple(c) for c in p["components"]] == comps, "base locus components")
        expect({tuple(g) for g in p["cumulative_generators"]} == gens, "cumulative ideal")
        expect(p["empty"] == all(len(c) == len(exps[0]) for c in comps), "base locus emptiness")
        for row in p["base_ideals"]:
            level = W.sumset(exps, row["level"])
            expect({tuple(g) for g in row["generators"]} == level, "base ideal of a level")

    def po_birational(self, argv, p, exps, d, m):
        index = W.difference_index(exps)
        expect(p["level"] == 1, "birational level")
        expect(p["lattice_index"] == index, "difference lattice index")
        expect(p["birational"] == (index == 1), "birationality")

    def po_filtered_dims(self, argv, p, exps, d, m):
        levels, budget = int(argv[3]), int(argv[5])
        vals = [[e[:d] for e in W.sumset(exps, k)] for k in range(1, levels + 1)]
        sigmas = [
            list(s)
            for r in range(1, d + 1)
            for s in itertools.product(range(budget + 1), repeat=r)
            if sum(s) <= budget
        ]
        expect([row["sigma"] for row in p["table"]] == sigmas, "filtered-dims sigmas")
        for row in p["table"]:
            s = row["sigma"]
            own = [sum(all(v[i] >= s[i] for i in range(len(s))) for v in lv) for lv in vals]
            expect(row["dims"] == own, f"filtered dimensions at sigma {s}")

    def po_surface(self, argv, p, exps, d, m):
        check_surface(p, m["surface"])


def envelope(argv: list[str], text: str) -> dict:
    env = json.loads(text)
    expect(env["schema"] == 1 and env["command"] == argv[0], "envelope header")
    digest = hashlib.sha256(Path(argv[1]).read_bytes()).hexdigest()
    expect(env["input_sha256"] == digest, "input digest")
    return env["payload"]


def check_slice(p: dict, points, restricted, t: Fraction) -> None:
    """Both sides of the slice identity, each recomputed: the body cut at t
    by the code above, and the restricted compound series' points."""
    d = len(points[0])
    if d == 2:
        corners = hull_2d(points)
    else:
        corners = [points[i] for i in ConvexHull(to_float(points)).vertices]
    section = cut(corners, t)
    own_direct = set(hull_2d(section) if d == 3 else hull_1d([s[0] for s in section]))
    own_restricted = set(
        hull_2d(restricted) if d == 3 else hull_1d([s[0] for s in restricted])
    )
    expect(vertex_set(p["direct_slice"]) == own_direct, "direct slice != own cut")
    expect(vertex_set(p["restricted"]["body"]) == own_restricted, "restricted side")
    check_polytope_laws(p["direct_slice"], section)
    expect(p["equal"] == (own_direct == own_restricted), "slice equality verdict")


def restricted_points(exps, d: int, K: int, t: Fraction):
    """Points of 1/b times the body of the restriction of the b-th compound
    series with a flag divisors removed (t = a/b), levels m <= K // b: the
    level b*m monomials with first exponent exactly a*m."""
    a, b = t.numerator, t.denominator
    pts = set()
    for m in range(1, max(1, K // b) + 1):
        for e in W.sumset(exps, b * m):
            if e[0] == a * m:
                pts.add(tuple(Fraction(x, b * m) for x in e[1:d]))
    return sorted(pts)


def saturation_piece(level: set, degree: int) -> set:
    """Degree part of the saturation of the monomial ideal generated by a
    level: monomials that for every variable i are divisible by some
    generator once the i-th exponent is ignored."""
    gens = list(level)
    n = len(gens[0])
    out = set()
    for e in W.exponents(n, degree):
        if all(
            any(all(g[j] <= e[j] for j in range(n) if j != i) for g in gens)
            for i in range(n)
        ):
            out.add(e)
    return out


def _minimal(gens: set) -> set:
    return {
        g for g in gens
        if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)
    }


def base_locus_components(exps, K: int):
    """Components (as sets of vanishing variables) of the common zeros of all
    levels up to K, and the minimal generators of their ideal."""
    gens = _minimal(set().union(*(W.sumset(exps, k) for k in range(1, K + 1))))
    n = len(exps[0])
    supports = [{i for i in range(n) if g[i]} for g in gens]
    comps: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if any(set(c) <= set(combo) for c in comps):
                continue
            if all(set(combo) & s for s in supports):
                comps.append(combo)
    return sorted(comps), gens


def locus_is_empty(exps, K: int) -> bool:
    comps, _ = base_locus_components(exps, K)
    return all(len(c) == len(exps[0]) for c in comps)


def check_surface(p: dict, surface: dict) -> None:
    """Zariski laws for D = P + N: P nef, P.N_i = 0, N negative definite with
    positive multiplicities; volume = P^2, area = P^2 / 2."""
    gram = surface["gram"]
    curves = surface["negative_curves"]
    dot = lambda a, b: sum(  # noqa: E731
        Fraction(a[i]) * gram[i][j] * Fraction(b[j])
        for i in range(len(a)) for j in range(len(b))
    )
    D = [Fraction(x) for x in surface["D"]]
    expect([fr(x) for x in p["divisor"]] == D, "divisor")
    P = [fr(x) for x in p["zariski_at_zero"]["positive"]]
    neg = [(curves[n["curve"]], fr(n["multiplicity"])) for n in p["zariski_at_zero"]["negative"]]
    N = [sum((m * c[i] for c, m in neg), Fraction(0)) for i in range(len(D))]
    expect([a + b for a, b in zip(P, N)] == D, "D != P + N")
    for c in curves + surface["effective_generators"]:
        expect(dot(P, c) >= 0, "P is not nef")
    for c, mult in neg:
        expect(mult > 0, "nonpositive multiplicity")
        expect(dot(P, c) == 0, "P . N_i != 0")
    if neg:
        G = [[dot(a, b) for b, _ in neg] for a, _ in neg]
        minors = [
            DomainMatrix(
                [[QQ(x.numerator, x.denominator) for x in row[:s]] for row in G[:s]], (s, s), QQ
            ).det()
            for s in range(1, len(G) + 1)
        ]
        expect(all((-1) ** s * mnr > 0 for s, mnr in enumerate(minors, 1)), "N not negative definite")
    vol = dot(P, P)
    expect(fr(p["volume"]) == vol, "volume != P^2")
    expect(fr(p["area"]) == vol / 2, "area != P^2 / 2")
    ring = hull_2d(vertex_set(p["polytope"]))
    expect(shoelace(ring) == vol / 2, "surface polygon area != P^2 / 2")
    expect(fr(p["mu"]) == max(v[0] for v in ring), "mu is not the polygon's width")
