"""End-to-end acceptance checks, one criterion per test.

Every test prints a single [PASS]/[FAIL] line on the real terminal (capture
is bypassed) so a full run shows one verdict per criterion, then asserts.
The corpus files under corpus/ are the inputs; expected values are frozen
from independent derivations recorded alongside each check.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from okbody import (
    Flag,
    GradedSeries,
    HomogeneousForm,
    MonomialIdeal,
    RationalPolytope,
    SurfaceLattice,
    filtered_dimension,
    is_birational_monomial,
    okounkov_body,
    sheafify,
    stable_base_locus,
    surface_body,
    valuative_witness,
    valuation,
    zariski,
)
from okbody.exactnum import (
    det,
    hermite_normal_form,
    lattice_index,
    smith_normal_form,
)
from okbody.monideal import locus_components
from okbody.surfacezar import volume as surface_volume
from okbody.cli import _slice_sides, load_json, parse_series
from oracles import value_points

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

_SERIES_CACHE: dict[str, GradedSeries] = {}


def corpus_series(name: str) -> GradedSeries:
    if name not in _SERIES_CACHE:
        data, _ = load_json(CORPUS / f"{name}.json")
        _SERIES_CACHE[name] = parse_series(data, where="series")
    return _SERIES_CACHE[name]


ALL_SERIES = [
    "p1_o1_complete",
    "p2_o1_complete",
    "p2_o2_complete",
    "p3_o1_complete",
    "p2_except_x2x3",
    "p2_o2_cremona",
    "p2_o2_squares",
    "p2_o2_x1_fixed",
    "p2_o2_no_x3sq",
]


@pytest.fixture
def announce(capsys):
    def _report(name: str, failures: list[str], detail: str) -> None:
        ok = not failures
        text = detail if ok else "; ".join(failures)
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {text}", flush=True)
        assert ok, f"{name}: {text}"

    return _report


def check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def body_of(points) -> RationalPolytope:
    return RationalPolytope.from_points([tuple(map(Fraction, p)) for p in points])


def lcm_denominator(point) -> int:
    q = 1
    for x in point:
        q = q * x.denominator // math.gcd(q, x.denominator)
    return q


def interior_rationals(body: RationalPolytope, maxden: int):
    """Relative-interior points whose coordinate denominators have lcm <= maxden."""
    d = body.n
    lo = [min(v[i] for v in body.vertices) for i in range(d)]
    hi = [max(v[i] for v in body.vertices) for i in range(d)]
    seen = set()
    for q in range(1, maxden + 1):
        ranges = [
            range(int(lo[i] * q) - 1, int(hi[i] * q) + 2) for i in range(d)
        ]
        for nums in product(*ranges):
            p = tuple(Fraction(n, q) for n in nums)
            if p in seen:
                continue
            seen.add(p)
            if body.contains_point(p, strictly=True):
                yield p


# ---------------------------------------------------------------------------
# EX-1: the running example, end to end


def test_ex1_running_example(announce):
    failures: list[str] = []
    S = corpus_series("p2_except_x2x3")
    rep = okounkov_body(S, Flag.standard(2), 8)

    expected = body_of([(0, 0), (2, 0), (0, 2)])
    check(failures, rep.body == expected, "body != conv{(0,0),(2,0),(0,2)}")
    check(failures, rep.certificate == "exact", f"certificate {rep.certificate}")

    check(failures, rep.lattice_index == 1, f"group index {rep.lattice_index}")

    check(failures, rep.hilbert.stabilized, "Hilbert growth not stabilized")
    check(failures, rep.hilbert.volume == 4, f"Hilbert volume {rep.hilbert.volume}")

    check(
        failures,
        2 * rep.body.volume(ambient=True) == 4,
        f"2 * vol = {2 * rep.body.volume(ambient=True)} != 4",
    )

    bir = is_birational_monomial(S)
    check(failures, bir.birational and bir.index == 1, "level map not birational")

    sheaf = sheafify(S, 6)
    lvl1 = sheaf.level(1)
    check(
        failures,
        (0, 1, 1) in lvl1.pivots,
        "sheafification misses the dropped monomial at level 1",
    )
    check(failures, lvl1.dim == 6, f"sheafified level-1 dim {lvl1.dim} != 6")

    announce(
        "EX-1",
        failures,
        "triangle body, exact, index 1, volumes 4 = 4, birational, "
        "sheafification completes level 1",
    )


# ---------------------------------------------------------------------------
# VAL-1: interior rational points carry witnesses at the constructive level


def test_val1_valuative_witnesses(announce):
    failures: list[str] = []
    names = [
        "p1_o1_complete",
        "p2_o1_complete",
        "p2_except_x2x3",
        "p2_o2_cremona",
        "p3_o1_complete",
    ]
    total = 0
    for name in names:
        S = corpus_series(name)
        flag = Flag.standard(S.d)
        rep = okounkov_body(S, flag, 6)
        check(failures, rep.certificate == "exact", f"{name}: not exact")
        points = sorted(set(interior_rationals(rep.body, 4)))
        check(failures, points, f"{name}: no interior points to test")
        for p in points:
            total += 1
            q = lcm_denominator(p)
            found = valuative_witness(S, flag, 4 * q, p)
            if found is None:
                failures.append(f"{name}: no witness for {p}")
                continue
            v, k, section = found
            # generators live at level one, so the combination section of
            # the hull proof sits at the level of the common denominator
            check(failures, k <= q, f"{name}: witness for {p} at level {k} > {q}")
            check(
                failures,
                valuation(section, flag) == v,
                f"{name}: witness valuation mismatch at {p}",
            )
            check(
                failures,
                tuple(Fraction(x, k) for x in v) == p,
                f"{name}: witness normalizes to the wrong point at {p}",
            )
            check(
                failures,
                section.degree == k * S.twist,
                f"{name}: witness degree off at {p}",
            )
    announce(
        "VAL-1",
        failures,
        f"{total} interior rational points (denominator lcm <= 4) across "
        f"{len(names)} exact series, all witnessed at level <= denominator",
    )


# ---------------------------------------------------------------------------
# SLC-1: slices agree with the twisted-down compound restriction


def slice_values(series: GradedSeries) -> list[Fraction]:
    out = []
    for b in (1, 2, 3):
        for a in range(1, b * series.twist):
            t = Fraction(a, b)
            if t.denominator == b and 0 < t < series.twist:
                out.append(t)
    return sorted(set(out))


def test_slc1_slice_identity(announce):
    failures: list[str] = []
    checked = 0
    for name in ALL_SERIES:
        S = corpus_series(name)
        flag = Flag.standard(S.d)
        K = 4 if S.d == 3 else 6
        rep = okounkov_body(S, flag, K)
        for t in slice_values(S):
            direct = rep.body.slice_at(0, t)
            if direct.is_empty:
                continue
            probe = tuple(
                [t]
                + [
                    sum(v[i] for v in direct.vertices) / len(direct.vertices)
                    for i in range(direct.n)
                ]
            )
            if not rep.body.contains_point(probe, strictly=True):
                continue
            checked += 1
            if S.d == 1:
                # the restriction lives on the flag point; the identity just
                # says the slice is that single point of R^0
                check(
                    failures,
                    direct.vertices == ((),),
                    f"{name}: t={t} slice is not the point",
                )
                continue
            _, direct2, _, restricted = _slice_sides(S, flag, t, K)
            check(failures, direct2 == direct, f"{name}: t={t} direct mismatch")
            check(
                failures,
                direct == restricted,
                f"{name}: t={t} slice != compound restriction",
            )
    check(failures, checked >= 20, f"only {checked} slices met the interior")
    announce(
        "SLC-1",
        failures,
        f"{checked} interior slices with denominators <= 3 match the "
        "twisted-down compound restriction",
    )


# ---------------------------------------------------------------------------
# SLC-2: integral twists translate the upper slice of the body


def test_slc2_integral_twist_translation(announce):
    failures: list[str] = []
    names = [n for n in ALL_SERIES if corpus_series(n).twist >= 2]
    check(failures, len(names) >= 4, "too few twist >= 2 series in corpus")
    for name in names:
        S = corpus_series(name)
        flag = Flag.standard(S.d)
        K = 6
        eps = 1
        rep = okounkov_body(S, flag, K)
        normal = (Fraction(-1),) + (Fraction(0),) * (S.d - 1)
        upper = rep.body.intersect_halfspace(normal, Fraction(-eps))
        sub = okounkov_body(S.subtract_flag_divisor(eps), flag, K)
        shift = (Fraction(eps),) + (Fraction(0),) * (S.d - 1)
        translated = sub.body.translate(shift)
        check(
            failures,
            upper == translated,
            f"{name}: {{nu1 >= {eps}}} slice != translated subtracted body",
        )
    announce(
        "SLC-2",
        failures,
        f"{len(names)} series: body cut at nu1 >= 1 equals the subtracted "
        "series body translated by e1",
    )


# ---------------------------------------------------------------------------
# SLC-3: the boundary slice at t = 0 and the compound approximations


def test_slc3_zero_slice_and_approximations(announce):
    failures: list[str] = []
    empty_locus = []
    for name in ALL_SERIES:
        S = corpus_series(name)
        if S.d >= 2 and stable_base_locus(S, 6).empty:
            empty_locus.append(name)
    check(failures, len(empty_locus) >= 3, "too few empty-locus series")

    for name in empty_locus:
        S = corpus_series(name)
        K = 4 if S.d == 3 else 6
        rep = okounkov_body(S, Flag.standard(S.d), K)
        direct = rep.body.slice_at(0, Fraction(0))
        restricted = okounkov_body(
            S.restrict_to_flag_divisor(), Flag.standard(S.d - 1), K
        )
        check(
            failures,
            direct == restricted.body,
            f"{name}: zero slice != restricted-series body",
        )

    for name in ("p2_except_x2x3", "p2_o2_cremona", "p2_o2_no_x3sq"):
        S = corpus_series(name)
        flag = Flag.standard(S.d)
        full = okounkov_body(S, flag, 6).body
        bodies = {}
        for p in (1, 2, 4):
            sub = okounkov_body(S.fujita_subseries(p), flag, max(2, 8 // p))
            bodies[p] = sub.body.scaled(Fraction(1, p))
        for p, pp in ((1, 2), (1, 4), (2, 4)):
            check(
                failures,
                bodies[pp].contains(bodies[p]),
                f"{name}: level-{p} approximation not inside level-{pp}",
            )
        for p in (1, 2, 4):
            check(
                failures,
                full.contains(bodies[p]),
                f"{name}: level-{p} approximation escapes the body",
            )
    announce(
        "SLC-3",
        failures,
        f"zero slices match restrictions on {len(empty_locus)} empty-locus "
        "series; compound approximations form a chain inside the body",
    )


# ---------------------------------------------------------------------------
# BAS-1: the origin sits in the body iff the flag center avoids the locus


def centered_flag(d: int, j: int) -> Flag:
    """Coordinate flag whose point is the j-th coordinate point."""
    order = [i for i in range(d + 1) if i != j] + [j]
    rows = [[Fraction(i == col) for col in range(d + 1)] for i in order]
    return Flag(rows)


def test_bas1_origin_vs_base_locus(announce):
    failures: list[str] = []
    names = ["p2_except_x2x3", "p2_o2_cremona", "p2_o2_x1_fixed", "p2_o2_no_x3sq"]
    in_locus = 0
    off_locus = 0
    for name in names:
        S = corpus_series(name)
        locus = stable_base_locus(S, 6)
        for j in range(S.d + 1):
            point = tuple(Fraction(i == j) for i in range(S.d + 1))
            based = locus.contains_point(point)
            rep = okounkov_body(S, centered_flag(S.d, j), 6)
            origin = (Fraction(0),) * S.d
            has_origin = rep.body.contains_point(origin)
            if based:
                in_locus += 1
            else:
                off_locus += 1
            check(
                failures,
                has_origin == (not based),
                f"{name}: center {j}: origin in body {has_origin}, "
                f"in locus {based}",
            )
    check(failures, in_locus >= 3, "no centers inside a base locus")
    check(failures, off_locus >= 3, "no centers off the base loci")
    announce(
        "BAS-1",
        failures,
        f"{in_locus + off_locus} coordinate centers over {len(names)} series "
        f"({in_locus} in a locus, {off_locus} outside), equivalence holds "
        "both ways",
    )


# ---------------------------------------------------------------------------
# VOL-1: one volume rule across every certified-exact corpus series


def test_vol1_volume_identity(announce):
    failures: list[str] = []
    for name in ALL_SERIES:
        S = corpus_series(name)
        rep = okounkov_body(S, Flag.standard(S.d), 4)
        check(failures, rep.certificate == "exact", f"{name}: not exact")
        hd = S.hilbert_data(S.d + 4)
        check(failures, hd.stabilized, f"{name}: Hilbert growth unsettled")
        if not hd.stabilized or rep.lattice_index is None:
            continue
        lhs = math.factorial(S.d) * rep.body.volume(ambient=True)
        rhs = rep.lattice_index * hd.volume
        check(failures, lhs == rhs, f"{name}: d!*vol {lhs} != index*growth {rhs}")
    announce(
        "VOL-1",
        failures,
        f"d! * vol(body) == lattice index * stabilized Hilbert volume on all "
        f"{len(ALL_SERIES)} exact corpus series",
    )


# ---------------------------------------------------------------------------
# PUN-1: puncturing at a general point


def test_pun1_puncture(announce):
    failures: list[str] = []
    S = corpus_series("p2_except_x2x3")
    x = (Fraction(1), Fraction(1), Fraction(1))
    Sx = S.puncture(x)
    flag = Flag.standard(2)
    K = 6

    rep = okounkov_body(S, flag, K)
    repx = okounkov_body(Sx, flag, K)

    # (a) witness shift: s0 = X1^2 - X2^2 vanishes at x with value (0, 2)
    s0 = HomogeneousForm(3, {(2, 0, 0): 1, (0, 2, 0): -1})
    check(failures, s0.evaluate(x) == 0, "witness section misses x")
    v0 = valuation(s0, flag)
    check(failures, v0 == (0, 2), f"witness value {v0}")
    levelsx = value_points(Sx, flag, K + 1)
    for k, vs in value_points(S, flag, K).items():
        for v in vs:
            shifted = tuple(a + b for a, b in zip(v, v0))
            check(
                failures,
                shifted in levelsx[k + 1],
                f"shifted value point {shifted} missing at level {k + 1}",
            )

    # (b) the punctured body sits inside the original at equal truncation
    check(failures, rep.body.contains(repx.body), "punctured body escapes")

    # (c) equal lattice index
    check(
        failures,
        rep.lattice_index == repx.lattice_index == 1,
        f"indices {rep.lattice_index} vs {repx.lattice_index}",
    )

    # (d) strictly larger vanishing locus: every punctured level dies at x,
    # while the original series has a section alive there
    for k in range(1, K + 1):
        span = Sx.level(k)
        check(failures, span.dim == S.level(k).dim - 1, f"level {k} codim != 1")
        check(
            failures,
            all(f.evaluate(x) == 0 for f in span.basis),
            f"level {k} has a section alive at x",
        )
    check(
        failures,
        any(f.evaluate(x) != 0 for f in S.level(1).basis),
        "original series vanishes at x too",
    )
    check(failures, stable_base_locus(S, K).empty, "original locus not empty")

    announce(
        "PUN-1",
        failures,
        "value points shift by the witness, punctured body contained, "
        "index preserved, vanishing locus strictly grows",
    )


# ---------------------------------------------------------------------------
# SUR-1: the plane conic body from the surface engine


def test_sur1_plane_conic(announce):
    failures: list[str] = []
    started = time.monotonic()
    lattice = SurfaceLattice([[1]], (), [(1,)])
    body = surface_body(lattice, (2,), (1,))
    elapsed = time.monotonic() - started

    check(failures, body.mu == 2, f"mu {body.mu}")
    check(
        failures,
        all(seg.alpha == (0, 0) for seg in body.segments),
        "lower boundary not identically zero",
    )
    check(
        failures,
        all(seg.beta == (-1, 2) for seg in body.segments),
        "upper boundary != 2 - t",
    )
    check(failures, body.area() == 2, f"area {body.area()}")
    check(
        failures,
        body.area() * 2 == surface_volume(lattice, (2,)),
        "area != volume / 2",
    )
    toric = okounkov_body(corpus_series("p2_o2_complete"), Flag.standard(2), 6)
    check(failures, body.polytope() == toric.body, "engines disagree on the body")
    check(failures, elapsed < 1.0, f"took {elapsed:.2f}s")
    announce(
        "SUR-1",
        failures,
        f"mu 2, boundaries 0 and 2 - t, area 2, matches the toric body, "
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# SUR-2: randomized decompositions on blow-up lattices


def random_blowup(rng: random.Random):
    r = rng.randint(1, 3)
    rank = r + 1
    gram = [
        [0 if i != j else (1 if i == 0 else -1) for j in range(rank)]
        for i in range(rank)
    ]
    curves = []
    for i in range(1, rank):
        e = [0] * rank
        e[i] = 1
        curves.append(tuple(e))
    for i, j in combinations(range(1, rank), 2):
        line = [1] + [0] * r
        line[i] = -1
        line[j] = -1
        curves.append(tuple(line))
    hyperplane = tuple([1] + [0] * r)
    generators = curves + [hyperplane]
    lattice = SurfaceLattice(gram, curves, generators)
    while True:
        coeffs = [rng.randint(0, 3) for _ in generators]
        if any(coeffs):
            break
    D = tuple(
        sum(c * g[i] for c, g in zip(coeffs, generators)) for i in range(rank)
    )
    return lattice, gram, curves, generators, D


def test_sur2_randomized_decompositions(announce):
    failures: list[str] = []
    rng = random.Random(20240917)
    for trial in range(10):
        lattice, gram, curves, generators, D = random_blowup(rng)
        dec = zariski(lattice, D)
        try:
            dec.check(lattice)
        except Exception as exc:  # InvariantError carries the violated law
            failures.append(f"trial {trial}: {exc}")
            continue
        shuffled = rng.sample(curves, len(curves))
        dec2 = zariski(SurfaceLattice(gram, shuffled, generators), D)
        check(
            failures,
            dec2.positive == dec.positive
            and dict(dec2.negative) == dict(dec.negative),
            f"trial {trial}: decomposition depends on curve order",
        )
        check(
            failures,
            surface_volume(lattice, D) == lattice.dot(dec.positive, dec.positive),
            f"trial {trial}: volume != P.P",
        )
    announce(
        "SUR-2",
        failures,
        "10 random blow-up divisors: all four decomposition laws hold and "
        "the result is curve-order independent",
    )


# ---------------------------------------------------------------------------
# GEN-1: generic flags agree, in bodies and in filtered dimensions


def test_gen1_generic_flags(announce):
    failures: list[str] = []
    started = time.monotonic()
    sigmas = [
        s
        for length in (1, 2)
        for s in product(range(5), repeat=length)
        if sum(s) <= 4
    ]
    for name in ("p2_except_x2x3", "p2_o2_cremona"):
        S = corpus_series(name)
        check(
            failures,
            is_birational_monomial(S).birational,
            f"{name}: not birational",
        )
        flags = [Flag.random(S.d, seed=seed) for seed in range(1, 6)]
        bodies = [okounkov_body(S, fl, 8).body for fl in flags]
        for i, b in enumerate(bodies[1:], start=2):
            check(
                failures,
                b == bodies[0],
                f"{name}: seed {i} body differs from seed 1",
            )
        tables = []
        for fl in flags:
            view = S.under_flag(fl)
            tables.append(
                {
                    (s, k): filtered_dimension(view.level(k), s)
                    for k in range(1, 7)
                    for s in sigmas
                }
            )
        for i, tab in enumerate(tables[1:], start=2):
            check(
                failures,
                tab == tables[0],
                f"{name}: seed {i} filtered dimensions differ",
            )
    elapsed = time.monotonic() - started
    check(failures, elapsed < 60.0, f"took {elapsed:.1f}s")
    announce(
        "GEN-1",
        failures,
        f"2 birational series x 5 generic flags: equal bodies and equal "
        f"filtered-dimension tables ({len(sigmas)} filters x 6 levels), "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# GEN-3: generic flags agree on a birational monomial series in P^3


def test_gen3_generic_flags_in_p3(announce):
    failures: list[str] = []
    started = time.monotonic()
    exponents = [(0, 0, 1, 1), (0, 0, 2, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)]
    S = GradedSeries.generated(3, 2, [HomogeneousForm.monomial(4, e) for e in exponents])
    check(failures, is_birational_monomial(S).birational, "not birational")
    bodies = [okounkov_body(S, Flag.random(3, seed), 8).body for seed in range(1, 6)]
    for seed, b in enumerate(bodies[1:], start=2):
        check(failures, b == bodies[0], f"seed {seed} body differs from seed 1")
    elapsed = time.monotonic() - started
    check(failures, elapsed < 5.0, f"took {elapsed:.1f}s")
    announce(
        "GEN-3",
        failures,
        f"the P^3 series X3X4, X3^2, X2X4, X2X3, X1X3 x 5 generic flags at "
        f"K=8: equal bodies with {len(bodies[0].vertices)} vertices, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# PROP-1: 200 seeded random instances across the module invariant suites


def prop_exactnum(rng: random.Random, count: int, failures: list[str]) -> int:
    done = 0
    for trial in range(count):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        H, U = hermite_normal_form(M)
        ok = abs(det([[Fraction(x) for x in row] for row in U])) == 1
        prod = [
            [sum(U[i][k] * M[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(rows)
        ]
        ok = ok and prod == H
        ok = ok and hermite_normal_form(H)[0] == H
        factors = smith_normal_form(M)
        nonzero = [f for f in factors if f]
        ok = ok and all(
            nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1)
        )
        if rows == cols:
            dd = det([[Fraction(x) for x in row] for row in M])
            if dd:
                product_of_factors = math.prod(nonzero)
                ok = ok and lattice_index(M, cols) == abs(dd)
                ok = ok and product_of_factors == abs(dd)
        if not ok:
            failures.append(f"exactnum trial {trial}")
        done += 1
    return done


def prop_flagval(rng: random.Random, count: int, failures: list[str]) -> int:
    done = 0
    for trial in range(count):
        d = rng.randint(1, 3)
        flag = Flag.random(d, seed=rng.randint(1, 10_000))

        def random_form() -> HomogeneousForm:
            degree = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                cuts = sorted(rng.randint(0, degree) for _ in range(d))
                e = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
                terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-3, 3)
            terms = {e: c for e, c in terms.items() if c}
            if not terms:
                terms = {(degree,) + (0,) * d: 1}
            return HomogeneousForm(d + 1, terms)

        f, g = random_form(), random_form()
        vf, vg = valuation(f, flag), valuation(g, flag)
        ok = valuation(f * g, flag) == tuple(a + b for a, b in zip(vf, vg))
        if not ok:
            failures.append(f"flagval trial {trial}: additivity fails")
        done += 1
    return done


def prop_convbody(rng: random.Random, count: int, failures: list[str]) -> int:
    done = 0
    for trial in range(count):
        d = rng.randint(1, 3)
        pts = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            for _ in range(rng.randint(1, 6))
        ]
        body = RationalPolytope.from_points(pts)
        ok = all(body.contains_point(p) for p in pts)
        ok = ok and set(body.vertices) <= set(pts)
        weights = [Fraction(rng.randint(0, 5)) for _ in pts]
        if sum(weights):
            total = sum(weights)
            combo = tuple(
                sum(w * p[i] for w, p in zip(weights, pts)) / total
                for i in range(d)
            )
            ok = ok and body.contains_point(combo)
        shift = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        moved = body.translate(shift)
        ok = ok and moved.volume() == body.volume()
        ok = ok and all(
            moved.contains_point(tuple(a + b for a, b in zip(p, shift)))
            for p in pts
        )
        if not ok:
            failures.append(f"convbody trial {trial}")
        done += 1
    return done


def prop_glseries(rng: random.Random, count: int, failures: list[str]) -> int:
    done = 0
    for trial in range(count):
        twist = rng.randint(1, 2)
        exps = set()
        for _ in range(rng.randint(2, 4)):
            a = rng.randint(0, twist)
            b = rng.randint(0, twist - a)
            exps.add((a, b, twist - a - b))
        gens = [HomogeneousForm.monomial(3, e) for e in sorted(exps)]
        S = GradedSeries.generated(2, twist, {1: gens})
        dims = S.dims(6)
        b = rng.randint(1, 2)
        compound = S.veronese(b)
        ok = all(compound.level(k).dim == dims[b * k - 1] for k in range(1, 3))
        flag = Flag.random(2, seed=rng.randint(1, 10_000))
        view = S.under_flag(flag)
        ok = ok and all(view.level(k).dim == dims[k - 1] for k in range(1, 5))
        ok = ok and [len(keys) for keys in S.value_levels(4)] == dims[:4]
        if not ok:
            failures.append(f"glseries trial {trial}")
        done += 1
    return done


def prop_monideal(rng: random.Random, count: int, failures: list[str]) -> int:
    done = 0
    for trial in range(count):
        nvars = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 4)):
            gens.append(tuple(rng.randint(0, 2) for _ in range(nvars)))
        ideal = MonomialIdeal(nvars, [g for g in gens if any(g)] or [(1,) * nvars])
        sat = ideal.saturate()
        ok = sat.saturate() == sat
        ok = ok and all(sat.contains_monomial(g) for g in ideal.generators)
        ok = ok and locus_components(ideal) == locus_components(sat)
        if not ok:
            failures.append(f"monideal trial {trial}")
        done += 1
    return done


def prop_surfacezar(rng: random.Random, count: int, failures: list[str]) -> int:
    done = 0
    for trial in range(count):
        lattice, _, _, _, D = random_blowup(rng)
        dec = zariski(lattice, D)
        try:
            dec.check(lattice)
        except Exception as exc:
            failures.append(f"surfacezar trial {trial}: {exc}")
            done += 1
            continue
        ok = surface_volume(lattice, D) >= 0
        again = zariski(lattice, dec.positive)
        ok = ok and again.positive == dec.positive and not again.negative
        if not ok:
            failures.append(f"surfacezar trial {trial}")
        done += 1
    return done


def test_prop1_randomized_invariants(announce):
    failures: list[str] = []
    total = 0
    total += prop_exactnum(random.Random(101), 50, failures)
    total += prop_flagval(random.Random(102), 40, failures)
    total += prop_convbody(random.Random(103), 40, failures)
    total += prop_glseries(random.Random(104), 20, failures)
    total += prop_monideal(random.Random(105), 25, failures)
    total += prop_surfacezar(random.Random(106), 25, failures)
    check(failures, total == 200, f"instance count {total} != 200")
    announce(
        "PROP-1",
        failures,
        "200 randomized instances across 6 module invariant suites",
    )
