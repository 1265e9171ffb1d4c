"""Tests for Zariski decompositions and piecewise linear surface bodies."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from okbody import cli, exactnum, surfacezar
from okbody.convbody import RationalPolytope, okounkov_body
from okbody.errors import InputError, InvariantError, OkbodyError
from okbody.exactnum import cleared_row, det
from okbody.flagval import Flag
from okbody.glseries import GradedSeries
from okbody.polyform import HomogeneousForm, all_exponents
from okbody.surfacezar import (
    Segment,
    SurfaceBody,
    SurfaceLattice,
    _check_body,
    _positive_part,
    _solve_support,
    _threshold,
    classify_boundary,
    mu,
    surface_body,
    volume,
    zariski,
)
from oracles import fraction_dot, reference_threshold, solve_rational_system

F = Fraction
CORPUS = Path(__file__).resolve().parent.parent / "corpus"

H, E = (1, 0), (0, 1)


@pytest.fixture
def p2():
    return SurfaceLattice([[1]], [], [(1,)])


def bl1():
    # one-point blow-up: basis H, E with E the exceptional curve
    return SurfaceLattice([[1, 0], [0, -1]], [E], [(1, -1), (0, 1)])


@pytest.fixture
def blowup():
    return bl1()


@pytest.fixture
def chain():
    # two infinitely near points: A the strict transform of the first
    # exceptional curve (self-intersection -2), B the second (-1)
    A, B, L = (0, 1, -1), (0, 0, 1), (1, -1, -1)
    return SurfaceLattice(
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]], [A, B], [A, B, L]
    )


def blowup_plane(r):
    """P^2 blown up at r general points, basis H, E_1..E_r: the exceptional
    curves and the lines H - E_i - E_j are the negative curves, and for
    2 <= r <= 4 they generate the effective cone."""
    n = r + 1
    gram = [[int(i == j) * (1 - 2 * (i > 0)) for j in range(n)] for i in range(n)]
    curves = [tuple(int(k == i) for k in range(n)) for i in range(1, n)]
    curves += [
        tuple(1 if k == 0 else -int(k in (i, j)) for k in range(n))
        for i in range(1, n)
        for j in range(i + 1, n)
    ]
    return SurfaceLattice(gram, curves, curves)


@pytest.fixture
def solves(monkeypatch):
    """Grows by one entry per `_solve_support` call."""
    calls = []
    original = surfacezar._solve_support
    monkeypatch.setattr(
        surfacezar, "_solve_support", lambda *args: calls.append(1) or original(*args)
    )
    return calls


class TestLattice:
    def test_sign_conventions(self, blowup):
        assert blowup.dot(E, E) == -1
        assert blowup.dot(H, E) == 0
        assert blowup.dot((2, -3), E) == 3
        assert blowup.dot((1, -1), (1, -1)) == 0

    def test_validation(self):
        with pytest.raises(InputError):
            SurfaceLattice([[1, 0], [1, -1]], [], [(1, 0)])  # not symmetric
        with pytest.raises(InputError):
            SurfaceLattice([[1]], [(1,)], [(1,)])  # curve with positive square
        with pytest.raises(InputError):
            SurfaceLattice([[1]], [], [])  # no effective generators

    def test_repeated_negative_curve(self):
        with pytest.raises(InputError, match="repeated negative curve"):
            SurfaceLattice([[1, 0], [0, -1]], [E, E], [(1, -1), (0, 1)])

    def test_integral_gram(self, blowup):
        assert all(type(x) is int for row in blowup.gram for x in row)
        assert SurfaceLattice([[F(2, 2)]], [], [(1,)]).gram == ((1,),)
        with pytest.raises(InputError, match="not integral"):
            SurfaceLattice([[F(1, 2)]], [], [(1,)])

    def test_integral_classes(self):
        # listed curves and generators are lattice classes: the lattice
        # keeps them, and their Gram images, as integer vectors
        lattice = SurfaceLattice([[1, 0], [0, -1]], [(F(0), F(2, 2))], [(1, -1), (0, 1)])
        assert lattice.negative_curves == ((0, 1),)
        assert lattice.effective_generators == ((1, -1), (0, 1))
        assert all(
            type(x) is int
            for c in lattice.negative_curves + lattice.effective_generators
            for x in c
        )
        assert lattice._curve_images == [(0, -1)]
        assert lattice._generator_images == [(1, 1), (0, -1)]
        with pytest.raises(InputError, match="negative curve not integral"):
            SurfaceLattice([[1, 0], [0, -1]], [(0, F(1, 2))], [(1, -1), (0, 1)])
        with pytest.raises(InputError, match="effective generator not integral"):
            SurfaceLattice([[1, 0], [0, -1]], [E], [(1, -1), (0, F(1, 2))])

    def test_pseudoeffective(self, blowup):
        assert blowup.is_pseudoeffective((2, 3))
        assert blowup.is_pseudoeffective((2, -2))
        assert not blowup.is_pseudoeffective((2, -3))
        assert not blowup.is_pseudoeffective((-1, 0))


    def test_dot_matches_fraction_reference(self):
        rng = random.Random(611)
        for _ in range(200):
            rank = rng.randint(1, 5)
            gram = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    gram[i][j] = gram[j][i] = rng.randint(-3, 3)
            units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
            lattice = SurfaceLattice(gram, [], units)

            def vec():
                # zeros, negatives, integers and denominators up to 12
                return tuple(
                    rng.choice(
                        [0, F(0), rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 12))]
                    )
                    for _ in range(rank)
                )

            a, b = vec(), vec()
            got = lattice.dot(a, b)
            assert isinstance(got, F)
            assert got == fraction_dot(gram, a, b)
            assert lattice.dot(b, a) == got


class TestZariski:
    def test_witness_checked_or_replaced_by_lp(self, monkeypatch):
        # (1, 0) = (1, -1) + (0, 1), so a class has several weightings on
        # these generators; only a nonnegative one that sums to the class
        # spares the pseudo-effectivity LP
        lattice = SurfaceLattice([[1, 0], [0, -1]], [E], [(1, -1), (0, 1), (1, 0)])
        lps = []
        original = surfacezar.in_cone
        monkeypatch.setattr(
            surfacezar, "in_cone", lambda *args: lps.append(1) or original(*args)
        )
        D = (2, 3)
        plain = zariski(lattice, D)
        assert len(lps) == 1
        cases = [
            ((2, 5, 0), 0),
            ((0, 3, 2), 0),
            ((-1, 2, 3), 1),  # sums to D, with a negative weight
            ((2, 5, 1), 1),  # nonnegative, sums to (3, 3)
            ((2, 5), 1),  # one weight short
        ]
        for witness, runs in cases:
            lps.clear()
            assert zariski(lattice, D, witness) == plain
            assert len(lps) == runs, witness
        # a class outside the cone is refused whatever comes with it
        for witness in (None, (0, -3, 2), (1, 1, 1)):
            with pytest.raises(
                InputError, match="zariski: divisor is not pseudo-effective"
            ):
                zariski(lattice, (2, -3), witness)

    def test_nef_divisor(self, blowup):
        z = zariski(blowup, (2, -1))
        assert z.positive == (F(2), F(-1))
        assert z.negative == ()
        z.check(blowup)

    def test_exceptional_overload(self, blowup):
        z = zariski(blowup, (2, 3))
        assert z.positive == (F(2), F(0))
        assert z.negative == ((tuple(map(F, E)), F(3)),)
        assert z.multiplicity(E) == 3
        assert z.negative_class() == (F(0), F(3))
        z.check(blowup)

    def test_not_pseudoeffective(self, blowup):
        with pytest.raises(InputError):
            zariski(blowup, (2, -3))

    def test_insufficient_curve_list(self):
        bare = SurfaceLattice([[1, 0], [0, -1]], [], [(1, -1), (0, 1)])
        with pytest.raises(InputError, match="insufficient"):
            zariski(bare, (2, 3))

    def test_dependent_support_refused(self):
        # E and 2E both meet D negatively, and their Gram matrix is singular
        lattice = SurfaceLattice(
            [[1, 0], [0, -1]], [E, (0, 2)], [(1, -1), (0, 1)]
        )
        with pytest.raises(InputError, match="singular"):
            zariski(lattice, (2, 1))

    def test_support_solve_matches_oracle(self):
        """On blow-ups of the plane at up to three points, with the
        exceptional curves E_i and the lines H - E_i - E_j, the support
        solve agrees with the rational solver where the support Gram
        matrix is nonsingular, and is refused where it is singular."""
        rng = random.Random(1309)
        solved = refused = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            gram = [[int(i == j) * (1 - 2 * (i > 0)) for j in range(n)] for i in range(n)]
            curves = [tuple(int(k == i) for k in range(n)) for i in range(1, n)]
            curves += [
                tuple(1 if k == 0 else -int(k in (i, j)) for k in range(n))
                for i in range(1, n)
                for j in range(i + 1, n)
            ]
            lattice = SurfaceLattice(gram, curves, curves + [(1,) + (0,) * (n - 1)])
            supp = rng.sample(range(len(curves)), rng.randint(1, len(curves)))
            rhs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in supp]
            ints, den = cleared_row(rhs)
            G = [[lattice.dot(curves[a], curves[b]) for b in supp] for a in supp]
            if det(G):
                v, w = _solve_support(lattice, supp, ints, den)
                assert w > 0
                assert [F(x, w) for x in v] == solve_rational_system(G, rhs)
                solved += 1
            else:
                with pytest.raises(InputError, match="singular"):
                    _solve_support(lattice, supp, ints, den)
                refused += 1
        assert solved and refused

    def test_negative_definite_reads_leading_minors(self):
        """The Bareiss pivots of the integer test and the Fraction pivots of
        the checker agree with the signs of the leading principal minors
        on seeded curve subsets of Bl_r P^2, r = 2..4, in seeded orders;
        so does `exactnum.negative_definite` on seeded symmetric integer
        matrices of size 1 to 4: definite ones -A^T A - I, semidefinite
        ones -A^T A with A of fewer rows than columns, and any others."""
        rng = random.Random(2317)
        verdicts = set()
        for _ in range(200):
            lattice = blowup_plane(rng.randint(2, 4))
            k = len(lattice.negative_curves)
            idx = rng.sample(range(k), rng.randint(1, min(k, 4)))
            curves = [lattice.negative_curves[i] for i in idx]
            G = [[fraction_dot(lattice.gram, a, b) for b in curves] for a in curves]
            minors = all(
                (-1) ** s * det([row[:s] for row in G[:s]]) > 0
                for s in range(1, len(G) + 1)
            )
            assert surfacezar._negative_definite(lattice, idx) == minors
            assert surfacezar._fraction_negative_definite(G) == minors
            verdicts.add(minors)
        assert verdicts == {True, False}
        verdicts.clear()
        for _ in range(300):
            n = rng.randint(1, 4)
            kind = rng.choice(("definite", "semidefinite", "any"))
            if kind == "any":
                M = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        M[i][j] = M[j][i] = rng.randint(-5, 5)
            else:
                A = [
                    [rng.randint(-3, 3) for _ in range(n)]
                    for _ in range(n if kind == "definite" else rng.randint(0, n - 1))
                ]
                M = [
                    [
                        -sum(r[i] * r[j] for r in A) - (kind == "definite") * (i == j)
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
            minors = all(
                (-1) ** s * det([row[:s] for row in M[:s]]) > 0
                for s in range(1, n + 1)
            )
            assert kind != "definite" or minors
            assert kind != "semidefinite" or not minors
            assert exactnum.negative_definite(M) == minors
            verdicts.add((kind, n == 1, minors))
        assert {(k, one) for k, one, _ in verdicts} == {
            (k, one) for k in ("definite", "semidefinite", "any") for one in (True, False)
        }
        assert ("any", False, True) in verdicts and ("any", False, False) in verdicts

    def test_pivots_on_the_one_kernel(self, chain, monkeypatch):
        """A flag's inverse and the definiteness test of a support of two
        curves both pivot by `exactnum._pivot`; the witness, D = L + 2A +
        4B, spares the decomposition the LP, which pivots there too."""
        calls = []
        original = exactnum._pivot

        def counted(*args):
            calls.append(args[1:3])
            return original(*args)

        monkeypatch.setattr(exactnum, "_pivot", counted)
        Flag([[2, 1, 0], [1, 1, 1], [0, 3, 1]])
        assert calls == [(0, 0), (1, 1), (2, 2)]
        calls.clear()
        z = zariski(chain, (1, 1, 1), witness=(2, 4, 1))
        assert len(z.support) == 2
        assert calls == [(0, 0), (1, 1)]

    def test_check_shares_no_kernel(self, chain, monkeypatch):
        """`check` computes in Fractions over the Gram matrix: with the
        engine's integer kernels, `exactnum.negative_definite` as the engine
        calls it, and `dot` disabled, it passes a true decomposition and
        refuses forged ones."""
        z = zariski(chain, (1, 1, 1))

        def disabled(*args):
            raise AssertionError("check ran an engine kernel")

        for name in (
            "_idot", "_negative_definite", "negative_definite", "kernel", "cleared_row"
        ):
            monkeypatch.setattr(surfacezar, name, disabled)
        monkeypatch.setattr(SurfaceLattice, "dot", disabled)
        z.check(chain)
        A, B = z.support
        H = (F(1), F(0), F(0))
        forged = [
            (z._replace(positive=(F(1), F(1), F(0))), "D != P \\+ N"),
            (
                z._replace(divisor=(F(1), F(-1), F(3)), negative=((A, F(-1)), (B, F(2)))),
                "nonpositive multiplicity",
            ),
            (
                z._replace(positive=(F(1), F(1, 2), F(0)), divisor=(F(1), F(3, 2), F(1))),
                "not orthogonal",
            ),
            (
                z._replace(positive=(F(1), F(1), F(0)), negative=((B, F(1)),)),
                "negative against a listed curve",
            ),
            (
                z._replace(positive=(F(0),) * 3, divisor=H, negative=((H, F(1)),)),
                "not negative definite",
            ),
        ]
        for bad, message in forged:
            with pytest.raises(InvariantError, match=message):
                bad.check(chain)

    def test_cascading_support(self, chain):
        # D . B < 0 starts the support at B; clearing B drags A in
        z = zariski(chain, (1, 1, 1))
        assert z.positive == (F(1), F(0), F(0))
        assert z.multiplicity((0, 1, -1)) == 1
        assert z.multiplicity((0, 0, 1)) == 2
        z.check(chain)

    def test_joint_start(self, chain):
        z = zariski(chain, (1, 2, 1))
        assert z.positive == (F(1), F(0), F(0))
        assert z.multiplicity((0, 1, -1)) == 2
        assert z.multiplicity((0, 0, 1)) == 3
        z.check(chain)

    def test_uniqueness_under_permutation(self, chain):
        permuted = SurfaceLattice(
            [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
            [(0, 0, 1), (0, 1, -1)],
            [(1, -1, -1), (0, 0, 1), (0, 1, -1)],
        )
        for D in [(1, 1, 1), (1, 2, 1), (2, 1, 0), (3, -1, -1)]:
            a = zariski(chain, D)
            b = zariski(permuted, D)
            assert a.positive == b.positive
            assert dict(a.negative) == dict(b.negative)

    def test_randomized_invariants(self, blowup):
        # seeded pseudo-effective classes: nonnegative combinations of the
        # effective generators, rechecked against all four invariants
        rng = random.Random(701)
        done = 0
        while done < 10:
            a, b = rng.randint(0, 9), rng.randint(0, 9)
            if a == b == 0:
                continue
            D = (a, b - a)  # a(H-E) + bE
            z = zariski(blowup, D)
            z.check(blowup)
            assert tuple(
                p + n for p, n in zip(z.positive, z.negative_class())
            ) == tuple(map(F, D))
            done += 1

    def test_volume(self, blowup):
        assert volume(blowup, (3, -1)) == 8
        assert volume(blowup, (2, 3)) == 4  # positive part 2H
        assert volume(blowup, (1, -1)) == 0


class TestMu:
    def test_projective_plane(self, p2):
        assert mu(p2, (2,), (1,)) == 2

    def test_blowup_thresholds(self, blowup):
        assert mu(blowup, (3, -1), (1, -1)) == 3
        assert mu(blowup, (3, -1), (1, 0)) == 2
        assert mu(blowup, (2, 0), (1, -1)) == 2

    def test_not_big(self, blowup):
        with pytest.raises(InputError, match="not big"):
            mu(blowup, (1, -1), (0, 1))

    def test_curve_not_effective(self, blowup):
        with pytest.raises(InputError, match="effective"):
            mu(blowup, (2, 0), (0, -1))

    def test_two_lps(self, blowup, monkeypatch):
        # the mu LP and the LP for C; the mu LP's weights certify D to its
        # decomposition
        calls = []
        original = exactnum.maximize
        monkeypatch.setattr(
            exactnum, "maximize", lambda *args: calls.append(1) or original(*args)
        )
        monkeypatch.setattr(surfacezar, "maximize", exactnum.maximize)
        assert mu(blowup, (3, -1), (1, -1)) == 3
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "D, C, message",
        [
            # the mu LP is unbounded along C = -E, yet D is not
            # pseudo-effective
            ((2, -3), (0, -1), "zariski: divisor is not pseudo-effective"),
            ((-1, 0), (1, 0), "zariski: divisor is not pseudo-effective"),
            ((1, -1), (0, -1), "mu: divisor is not big"),
            ((2, 0), (0, -1), "mu: flag curve is not an effective class"),
            ((2, 0), (0, 0), "mu: effective threshold unbounded"),
        ],
    )
    def test_error_precedence(self, blowup, D, C, message):
        for start in (mu, surface_body):
            with pytest.raises(InputError, match=message):
                start(blowup, D, C)

    def test_threshold_witnesses_cover_the_segment(self, blowup, chain):
        # D = y + mu C and C = z on the generators, so y + (mu - t) z is a
        # nonnegative weighting of D - tC for every t in [0, mu]
        for lattice, D, C in [
            (blowup, (3, -1), (1, -1)),
            (blowup, (3, -1), (1, 0)),
            (blowup, (2, 3), (0, 1)),
            (chain, (3, 0, -1), (1, -1, -1)),
        ]:
            D, C = tuple(map(F, D)), tuple(map(F, C))
            dec, value, y, z = _threshold(lattice, D, C)
            assert dec == zariski(lattice, D)
            assert value == mu(lattice, D, C)
            for t in (F(0), value / 3, value / 2, value):
                w = [a + (value - t) * b for a, b in zip(y, z)]
                target = tuple(d - t * c for d, c in zip(D, C))
                assert lattice._combines_to(w, target)


def meets_curve_contract(lattice, C):
    """Whether C meets no listed curve G != C negatively, as an
    irreducible flag curve must."""
    C = tuple(map(F, C))
    return all(c == C or lattice.dot(c, C) >= 0 for c in lattice.negative_curves)


def seeded_pair(rng, lattices):
    """A seeded (lattice, D, C, point multiplicities): D is big half the
    time and otherwise a small class that may leave the cone; C is an
    effective generator, H, H - E1, zero or a small class."""
    lattice = rng.choice(lattices)
    n, curves, gens = lattice.rank, lattice.negative_curves, lattice.effective_generators
    if rng.random() < 0.5:
        # a positive multiple of H plus an effective class is big
        weights = [rng.randint(0, 2) for _ in gens]
        D = tuple(
            rng.randint(0, 3) * (i == 0) + sum(w * g[i] for w, g in zip(weights, gens))
            for i in range(n)
        )
    else:
        D = tuple(rng.randint(-2, 5) if i == 0 else rng.randint(-3, 2) for i in range(n))
    H, H_E1, zero = (1,) + (0,) * (n - 1), (1, -1) + (0,) * (n - 2), (0,) * n
    small = tuple(rng.randint(-1, 2) for _ in range(n))
    C = rng.choice(list(gens) + [H, H_E1, zero, small])
    # a local intersection number at x is at most G . C
    mults = {
        c: rng.randint(0, max(0, int(lattice.dot(c, C))))
        for c in rng.sample(curves, rng.randint(0, len(curves)))
        if c != C
    }
    return lattice, D, C, mults


class TestStartMatchesReference:
    def test_seeded_pairs(self, monkeypatch):
        """On 600 seeded (D, C) pairs over Bl_r P^2, r = 1..4, `mu`, and
        `surface_body` where C meets the flag-curve contract, agree with
        the three-LP start of the oracle: the same threshold, segments and
        decomposition, or the same error."""

        def outcome(run):
            try:
                return run()
            except OkbodyError as e:
                return type(e), str(e)

        def body_of(lattice, D, C, mults):
            body = surface_body(lattice, D, C, mults)
            return body.mu, body.segments, body.decomposition

        rng = random.Random(1811)
        lattices = [bl1()] + [blowup_plane(r) for r in (2, 3, 4)]
        kinds = set()
        refused = 0
        for _ in range(600):
            lattice, D, C, mults = seeded_pair(rng, lattices)
            runs = [lambda: mu(lattice, D, C)]
            if meets_curve_contract(lattice, C):
                runs.append(lambda: body_of(lattice, D, C, mults))
            else:
                with pytest.raises(InputError, match="must be irreducible"):
                    surface_body(lattice, D, C)
                refused += 1
            got = [outcome(run) for run in runs]
            # the reference start runs once per pair and serves both callers
            try:
                start = reference_threshold(lattice, tuple(map(F, D)), tuple(map(F, C)))
            except OkbodyError as e:
                start = e

            def reference(*args):
                if isinstance(start, OkbodyError):
                    raise start
                return start

            with monkeypatch.context() as m:
                m.setattr(surfacezar, "_threshold", reference)
                assert got == [outcome(run) for run in runs], (D, C, mults)
            kinds.add("value" if isinstance(got[0], F) else got[0][1].split(";")[0])
        assert kinds == {
            "value",
            "zariski: divisor is not pseudo-effective",
            "mu: divisor is not big",
            "mu: flag curve is not an effective class",
            "mu: effective threshold unbounded",
        }
        assert refused


class TestSurfaceBody:
    def test_cross_checks_run_no_lp(self, capsys, monkeypatch):
        # one LP for mu, whose weights certify D, and one for C in the
        # cone; each segment's cross-check verifies the cone witnesses of
        # mu instead of running its own LP
        calls, cones = [], []
        original, original_cone = exactnum.maximize, exactnum.in_cone

        def counted(*args):
            calls.append(1)
            return original(*args)

        for module in (exactnum, surfacezar):
            if getattr(module, "maximize", None) is original:
                monkeypatch.setattr(module, "maximize", counted)
        monkeypatch.setattr(
            surfacezar, "in_cone", lambda *args: cones.append(1) or original_cone(*args)
        )
        assert cli.main(["surface", str(CORPUS / "blowup_cubic.surface.json")]) == 0
        segments = json.loads(capsys.readouterr().out)["payload"]["segments"]
        assert len(segments) == 2
        assert len(calls) == 2
        assert len(cones) == 1

    def test_surface_solves_each_support_once(self, capsys, solves):
        # two solves for the one nonempty support of the continuation and
        # one in the cross-check of its segment, as at the parent
        assert cli.main(["surface", str(CORPUS / "blowup_cubic.surface.json")]) == 0
        capsys.readouterr()
        assert len(solves) == 3

    def test_curves_enter_together_at_interior_breakpoint(self, solves):
        # on Bl2P2 (Gram diag(1, -1, -1), curves E1, E2, H - E1 - E2),
        # D - tC = (4 - 2t)H - (1 - t)(E1 + E2) meets E1 and E2 negatively
        # just past t = 1, and both join the support there in one step: one
        # pair of support solves, and one solve in the second cross-check
        body = surface_body(blowup_plane(2), (4, -1, -1), (2, -1, -1))
        assert len(solves) == 3
        assert [(s.t0, s.t1, s.support) for s in body.segments] == [
            (0, 1, ()),
            (1, 2, (0, 1)),
        ]
        assert [body.beta(t) for t in (0, 1, 2)] == [6, 4, 0]
        assert body.area() == 7  # vol(D) / 2 = 14 / 2

    def test_curve_enters_at_zero_with_multiplicity_zero(self):
        # on Bl2P2, D - tC = (3 - t)H + tE1: E1 . (D - tC) = -t turns
        # negative at once
        body = surface_body(blowup_plane(2), (3, 0, 0), (1, -1, 0), {(0, 1, 0): 1})
        assert body.decomposition.negative == ()
        assert [(s.t0, s.t1, s.support) for s in body.segments] == [(0, 3, (0,))]
        assert [body.alpha(t) for t in (0, 1, 3)] == [0, 1, 3]
        assert body.area() == F(9, 2)

    def test_continuation_matches_direct_decompositions(self):
        """On seeded blow-ups of the plane at 2-4 points, at every
        breakpoint and at a seeded rational point inside every segment, the
        segment's multiplicities, alpha and beta equal those read off a
        direct decomposition of D - tC."""
        rng = random.Random(1512)
        done = 0
        while done < 30:
            r = rng.randint(2, 4)
            lattice = blowup_plane(r)
            curves, gens = lattice.negative_curves, lattice.effective_generators
            # a positive multiple of H plus an effective class is big
            weights = [rng.randint(0, 2) for _ in gens]
            D = tuple(
                rng.randint(1, 3) * (i == 0)
                + sum(w * g[i] for w, g in zip(weights, gens))
                for i in range(r + 1)
            )
            H, H_E1 = (1,) + (0,) * r, (1, -1) + (0,) * (r - 1)
            C = rng.choice(list(gens) + [H, H_E1])
            # a local intersection number at x is at most G . C
            picked = rng.sample(curves, rng.randint(0, len(curves)))
            mults = {
                c: rng.randint(0, max(0, int(lattice.dot(c, C))))
                for c in picked
                if c != C
            }
            try:
                body = surface_body(lattice, D, C, mults)
            except InputError as e:
                assert "replace D" in str(e)
                continue
            for seg in body.segments:
                # multiplicities c0 + t c1 of the segment's support curves
                supp = list(seg.support)
                (c0, d0), _ = _positive_part(lattice, supp, *cleared_row(D))
                (c1, d1), _ = _positive_part(
                    lattice, supp, *cleared_row([-x for x in C])
                )
                inner = seg.t0 + (seg.t1 - seg.t0) * F(rng.randint(1, 9), 10)
                for t in (seg.t0, inner, seg.t1):
                    z = zariski(lattice, tuple(d - t * c for d, c in zip(D, C)))
                    got = {i: F(a, d0) + t * F(b, d1) for i, a, b in zip(supp, c0, c1)}
                    assert [got.get(i, 0) for i in range(len(curves))] == [
                        z.multiplicity(c) for c in curves
                    ]
                    alpha = sum(m * z.multiplicity(c) for c, m in mults.items())
                    assert seg.alpha[0] * t + seg.alpha[1] == alpha
                    beta = alpha + lattice.dot(C, z.positive)
                    assert seg.beta[0] * t + seg.beta[1] == beta
                    if t == inner:
                        assert z.support == tuple(curves[i] for i in supp)
            done += 1

    def test_plane_conic(self, p2):
        body = surface_body(p2, (2,), (1,))
        assert body.mu == 2
        assert len(body.segments) == 1
        assert body.alpha(0) == 0 and body.alpha(2) == 0
        assert [body.beta(t) for t in (0, 1, 2)] == [2, 1, 0]
        assert body.area() == 2
        assert body.polytope() == RationalPolytope.from_points(
            [(0, 0), (2, 0), (0, 2)]
        )

    def test_support_enters_at_zero(self, blowup):
        body = surface_body(blowup, (2, 0), (1, -1))
        assert body.mu == 2
        assert len(body.segments) == 1
        assert body.segments[0].support == (0,)
        assert body.alpha(1) == 0
        assert body.beta(0) == 2 and body.beta(2) == 0
        assert body.area() == 2

    def test_point_multiplicity_shifts_lower_edge(self, blowup):
        body = surface_body(blowup, (2, 0), (1, -1), {E: 1})
        assert body.alpha(1) == 1 and body.alpha(2) == 2
        assert body.beta(0) == 2 and body.beta(2) == 2
        assert body.area() == 2
        assert body.polytope() == RationalPolytope.from_points(
            [(0, 0), (0, 2), (2, 2)]
        )
        assert body.point_multiplicities == ((tuple(map(F, E)), 1),)
        assert body.point_multiplicities[0][0] is blowup.negative_curves[0]

    def test_interior_breakpoint(self, blowup):
        body = surface_body(blowup, (3, -1), (1, -1))
        assert body.breakpoints == (F(0), F(1), F(3))
        assert body.segments[0].support == ()
        assert body.segments[1].support == (0,)
        assert body.beta(0) == 2 and body.beta(1) == 2 and body.beta(3) == 0
        assert body.area() == 4
        assert body.polytope() == RationalPolytope.from_points(
            [(0, 0), (3, 0), (1, 2), (0, 2)]
        )

    def test_breakpoint_with_multiplicity(self, blowup):
        body = surface_body(blowup, (3, -1), (1, -1), {E: 1})
        assert body.alpha(1) == 0 and body.alpha(2) == 1 and body.alpha(3) == 2
        assert body.beta(3) == 2
        assert body.area() == 4

    def test_nef_everywhere(self, blowup):
        body = surface_body(blowup, (3, -1), (1, 0))
        assert body.mu == 2
        assert body.area() == 4
        assert body.polytope() == RationalPolytope.from_points(
            [(0, 0), (2, 0), (2, 1), (0, 3)]
        )

    def test_narrow_then_shrinking(self, blowup):
        body = surface_body(blowup, (2, -1), (1, -1))
        assert body.breakpoints == (F(0), F(1), F(2))
        assert body.beta(0) == 1
        assert body.area() == F(3, 2)

    def test_readers_use_the_recorded_edges(self, blowup, monkeypatch):
        """The edge values at the breakpoints are computed once, when the
        body is built; area, polytope, the strata and the SVG read them."""
        body = surface_body(blowup, (3, -1), (1, -1), {E: 1})
        assert body._lower == (0, 0, 2) and body._upper == (2, 2, 2)
        calls = []
        monkeypatch.setattr(surfacezar, "_affine_eval", lambda *a: calls.append(a))
        monkeypatch.setattr(SurfaceBody, "_segment", lambda *a: calls.append(a))
        assert body.area() == 4
        assert body.polytope() == RationalPolytope.from_points(
            [(0, 0), (1, 0), (3, 2), (0, 2)]
        )
        cli.svg_surface(body, classify_boundary(body))
        assert calls == []

    @pytest.mark.parametrize(
        "mu_value, pieces, message",
        [
            # (t0, t1, alpha, beta) of each segment
            (1, [(0, 1, (0, 1), (0, 0))], "lower edge above upper edge"),
            (3, [(0, 1, (0, 0), (0, 1)), (2, 3, (0, 0), (0, 1))], "segment gap"),
            (2, [(0, 1, (0, 0), (0, 5)), (1, 2, (0, 1), (0, 5))], "lower edge discontinuous"),
            (2, [(0, 1, (0, 0), (0, 5)), (1, 2, (0, 0), (0, 4))], "upper edge discontinuous"),
            (2, [(0, 1, (1, 0), (0, 5)), (1, 2, (0, 1), (0, 5))], "lower edge not convex"),
            (2, [(0, 1, (0, 0), (-1, 5)), (1, 2, (0, 0), (0, 4))], "upper edge not concave"),
        ],
    )
    def test_check_body_refuses_forged_bodies(self, mu_value, pieces, message):
        """Each invariant of a body, broken alone, is refused by its own
        message."""
        segments = tuple(
            Segment(F(t0), F(t1), tuple(map(F, a)), tuple(map(F, b)), ())
            for t0, t1, a, b in pieces
        )
        body = SurfaceBody(F(mu_value), segments, (), (), (), None)
        with pytest.raises(InvariantError, match=message):
            _check_body(body)

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_check_body_refuses_a_forged_edge_value(self, blowup, edge):
        """A recorded edge value that is not where the segment before it
        ends is refused."""
        body = surface_body(blowup, (3, -1), (1, -1))
        slot = f"_{edge}"
        values = getattr(body, slot)
        setattr(body, slot, values[:1] + (values[1] + 1,) + values[2:])
        with pytest.raises(InvariantError, match=f"{edge} edge discontinuous"):
            _check_body(body)

    def test_flag_curve_in_support_refused(self, blowup):
        with pytest.raises(InputError, match="replace D"):
            surface_body(blowup, (2, 3), (0, 1))

    def test_area_invariant_under_point_choice(self, blowup):
        # moving x along C changes alpha and beta but never the area
        for D, C in [((2, 0), (1, -1)), ((3, -1), (1, -1))]:
            generic = surface_body(blowup, D, C)
            special = surface_body(blowup, D, C, {E: 1})
            assert generic.area() == special.area()

    def test_toric_cross_check_plane(self, p2):
        # conics on the plane against the lattice engine
        body = surface_body(p2, (2,), (1,))
        rep = okounkov_body(GradedSeries.complete(2, 2), Flag.standard(2), 5)
        assert body.polytope() == rep.body
        assert body.area() == rep.body.volume()

    def test_toric_cross_check_blowup(self):
        """Bl1 P^2 at [1:0:0] and Bl2 P^2 at [1:0:0], [0:1:0] against the
        lattice engine, for every big D = aH - sum b_i E_i with a <= 5 and
        sum b_i <= a.  The sections of D are the degree-a monomials of
        order >= b_i at the i-th point, and level 1 generates them.  The
        flag curve is the line X1 = 0: H on Bl1, and H - E2 on Bl2, where
        it passes through [0:1:0].  The point x is [0:0:1]; of the curves
        through it, H - E1 on Bl2 is not a negative curve, so no point
        multiplicity is given."""
        # the order of a monomial at [1:0:0] and at [0:1:0]
        orders = [lambda e: e[1] + e[2], lambda e: e[0] + e[2]]
        cases = [(bl1(), (1, 0), 15), (blowup_plane(2), (1, 0, -1), 45)]
        for lattice, C, count in cases:
            r = lattice.rank - 1
            done = 0
            for a in range(1, 6):
                # b_i < a keeps D big
                for b in itertools.product(range(a), repeat=r):
                    if sum(b) > a:
                        continue
                    gens = [
                        HomogeneousForm.monomial(3, e)
                        for e in all_exponents(3, a)
                        if all(order(e) >= bi for order, bi in zip(orders, b))
                    ]
                    S = GradedSeries.generated(2, a, gens, label=f"Bl{r}")
                    rep = okounkov_body(S, Flag.standard(2), 4)
                    assert rep.certificate == "exact"
                    body = surface_body(lattice, (a,) + tuple(-x for x in b), C)
                    assert body.polytope() == rep.body, (r, a, b)
                    assert body.area() == rep.body.volume()
                    done += 1
            assert done == count


class TestClassification:
    def test_strata_of_plane_body(self, p2):
        body = surface_body(p2, (2,), (1,))
        strata = classify_boundary(body)
        names = [s.name for s in strata]
        assert names == [
            "interior",
            "left-edge",
            "lower-graph",
            "upper-graph",
            "right-edge",
        ]
        d = {s.name: s for s in strata}
        assert d["interior"].valuative is True
        assert d["left-edge"].valuative is True and d["left-edge"].open_end
        assert d["lower-graph"].valuative is True and d["lower-graph"].open_end
        assert d["upper-graph"].valuative is None
        assert d["right-edge"].valuative is None
        assert d["right-edge"].start == (F(2), F(0))
        assert d["right-edge"].end == (F(2), F(0))

    def test_upper_graph_openness_tracks_left_corner(self, blowup):
        # alpha(0) < beta(0) here, so the upper graph starts closed
        body = surface_body(blowup, (3, -1), (1, -1))
        d = {s.name: s for s in classify_boundary(body)}
        assert not d["upper-graph"].open_start
        assert d["left-edge"].start == (F(0), F(0))
        assert d["left-edge"].end == (F(0), F(2))

    def test_strata_carry_exact_anchors(self, blowup):
        body = surface_body(blowup, (3, -1), (1, 0))
        d = {s.name: s for s in classify_boundary(body)}
        assert d["lower-graph"].end == (F(2), F(0))
        assert d["upper-graph"].start == (F(0), F(3))
        assert d["upper-graph"].end == (F(2), F(1))
