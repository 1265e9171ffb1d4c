"""Tests for monomial ideals, base loci, sheafification, birationality."""

import itertools
import random
from fractions import Fraction

import pytest

from okbody.convbody import okounkov_body
from okbody.exactnum import lattice_index
from okbody.errors import InputError, UnsupportedModeError
from okbody.flagval import Flag
from okbody import monideal
from okbody.glseries import GradedSeries
from okbody.monideal import (
    BaseLocusReport,
    MonomialIdeal,
    base_ideal,
    full_volume_check,
    is_birational_monomial,
    locus_components,
    saturate,
    sheafify,
    stable_base_locus,
)
from okbody.polyform import DEGREE_BOUND, FormSpan, HomogeneousForm, all_exponents
from oracles import ReferenceIdeal, reference_locus_components, reference_stable_base_locus

F = Fraction


def mono_series(d, m, exps, label="series"):
    gens = [HomogeneousForm.monomial(d + 1, e) for e in exps]
    return GradedSeries.generated(d, m, gens, label=label)


def random_explicit(rng, d, twist, K):
    # a random monomial subset at every level, some levels zero; the
    # levels need not multiply into each other, so base ideals are
    # often unsaturated and loci can shrink at any level
    levels = {}
    for k in range(1, K + 1):
        pool = list(all_exponents(d + 1, k * twist))
        picked = [] if rng.random() < 0.2 else rng.sample(pool, rng.randint(1, min(len(pool), 4)))
        levels[k] = [HomogeneousForm.monomial(d + 1, e) for e in picked]
    return GradedSeries.explicit(d, twist, levels)


def random_ideal(rng, nvars=3, max_gens=4, max_exp=3):
    gens = [
        tuple(rng.randint(0, max_exp) for _ in range(nvars))
        for _ in range(rng.randint(1, max_gens))
    ]
    return MonomialIdeal(nvars, [g for g in gens if any(g)] or [(1,) + (0,) * (nvars - 1)])


def saturation_member_oracle(ideal, e, tmax):
    # m is in the saturation iff m * X_i^t lies in the ideal for every
    # variable simultaneously, for some power t
    n = ideal.nvars
    for t in range(tmax + 1):
        if all(
            ideal.contains_monomial(
                tuple(x + (t if i == j else 0) for j, x in enumerate(e))
            )
            for i in range(n)
        ):
            return True
    return False


def count_calls(monkeypatch):
    """Count calls of monideal's minimalization, divisibility test and
    locus from now on."""
    counts = dict.fromkeys(("_minimalize", "_undivided", "locus_components"), 0)
    for name in counts:
        real = getattr(monideal, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(monideal, name, counted)
    return counts


FLAGSHIP_EXPS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]


@pytest.fixture
def flagship():
    return mono_series(2, 2, FLAGSHIP_EXPS, label="no-x2x3")


class TestMonomialIdeal:
    def test_minimal_generators(self, monkeypatch):
        I = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (3, 1, 0), (1, 1, 2)])
        assert I.generators == ((1, 1, 0), (2, 0, 0))
        # seeded brute force: an exponent is a minimal generator iff no
        # other one of the set divides it
        rng = random.Random(11)
        for trial in range(60):
            nvars = rng.randint(1, 4)
            if trial % 2:
                top = rng.randint(0, 4)
                gens = {
                    tuple(rng.randint(0, top) for _ in range(nvars))
                    for _ in range(rng.randint(1, 12))
                }
            else:
                level = list(all_exponents(nvars, rng.randint(0, 4)))
                gens = set(rng.sample(level, rng.randint(1, len(level))))
            minimal = tuple(sorted(
                g for g in gens
                if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)
            ))
            assert MonomialIdeal(nvars, gens).generators == minimal
        # a single-degree set, as a monomial level gives, needs no
        # divisibility test at all
        counts = count_calls(monkeypatch)
        S = mono_series(2, 2, [(2, 0, 0), (1, 1, 0), (0, 1, 1)])
        assert base_ideal(S, 3).generators
        assert counts["_minimalize"] == counts["_undivided"] == 0

    def test_zero_and_unit(self):
        assert MonomialIdeal(3).is_zero
        assert MonomialIdeal(3, [(0, 0, 0), (1, 2, 3)]).generators == ((0, 0, 0),)
        assert MonomialIdeal(3, [(1, 0, 0)]).generators != ((0, 0, 0),)

    def test_membership(self):
        I = MonomialIdeal(3, [(1, 1, 0), (2, 0, 0)])
        assert I.contains_monomial((2, 5, 7))
        assert not I.contains_monomial((0, 9, 9))

    def test_validation(self):
        with pytest.raises(InputError):
            MonomialIdeal(3, [(1, 0)])
        with pytest.raises(InputError):
            MonomialIdeal(3, [(-1, 0, 0)])

    def test_exponent_bound_refused(self):
        # a key field holds entries below DEGREE_BOUND; one at or past it
        # would carry into the next field, so the constructor refuses it
        top = DEGREE_BOUND - 1
        assert MonomialIdeal(2, [(top, 0), (0, top)]).generators == ((0, top), (top, 0))
        for bad in [(DEGREE_BOUND, 0), (0, DEGREE_BOUND), (3 * DEGREE_BOUND, 1)]:
            with pytest.raises(InputError):
                MonomialIdeal(2, [(1, 1), bad])

    def test_membership_edges(self):
        I = MonomialIdeal(3, [(1, 1, 0), (2, 0, 0)])
        # a negative exponent lies in no ideal, the unit one included
        assert not I.contains_monomial((5, -1, 0))
        assert not MonomialIdeal(3, [(0, 0, 0)]).contains_monomial((0, 0, -1))
        # exponents past the key bound are still answered exactly
        assert I.contains_monomial((DEGREE_BOUND, 0, 0))
        assert I.contains_monomial((1, 10 * DEGREE_BOUND, 0))
        assert not I.contains_monomial((0, 10 * DEGREE_BOUND, DEGREE_BOUND))
        for wrong in [(1, 1), (1, 1, 0, 0), ()]:
            with pytest.raises(InputError):
                I.contains_monomial(wrong)

    def test_sum_and_intersection(self):
        A = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0)])
        B = MonomialIdeal(3, [(1, 1, 0)])
        assert A.plus(B).generators == ((1, 1, 0), (0, 2, 0), (2, 0, 0)) or A.plus(
            B
        ).generators == ((0, 2, 0), (1, 1, 0), (2, 0, 0))
        assert A.intersect(B).generators == ((1, 2, 0), (2, 1, 0))

    def test_arithmetic_matches_validated_constructor(self):
        # the ideal operations build their results from generators they
        # made themselves; each must equal the validated public
        # constructor on the raw exponents it starts from
        rng = random.Random(606)
        for trial in range(80):
            nvars = rng.randint(1, 4)
            A = random_ideal(rng, nvars, max_gens=5)
            B = MonomialIdeal(nvars) if trial % 10 == 0 else random_ideal(
                rng, nvars, max_gens=5
            )
            assert A.plus(B) == MonomialIdeal(nvars, A.generators + B.generators)
            lcms = [
                tuple(max(x, y) for x, y in zip(g, h))
                for g in A.generators
                for h in B.generators
            ]
            assert A.intersect(B) == MonomialIdeal(nvars, lcms)
            for i in range(nvars):
                cut = [g[:i] + (0,) + g[i + 1 :] for g in A.generators]
                assert A.saturate_variable(i) == MonomialIdeal(nvars, cut)

    def test_intersection_membership_property(self):
        rng = random.Random(601)
        for _ in range(20):
            A, B = random_ideal(rng), random_ideal(rng)
            C = A.intersect(B)
            for deg in range(5):
                for e in all_exponents(3, deg):
                    both = A.contains_monomial(e) and B.contains_monomial(e)
                    assert C.contains_monomial(e) == both

    def test_vanishes_at(self):
        I = MonomialIdeal(3, [(1, 1, 0), (1, 0, 1)])
        assert I.vanishes_at((0, 1, 1))
        assert I.vanishes_at((1, 0, 0))
        assert not I.vanishes_at((1, 1, 0))


class TestSaturation:
    def test_known_values(self):
        b = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1)])
        assert saturate(b).generators == ((0, 0, 0),)
        J = MonomialIdeal(3, [(1, 1, 0)])
        assert saturate(J) == J
        assert saturate(MonomialIdeal(3, [(0, 0, 0)])).generators == ((0, 0, 0),)

    def test_against_membership_oracle(self):
        rng = random.Random(602)
        for _ in range(15):
            I = random_ideal(rng)
            S = I.saturate()
            tmax = 3 * max(sum(g) for g in I.generators) + 3
            for deg in range(5):
                for e in all_exponents(3, deg):
                    assert S.contains_monomial(e) == saturation_member_oracle(
                        I, e, tmax
                    ), (I, e)

    def test_idempotent(self):
        rng = random.Random(603)
        for _ in range(25):
            I = random_ideal(rng)
            S = I.saturate()
            assert S.saturate() == S

    def test_monotone(self):
        rng = random.Random(604)
        for _ in range(25):
            I = random_ideal(rng)
            J = I.plus(random_ideal(rng))
            SI, SJ = I.saturate(), J.saturate()
            # containment of monomial ideals: every generator of the smaller
            # one is a member of the larger one
            assert all(SJ.contains_monomial(g) for g in SI.generators)

    def test_principal_ideals_saturated(self):
        rng = random.Random(605)
        for _ in range(10):
            g = tuple(rng.randint(0, 3) for _ in range(3))
            if not any(g):
                continue
            I = MonomialIdeal(3, [g])
            assert I.saturate() == I


class TestBaseIdeal:
    def test_flagship_level_one(self, flagship):
        b = base_ideal(flagship, 1)
        assert b.generators == (
            (0, 0, 2),
            (0, 2, 0),
            (1, 0, 1),
            (1, 1, 0),
            (2, 0, 0),
        )
        assert saturate(b).generators == ((0, 0, 0),)

    def test_minimalization_of_level(self):
        S = mono_series(1, 2, [(2, 0), (1, 1)])
        b = base_ideal(S, 1)
        assert b.generators == ((1, 1), (2, 0))

    def test_complete_saturates_to_unit(self):
        C = GradedSeries.complete(2, 2)
        assert saturate(base_ideal(C, 1)).generators == ((0, 0, 0),)

    def test_non_monomial_refused(self):
        f = HomogeneousForm(3, {(1, 0, 0): F(1), (0, 1, 0): F(1)}, 1)
        S = GradedSeries.generated(2, 1, [f, HomogeneousForm.monomial(3, (0, 0, 1))])
        with pytest.raises(UnsupportedModeError):
            base_ideal(S, 1)


class TestLocusComponents:
    def test_hitting_sets(self):
        assert locus_components(MonomialIdeal(3, [(1, 1, 0)])) == ((0,), (1,))
        assert locus_components(MonomialIdeal(3, [(1, 0, 0)])) == ((0,),)
        assert locus_components(MonomialIdeal(3, [(1, 1, 0), (1, 0, 1)])) == (
            (0,),
            (1, 2),
        )
        assert locus_components(
            MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        ) == ((0, 1, 2),)

    def test_degenerate_ideals(self):
        assert locus_components(MonomialIdeal(3)) == ((),)
        assert locus_components(MonomialIdeal(3, [(0, 0, 0)])) == ()

    def test_components_cover_vanishing_points(self):
        # a coordinate point e_j lies in the locus iff some component
        # omits j; cross-check against direct evaluation
        rng = random.Random(606)
        for _ in range(20):
            I = random_ideal(rng)
            comps = locus_components(I)
            for j in range(3):
                point = tuple(F(int(i == j)) for i in range(3))
                in_comp = any(j not in c for c in comps)
                assert in_comp == I.vanishes_at(point)


class TestStableBaseLocus:
    def test_flagship_base_point_free(self, flagship):
        rep = stable_base_locus(flagship, 6)
        assert isinstance(rep, BaseLocusReport)
        assert rep.empty
        assert rep.components == ((0, 1, 2),)
        assert rep.stabilized and rep.stabilized_at == 1
        assert not rep.contains_point((F(1), F(2), F(3)))

    def test_fixed_divisor(self):
        S = mono_series(2, 2, [(2, 0, 0), (1, 1, 0), (1, 0, 1)])
        rep = stable_base_locus(S, 6)
        assert rep.components == ((0,),)
        assert not rep.empty
        assert rep.contains_point((0, 3, 5))
        assert not rep.contains_point((1, 1, 1))

    def test_isolated_base_points(self):
        rep = stable_base_locus(mono_series(2, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]), 6)
        # three coordinate points
        assert rep.components == ((0, 1), (0, 2), (1, 2))
        assert not rep.empty
        assert rep.contains_point((1, 0, 0))
        assert rep.contains_point((0, 0, 1))

    def test_base_ideals_recorded(self, flagship):
        rep = stable_base_locus(flagship, 4)
        assert sorted(rep.base_ideals) == [1, 2, 3, 4]
        assert rep.truncation == 4

    def test_matches_sum_of_base_ideals(self):
        # against the chain of `plus` calls with a locus per level, on
        # explicit series whose locus shrinks again after its first change
        rng = random.Random(609)
        shrunk = 0
        for trial in range(150):
            d, twist, K = 1 + trial % 3, rng.randint(1, 2), rng.randint(2, 6)
            S = random_explicit(rng, d, twist, K)
            rep, ref = stable_base_locus(S, K), reference_stable_base_locus(S, K)
            assert rep.base_ideals == ref.base_ideals
            assert rep.cumulative.generators == ref.cumulative.generators
            assert rep.components == ref.components
            assert rep.stabilized_at == ref.stabilized_at
            assert rep == ref
            first = next((k for k in range(1, K + 1) if S.level(k).dim), None)
            if first is not None:
                shrunk += reference_stable_base_locus(S, first).components != rep.components
        assert shrunk >= 20

    def test_scans_only_generator_levels(self, monkeypatch):
        """On series with generators the report equals the oracle's, and
        no divisibility test runs at a level that holds no generators."""

        def mono(*exps):
            return [HomogeneousForm.monomial(3, e) for e in exps]

        rng = random.Random(2311)
        cases = [
            mono_series(2, 2, FLAGSHIP_EXPS),
            GradedSeries.complete(2, 2),
            GradedSeries.generated(2, 1, {2: mono((1, 1, 0), (0, 1, 1))}),
            GradedSeries.generated(
                2, 1, {1: mono((1, 0, 0)), 2: mono((0, 1, 1)), 3: mono((0, 0, 3), (0, 3, 0))}
            ),
        ]
        for _ in range(40):
            twist = rng.randint(1, 2)
            gens = {}
            for j in rng.sample([1, 2, 3], rng.randint(1, 3)):
                pool = list(all_exponents(3, j * twist))
                gens[j] = mono(*rng.sample(pool, rng.randint(1, min(len(pool), 3))))
            cases.append(GradedSeries.generated(2, twist, gens))
        level = [0]
        real_base_ideal, real_undivided = monideal.base_ideal, monideal._undivided

        def tracked(series, k):
            level[0] = k
            return real_base_ideal(series, k)

        scans = []
        monkeypatch.setattr(monideal, "base_ideal", tracked)
        monkeypatch.setattr(
            monideal,
            "_undivided",
            lambda *args: scans.append(level[0]) or real_undivided(*args),
        )
        later = 0
        for S in cases:
            K = 6
            scans.clear()
            rep = stable_base_locus(S, K)
            assert set(scans) <= set(S.generators)
            assert rep == reference_stable_base_locus(S, K)
            later += max(S.generators) > 1
        assert later >= 20

    def test_locus_recomputed_once_per_change(self, monkeypatch):
        def mono(*exps):
            return [HomogeneousForm.monomial(3, e) for e in exps]

        cases = [
            mono_series(2, 2, FLAGSHIP_EXPS),
            GradedSeries.generated(2, 1, {2: mono((1, 1, 0), (0, 1, 1))}),
            GradedSeries.generated(
                2, 1, {1: mono((1, 0, 0)), 2: mono((0, 1, 1)), 3: mono((0, 0, 3), (0, 3, 0))}
            ),
        ]
        seen = []
        for S in cases:
            # changes of the running sum, counted on the chain of `plus`
            changes, total = 0, MonomialIdeal(3)
            for k in range(1, 7):
                grown = total.plus(base_ideal(S, k))
                changes += grown != total
                total = grown
            counts = count_calls(monkeypatch)
            stable_base_locus(S, 6)
            assert counts["locus_components"] == changes
            assert counts["_minimalize"] == 0
            seen.append(changes)
        assert seen == [1, 1, 3]


class TestSheafify:
    def test_flagship_completes(self, flagship):
        Sh = sheafify(flagship, 5)
        C = GradedSeries.complete(2, 2)
        assert Sh.dims(5) == C.dims(5)
        assert Sh.level(1).is_complete

    def test_complete_unchanged(self):
        C = GradedSeries.complete(2, 2)
        Sh = sheafify(C, 4)
        assert Sh.dims(4) == C.dims(4)

    def test_principal_base_divisor_unchanged(self):
        # every level is X1^k times a complete series; the base ideal is
        # principal up to irrelevant factors, so nothing is gained
        S = mono_series(2, 2, [(2, 0, 0), (1, 1, 0), (1, 0, 1)])
        Sh = sheafify(S, 4)
        assert Sh.dims(4) == S.dims(4)
        for k in range(1, 5):
            assert Sh.level(k).pivots == S.level(k).pivots

    def test_levels_match_saturated_base_ideals(self):
        # each level must be the span of the degree piece of the saturated
        # base ideal, built from monomial forms as before: on generated
        # series and on explicit ones with zero levels and unsaturated
        # base ideals, in P^1 to P^3
        rng = random.Random(607)
        zero, grown = set(), set()
        for trial in range(72):
            d = 1 + trial % 3
            twist = rng.randint(1, 2)
            K = {1: 6, 2: 5, 3: 3}[d]
            if trial % 2:
                S = random_explicit(rng, d, twist, K)
            else:
                level = list(all_exponents(d + 1, twist))
                exps = rng.sample(level, rng.randint(1, min(len(level), 5)))
                S = mono_series(d, twist, exps)
            Sh = sheafify(S, K)
            for k in range(1, K + 1):
                deg = k * twist
                gens = base_ideal(S, k).generators
                piece = ReferenceIdeal(d + 1, gens).saturate().degree_piece(deg)
                old = FormSpan(
                    d + 1, deg, [HomogeneousForm.monomial(d + 1, e) for e in piece]
                )
                assert Sh.level(k) == old, (trial, k)
                assert Sh.level(k).pivots == tuple(sorted(piece))
                if S.level(k).dim == 0:
                    zero.add(d)
                elif Sh.level(k).dim > S.level(k).dim:
                    grown.add((d, trial % 2))
        assert zero == {1, 2, 3}
        assert grown >= {(1, 1), (2, 1), (3, 1)} and len(grown) > 3

    def test_runs_no_divisibility_test(self, monkeypatch):
        counts = count_calls(monkeypatch)
        rng = random.Random(608)
        for d in (1, 2, 3):
            sheafify(random_explicit(rng, d, 2, 3), 3)
            sheafify(mono_series(d, 2, rng.sample(list(all_exponents(d + 1, 2)), 3)), 3)
        assert counts == {"_minimalize": 0, "_undivided": 0, "locus_components": 0}

    def test_preserves_body(self, flagship):
        # sheafification can only add sections that do not move the body
        rep = okounkov_body(flagship, Flag.standard(2), 5)
        rep_sh = okounkov_body(sheafify(flagship, 5), Flag.standard(2), 5)
        assert rep.body == rep_sh.body

    def test_volume_preserved_on_birational_series(self):
        # stabilized growth agrees between a series and its sheafification
        cases = [
            mono_series(2, 2, FLAGSHIP_EXPS),
            mono_series(2, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]),
            mono_series(2, 2, [(2, 0, 0), (1, 1, 0), (1, 0, 1)]),
            GradedSeries.complete(2, 2),
            GradedSeries.complete(2, 1),
        ]
        for S in cases:
            K = 10
            a = S.hilbert_data(K)
            b = sheafify(S, K).hilbert_data(K)
            assert a.stabilized and b.stabilized
            assert a.volume == b.volume

    def test_equal_base_ideals_give_equal_volumes(self):
        # series whose saturated base ideals agree degree by degree have
        # the same stabilized growth; (S, sheafify(S)) pairs realize this
        for S in [
            mono_series(2, 2, FLAGSHIP_EXPS),
            mono_series(2, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]),
        ]:
            K = 10
            Sh = sheafify(S, K)
            for k in range(1, K + 1):
                assert saturate(base_ideal(S, k)) == saturate(base_ideal(Sh, k))
            assert S.hilbert_data(K).volume == Sh.hilbert_data(K).volume


class TestBirationality:
    def test_flagship(self, flagship):
        rep = is_birational_monomial(flagship)
        assert rep.birational and rep.index == 1 and rep.level == 1

    def test_squares_are_four_to_one(self):
        rep = is_birational_monomial(mono_series(2, 2, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]))
        assert not rep.birational
        assert rep.index == 4
        assert rep.basis == ((2, 0), (0, 2))

    def test_complete_and_quadratic_transform(self):
        assert is_birational_monomial(GradedSeries.complete(2)).birational
        assert is_birational_monomial(
            mono_series(2, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        ).birational

    def test_rank_deficient(self):
        rep = is_birational_monomial(mono_series(1, 2, [(2, 0)]))
        assert not rep.birational and rep.index is None

    def test_even_powers_on_line(self):
        rep = is_birational_monomial(mono_series(1, 2, [(2, 0), (0, 2)]))
        assert not rep.birational and rep.index == 2

    def test_index_read_off_hermite_form(self):
        # the product of the Hermite leads at full rank equals the index
        # from exactnum's own elimination of the differences, and a
        # rank-deficient difference set has none
        rng = random.Random(1513)
        deficient = 0
        for _ in range(60):
            d, m = rng.randint(1, 3), rng.randint(1, 3)
            pool = list(all_exponents(d + 1, m))
            exps = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            rep = is_birational_monomial(mono_series(d, m, exps))
            diffs = [[x - y for x, y in zip(e, exps[0])][1:] for e in exps]
            assert rep.index == lattice_index(diffs, d)
            assert rep.birational == (rep.index == 1)
            deficient += rep.index is None and len(exps) > 1
        assert deficient


class TestFullVolume:
    def test_flagship_both_true(self, flagship):
        rep = full_volume_check(flagship, 8)
        assert rep.volume == 4 and rep.expected_volume == 4
        assert rep.volume_full and rep.criterion and rep.agree

    def test_squares_both_false(self):
        rep = full_volume_check(mono_series(2, 2, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]), 8)
        assert rep.volume == 1
        assert not rep.volume_full
        assert rep.locus_empty and not rep.birational
        assert not rep.criterion and rep.agree

    def test_quadratic_transform_fails_by_base_locus(self):
        rep = full_volume_check(mono_series(2, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]), 8)
        assert rep.birational and not rep.locus_empty
        assert not rep.volume_full and rep.agree

    def test_complete_both_true(self):
        rep = full_volume_check(GradedSeries.complete(2, 2), 8)
        assert rep.volume_full and rep.criterion and rep.agree


def near_bound(rng, nvars, past=False):
    """An exponent whose entries are small or just below DEGREE_BOUND, where
    the spare bit of a key's field decides a divisibility test; with past,
    entries may also be negative or at or past the bound."""
    pool = [0, 1, 2, 3] + [DEGREE_BOUND - 1 - j for j in range(3)]
    if past:
        pool += [-1, DEGREE_BOUND, 3 * DEGREE_BOUND + 1]
    return tuple(rng.choice(pool) for _ in range(nvars))


class TestAgainstTupleOracle:
    """The packed-key ideals against the tuple ideals they replaced
    (`oracles.ReferenceIdeal`), on every public operation, in 1 to 4
    variables with entries up to DEGREE_BOUND - 1."""

    def test_ideal_operations(self):
        rng = random.Random(3101)
        units = spare = 0
        for trial in range(400):
            nvars = 1 + trial % 4
            gens = [near_bound(rng, nvars) for _ in range(rng.randint(0, 6))]
            if trial % 20 == 0:
                gens.append((0,) * nvars)
            other = [near_bound(rng, nvars) for _ in range(rng.randint(0, 4))]
            A, B = MonomialIdeal(nvars, gens), MonomialIdeal(nvars, other)
            RA, RB = ReferenceIdeal(nvars, gens), ReferenceIdeal(nvars, other)
            assert A.generators == RA.generators, (gens, A)
            assert A.is_zero == RA.is_zero
            units += A.generators == ((0,) * nvars,)
            spare += any(x >= DEGREE_BOUND - 3 for g in A.generators for x in g)
            assert A.plus(B).generators == RA.plus(RB).generators
            assert A.intersect(B).generators == RA.intersect(RB).generators
            for i in range(nvars):
                assert A.saturate_variable(i).generators == RA.saturate_variable(i).generators
            assert A.saturate().generators == RA.saturate().generators
            probes = [near_bound(rng, nvars, past=True) for _ in range(10)] + gens
            for e in probes:
                assert A.contains_monomial(e) == RA.contains_monomial(e), (A, e)
            for point in itertools.product((0, F(1, 2)), repeat=nvars):
                assert A.vanishes_at(point) == RA.vanishes_at(point)
            assert locus_components(A) == reference_locus_components(RA)
        assert units >= 10 and spare >= 200

    def test_stable_base_locus(self):
        rng = random.Random(3102)
        for trial in range(60):
            d = 1 + trial % 3
            twist = rng.randint(1, 2)
            K = {1: 6, 2: 5, 3: 3}[d]
            if trial % 2:
                S = random_explicit(rng, d, twist, K)
            else:
                level = list(all_exponents(d + 1, twist))
                S = mono_series(d, twist, rng.sample(level, rng.randint(1, min(len(level), 5))))
            rep = stable_base_locus(S, K)
            assert rep == reference_stable_base_locus(S, K)
            assert rep.contains_point((0,) * d + (1,)) == ReferenceIdeal(
                d + 1, rep.cumulative.generators
            ).vanishes_at((0,) * d + (1,))
