"""Flag and valuation tests."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbody.errors import InputError
from okbody.exactnum import cleared_rows, det, inverse_lines, lattice_index
from okbody.flagval import (
    Flag,
    filtered_dimension,
    indecomposables,
    valuation,
    valuation_set,
)
from okbody.polyform import DEGREE_BOUND, FormSpan, HomogeneousForm as HF, all_exponents, pack
from oracles import (
    reference_filtered_dimension,
    reference_indecomposables,
    reference_inverse,
)


def test_standard_flag():
    fl = Flag.standard(2)
    assert fl.d == 2 and fl.is_standard
    assert fl == Flag([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert hash(fl) == hash(Flag.standard(2))


def test_flag_requires_invertible():
    with pytest.raises(InputError):
        Flag([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(InputError):
        Flag([[1, 0], [0, 1], [0, 0]])


def test_random_flag_deterministic():
    a = Flag.random(2, 9)
    b = Flag.random(2, 9)
    assert a == b and a.matrix == b.matrix
    assert det([list(r) for r in a.matrix]) != 0
    assert Flag.random(2, 10) != a or True  # different seed may coincide, no assert


def test_flag_substitution_is_inverse():
    fl = Flag.random(3, 5)
    n = fl.d + 1
    prod = [
        [sum(fl.matrix[i][k] * fl.lines[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert fl.den > 0
    assert prod == [[fl.den * (i == j) for j in range(n)] for i in range(n)]


def test_valuation_standard_flag():
    fl = Flag.standard(2)
    x, y, z = (HF.variable(3, i) for i in range(3))
    assert valuation(y * z, fl) == (0, 1)
    assert valuation(x * x, fl) == (2, 0)
    assert valuation(z * z, fl) == (0, 0)
    assert valuation(x * x + y * z, fl) == (0, 1)
    with pytest.raises(InputError):
        valuation(HF.zero(3), fl)


def test_valuation_vanishing_orders():
    # first coordinate of the valuation is the order of vanishing along
    # the flag hyperplane, tested against explicit divisibility
    rng = random.Random(11)
    fl = Flag.standard(2)
    x = HF.variable(3, 0)
    for _ in range(10):
        base = HF(
            3,
            {
                (0, 1, 1): F(rng.randint(1, 3)),
                (0, 0, 2): F(rng.randint(1, 3)),
            },
        )
        order = rng.randint(0, 3)
        f = base
        for _ in range(order):
            f = f * x
        assert valuation(f, fl)[0] == order


def test_valuation_under_general_flag():
    # flag cut by X2, X3 with point [1:0:0]: valuation of X1 is (0,0)
    fl = Flag([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    x, y, z = (HF.variable(3, i) for i in range(3))
    assert valuation(x, fl) == (0, 0)
    assert valuation(y, fl) == (1, 0)
    assert valuation(z, fl) == (0, 1)


def test_valuation_set_matches_pointwise():
    # pivots of the echelon basis are exactly the valuations obtained by
    # minimizing over the whole space
    span = FormSpan(
        3,
        2,
        [
            HF(3, {(2, 0, 0): F(1), (0, 1, 1): F(1)}),
            HF(3, {(0, 1, 1): F(2)}),
            HF(3, {(0, 0, 2): F(1), (2, 0, 0): F(3)}),
        ],
    )
    vs = valuation_set(span)
    assert len(vs) == span.dim == 3
    fl = Flag.standard(2)
    for f in span.basis:
        assert valuation(f, fl) in vs
    assert set(vs) == {(0, 0), (0, 1), (2, 0)}


def test_filtered_dimension_counts_dominating_pivots():
    span = FormSpan.complete(3, 2)
    assert filtered_dimension(span, (0, 0)) == 6
    assert filtered_dimension(span, (1,)) == 3
    assert filtered_dimension(span, (1, 0)) == 3
    assert filtered_dimension(span, (1, 1)) == 1
    assert filtered_dimension(span, (2, 2)) == 0
    with pytest.raises(InputError):
        filtered_dimension(span, (1, 1, 1))
    with pytest.raises(InputError):
        filtered_dimension(span, ())


def test_filtered_dimension_matches_oracle():
    # seeded spans of random forms in P^1..P^3, sigma of every length 1..d
    rng = random.Random(2201)
    lengths = set()
    for _ in range(120):
        d, degree = rng.randint(1, 3), rng.randint(0, 4)
        pool = list(all_exponents(d + 1, degree))
        forms = [
            HF(d + 1, {e: rng.randint(-3, 3) for e in rng.sample(pool, 2)}, degree)
            if len(pool) > 1
            else HF(d + 1, {pool[0]: 1}, degree)
            for _ in range(rng.randint(0, 5))
        ]
        span = FormSpan(d + 1, degree, forms)
        r = rng.randint(1, d)
        lengths.add((d, r))
        sigma = tuple(rng.randint(0, degree + 1) for _ in range(r))
        assert filtered_dimension(span, sigma) == reference_filtered_dimension(span, sigma)
        assert filtered_dimension(span, list(sigma)) == reference_filtered_dimension(span, sigma)
        # an entry below zero bounds nothing, one at the degree bound everything
        for edge in ((-1,) + sigma[1:], sigma[:-1] + (DEGREE_BOUND,)):
            assert filtered_dimension(span, edge) == reference_filtered_dimension(span, edge)
    assert lengths == {(d, r) for d in (1, 2, 3) for r in range(1, d + 1)}


def test_filtered_dimension_antitone():
    # raising the vanishing orders can only cut the filtered space down
    rng = random.Random(12)
    span = FormSpan.complete(3, 3)
    for _ in range(20):
        a = (rng.randint(0, 3), rng.randint(0, 3))
        b = (a[0] + rng.randint(0, 2), a[1] + rng.randint(0, 2))
        assert filtered_dimension(span, b) <= filtered_dimension(span, a)
    assert filtered_dimension(span, (0, 0)) == span.dim


def test_kept_points_generate_the_value_group():
    # points on the doubled lattice in the first coordinate; level 2 is all
    # sums, so only level 1 is kept, and it generates the same group
    kept = [v + (k,) for v, k in indecomposables([[0, 2], [0, 2, 4]], 1)]
    assert kept == [(0, 1), (2, 1)]
    points = [(0, 1), (2, 1), (0, 2), (2, 2), (4, 2)]
    assert lattice_index(kept, 2) == lattice_index(points, 2) == 2
    assert indecomposables([[]], 1) == [] == indecomposables([], 1)
    assert lattice_index([], 2) is None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_indecomposables_match_pointwise_scan(data):
    """The one-pass filter keeps the points the point-by-point scan keeps,
    in the same order, on value sets with empty and missing levels and with
    levels that hold sums of lower ones; it reads the levels in order, a
    missing level as an empty one."""
    d = data.draw(st.integers(1, 3), label="d")
    K = data.draw(st.integers(1, 8), label="K")
    levels: dict[int, tuple] = {}
    for k in range(1, K + 1):
        kind = data.draw(st.sampled_from(["gap", "empty", "points"]), label="kind")
        if kind == "gap":
            continue
        if kind == "empty":
            levels[k] = ()
            continue
        vector = st.tuples(*[st.integers(0, k)] * d)
        points = data.draw(st.lists(vector, max_size=8, unique=True), label="points")
        j = data.draw(st.integers(1, k), label="j")
        if j < k and data.draw(st.booleans(), label="sums"):
            points += [
                tuple(x + y for x, y in zip(u, w))
                for u in levels.get(j, ())
                for w in levels.get(k - j, ())
            ]
        levels[k] = tuple(dict.fromkeys(points))
    keys = ([pack(v) for v in levels.get(k, ())] for k in range(1, K + 1))
    assert indecomposables(keys, d) == reference_indecomposables(levels)


def seeded_matrix(rng: random.Random, n: int) -> list[list[F]]:
    return [
        [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]


def test_flag_inverse_matches_rational_elimination():
    """The integer inverse of a flag equals the Fraction inverse by
    rref_rows, and its lines and denominator are those cleared_rows gives
    for it; a singular matrix is refused.  So is the inverse by
    inverse_lines of seeded integer matrices of size 1 to 5, and a
    singular one gives None."""
    rng = random.Random(20)
    inverted = singular = 0
    for n in (2, 3, 4):
        for _ in range(60):
            m = seeded_matrix(rng, n)
            if rng.random() < 0.2:
                a, b = rng.sample(range(n), 2)
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                m[a] = [c * v for v in m[b]]
            ref = reference_inverse(m)
            if ref is None:
                singular += 1
                with pytest.raises(InputError, match="flag: matrix is singular"):
                    Flag(m)
                continue
            inverted += 1
            fl = Flag(m)
            # lines / den is the inverse, over the lcm of its denominators
            assert (list(fl.lines), fl.den) == cleared_rows(ref)
    assert inverted > 100 and singular > 10
    inverted = singular = 0
    for n in range(1, 6):
        for _ in range(40):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                a, b = rng.sample(range(n), 2)
                m[a] = [rng.randint(-2, 2) * v for v in m[b]]
            ref = reference_inverse(m)
            inv = inverse_lines(m)
            if ref is None:
                singular += 1
                assert inv is None
                continue
            inverted += 1
            lines, den = inv
            assert ([tuple(row) for row in lines], den) == cleared_rows(ref)
    assert inverted > 100 and singular > 20
