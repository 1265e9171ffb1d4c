"""Cross-checks of the exactnum kernels against sympy on seeded random small
matrices, zero rows and rank-deficient ones among them."""

import math
import random
from fractions import Fraction

from sympy import Matrix, Rational, ZZ
from sympy.matrices.normalforms import invariant_factors

from okbody.exactnum import (
    det,
    hermite_normal_form,
    integer_row,
    kernel,
    lattice_index,
    rref_rows,
    smith_normal_form,
)
from oracles import nullspace, rank


def random_matrix(rng: random.Random, rational: bool) -> list[list]:
    """A small matrix; some rows are zero and some repeat a combination of
    two others, so ranks fall short of the shape."""
    n, m = rng.randint(1, 5), rng.randint(1, 5)

    def entry():
        num = rng.randint(-6, 6)
        return Fraction(num, rng.choice([1, 1, 2, 3])) if rational else num

    rows = [[entry() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        roll = rng.random()
        if roll < 0.15:
            rows[i] = [0] * m
        elif roll < 0.35 and n > 2:
            a, b = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return rows


def to_sympy(rows: list[list]) -> Matrix:
    return Matrix(
        [[Rational(Fraction(v).numerator, Fraction(v).denominator) for v in row]
         for row in rows]
    )


def from_sympy(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def test_rational_kernels_match_sympy():
    rng = random.Random(2024)
    for trial in range(300):
        rows = random_matrix(rng, rational=trial % 2 == 0)
        ours, pivots = rref_rows(rows)
        ref, ref_pivots = to_sympy(rows).rref()
        r = len(ref_pivots)
        assert pivots == list(ref_pivots)
        assert ours == [[from_sympy(v) for v in ref.row(i)] for i in range(r)]
        assert rank(rows) == to_sympy(rows).rank() == r
        if len(rows) == len(rows[0]):
            assert det(rows) == from_sympy(to_sympy(rows).det())
        rational = nullspace(rows)
        assert len(rational) == len(rows[0]) - r
        for v in rational:
            assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in rows)
        if rational:
            assert rank(rational) == len(rational)
        # the integer kernel: primitive, and a positive multiple of sympy's
        # vector for the same free column
        ref_kernel = to_sympy(rows).nullspace()
        ints = kernel([integer_row(row) for row in rows], len(rows[0]))
        assert len(ints) == len(ref_kernel) == len(rows[0]) - r
        free = [j for j in range(len(rows[0])) if j not in ref_pivots]
        for v, ref_v, f in zip(ints, ref_kernel, free):
            assert math.gcd(*v) == 1 and v[f] > 0
            assert v == [v[f] * from_sympy(x) for x in ref_v]


def test_lattice_forms_match_sympy():
    rng = random.Random(2025)
    for _ in range(200):
        rows = random_matrix(rng, rational=False)
        factors = list(invariant_factors(to_sympy(rows), domain=ZZ))
        assert smith_normal_form(rows) == [abs(int(f)) for f in factors]
        H, U = hermite_normal_form(rows)
        assert Matrix(H) == Matrix(U) * to_sympy(rows)
        assert abs(Matrix(U).det()) == 1
        assert list(invariant_factors(Matrix(H), domain=ZZ)) == factors
        # the index of the row lattice, against sympy's factors rather than
        # the Smith routine that shares the Hermite step with it
        m = len(rows[0])
        nonzero = [abs(int(f)) for f in factors if f]
        index = math.prod(nonzero) if len(nonzero) == m else None
        assert lattice_index(rows, m) == index
