"""Exact linear algebra kernel tests.

Random cases are seeded and the derived checks run two independent routes
(e.g. Smith factors against minor gcds) so regressions cannot hide behind
the implementation under test.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbody import exactnum
from okbody.exactnum import (
    det,
    feasible_nonneg,
    hermite_normal_form,
    in_cone,
    lattice_index,
    maximize,
    rref_rows,
    smith_normal_form,
    xgcd,
)
from oracles import nullspace, rank, solve_rational_system


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def random_int_matrix(rng, n, m, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


# ---------------------------------------------------------------------------
# xgcd


def test_xgcd_identity():
    rng = random.Random(101)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_xgcd_zero():
    assert xgcd(0, 0)[0] == 0
    assert xgcd(7, 0)[0] == 7
    assert xgcd(0, -7)[0] == 7


# ---------------------------------------------------------------------------
# Hermite normal form


def is_hnf(H):
    # row-style: positive pivots stepping right, zeros below, reduced above
    last = -1
    for i, row in enumerate(H):
        piv = next((j for j, v in enumerate(row) if v != 0), None)
        if piv is None:
            assert all(not any(r) for r in H[i:])
            break
        assert piv > last
        last = piv
        assert row[piv] > 0
        for k in range(i):
            assert 0 <= H[k][piv] < row[piv]
    return True


def test_hnf_known():
    H, U = hermite_normal_form([[1, 1, 1], [1, 0, 1], [0, 2, 1]])
    assert H == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    H, _ = hermite_normal_form([[2, 4], [0, 6]])
    assert H == [[2, 4], [0, 6]]
    H, _ = hermite_normal_form([[0, 0], [0, 0]])
    assert H == [[0, 0], [0, 0]]


def test_hnf_properties():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        M = random_int_matrix(rng, n, m)
        H, U = hermite_normal_form(M)
        assert mat_mul(U, M) == H
        assert abs(det([[F(v) for v in row] for row in U])) == 1
        assert is_hnf(H)


def test_hnf_row_span_preserved():
    # U is invertible over the integers, so H and M generate the same
    # lattice; check both inclusions via integral solves
    rng = random.Random(203)
    for _ in range(20):
        M = random_int_matrix(rng, 3, 3)
        H, U = hermite_normal_form(M)
        for row in M:
            sol = solve_rational_system(
                [[F(H[i][j]) for i in range(3)] for j in range(3)],
                [F(v) for v in row],
            )
            if sol is not None:
                nz = [i for i, h in enumerate(H) if any(h)]
                assert all(
                    sol[i].denominator == 1 for i in nz
                ), (M, H, row, sol)


# ---------------------------------------------------------------------------
# Smith normal form


def minor_gcd(M, k):
    n, m = len(M), len(M[0])
    g = 0
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.combinations(range(m), k):
            sub = [[F(M[i][j]) for j in cols] for i in rows]
            g = xgcd(g, int(det(sub)))[0]
    return g


def test_snf_known():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]
    assert smith_normal_form([[1, 2], [2, 4]]) == [1, 0]
    assert smith_normal_form([[0]]) == [0]
    assert smith_normal_form([[6]]) == [6]


def test_snf_against_minor_gcds():
    # d_1 * ... * d_k equals the gcd of all k x k minors
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        M = random_int_matrix(rng, n, m, -5, 5)
        d = smith_normal_form(M)
        assert len(d) == min(n, m)
        prod = 1
        for k, dk in enumerate(d, start=1):
            if dk == 0:
                assert minor_gcd(M, k) == 0
                continue
            prod *= dk
            assert minor_gcd(M, k) == prod, (M, d, k)
        for a, b in zip(d, d[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
            # zeros trail
            if a == 0:
                assert b == 0


# ---------------------------------------------------------------------------
# lattice index


def coset_count(gens, r):
    # brute-force coset enumeration inside one fundamental box
    n = len(gens)
    Mt = [[F(gens[i][j]) for i in range(n)] for j in range(r)]

    def in_lattice(x):
        sol = solve_rational_system(Mt, [F(v) for v in x])
        if sol is None:
            return False
        # verify: free variables may hide non-integrality, recheck product
        combo = [
            sum(sol[i] * gens[i][j] for i in range(n)) for j in range(r)
        ]
        if combo != [F(v) for v in x]:
            return False
        return all(s.denominator == 1 for s in sol)

    bound = 8
    reps = []
    for x in itertools.product(range(bound), repeat=r):
        if not any(in_lattice([a - b for a, b in zip(x, y)]) for y in reps):
            reps.append(list(x))
    return len(reps)


def test_lattice_index_known():
    assert lattice_index([[1, 0], [0, 1]], 2) == 1
    assert lattice_index([[2, 0], [0, 2]], 2) == 4
    assert lattice_index([[1, 1], [1, -1]], 2) == 2
    assert lattice_index([[1, 1]], 2) is None
    assert lattice_index([], 2) is None
    assert lattice_index([[1, 0], [0, 1], [3, 7]], 2) == 1


def test_lattice_index_against_coset_count():
    rng = random.Random(404)
    done = 0
    while done < 12:
        gens = random_int_matrix(rng, 2, 2, -3, 3)
        idx = lattice_index(gens, 2)
        if idx is None or idx > 8:
            continue
        assert idx == coset_count(gens, 2), gens
        done += 1


@st.composite
def generator_sets(draw):
    """Integer vectors of one length, among them zero rows and integer
    combinations of the others, so that many sets are rank deficient."""
    r = draw(st.integers(1, 4))
    row = st.lists(st.integers(-9, 9), min_size=r, max_size=r)
    gens = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if gens:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
            gens.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(r)])
    return r, gens


@settings(derandomize=True, deadline=None, max_examples=300)
@given(generator_sets())
def test_lattice_index_is_product_of_smith_factors(case):
    r, gens = case
    factors = [f for f in smith_normal_form(gens) if f] if gens else []
    expected = None
    if len(factors) == r:
        expected = 1
        for f in factors:
            expected *= f
    assert lattice_index(gens, r) == expected


# ---------------------------------------------------------------------------
# rref / rank / solve / nullspace


def test_rref_canonical():
    R, piv = rref_rows([[F(2), F(4)], [F(1), F(2)]])
    assert R == [[F(1), F(2)]] and piv == [0]
    R, piv = rref_rows(
        [[F(0), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(2)]]
    )
    assert piv == [0, 1]
    assert R == [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]


def test_rref_is_projection():
    # same row space in either input order gives the same canonical rows
    rng = random.Random(505)
    for _ in range(30):
        rows = [
            [F(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)
        ]
        R1, p1 = rref_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        R2, p2 = rref_rows(shuffled)
        assert R1 == R2 and p1 == p2
        assert rank(rows) == len(p1)


def test_solve_and_nullspace():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        A = [[F(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]
        x0 = [F(rng.randint(-3, 3)) for _ in range(m)]
        b = [sum(A[i][j] * x0[j] for j in range(m)) for i in range(n)]
        x = solve_rational_system(A, b)
        assert x is not None
        assert [
            sum(A[i][j] * x[j] for j in range(m)) for i in range(n)
        ] == b
        ns = nullspace(A)
        assert len(ns) == m - rank(A)
        for v in ns:
            assert all(
                sum(A[i][j] * v[j] for j in range(m)) == 0
                for i in range(n)
            )


def test_solve_inconsistent():
    assert solve_rational_system([[F(1)], [F(1)]], [F(1), F(2)]) is None


# ---------------------------------------------------------------------------
# determinant


def det_laplace(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    total = F(0)
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in A[1:]]
        term = A[0][j] * det_laplace(sub)
        total += term if j % 2 == 0 else -term
    return total


def test_det_against_laplace():
    # rational entries; every third matrix gets a zero row or a row
    # combined from the others
    rng = random.Random(707)
    for trial in range(120):
        n = rng.randint(1, 5)
        A = [
            [F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(n)
        ]
        i = rng.randrange(n)
        if trial % 3 == 1:
            A[i] = [F(0)] * n
        elif trial % 3 == 2 and n > 1:
            others = rng.sample([r for k, r in enumerate(A) if k != i], min(2, n - 1))
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in others]
            A[i] = [sum(c * r[j] for c, r in zip(coeffs, others)) for j in range(n)]
        assert det(A) == det_laplace(A)
        if trial % 3 and n > 1:
            assert det(A) == 0


def test_det_row_permutation_sign():
    # the rows of a triangular matrix in random order enter the
    # elimination with their leads out of order, so a lost sign shows
    rng = random.Random(708)
    for _ in range(80):
        n = rng.randint(2, 6)
        T = [[F(0)] * n for _ in range(n)]
        diag = F(1)
        for i in range(n):
            T[i][i] = F(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 7))
            diag *= T[i][i]
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    T[i][j] = F(rng.randint(-5, 5), rng.randint(1, 7))
        A = [
            [F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(n)
        ]
        perm = rng.sample(range(n), n)
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        assert det([T[i] for i in perm]) == sign * diag
        assert det([A[i] for i in perm]) == sign * det(A)


# ---------------------------------------------------------------------------
# exact simplex


def test_lp_known():
    st, x, v = maximize([[1, 1]], [2], [0, 1])
    assert (st, x, v) == ("optimal", [F(0), F(2)], F(2))
    st, x, v = maximize([[1, 2], [3, 2]], [4, 6], [1, 1])
    assert (st, v) == ("optimal", F(5, 2))
    assert x == [F(1), F(3, 2)]
    st, _, _ = maximize([[1], [1]], [1, 2], [1])
    assert st == "infeasible"
    st, _, _ = maximize([[1, -1]], [1], [1, 0])
    assert st == "unbounded"
    st, _, v = maximize([[1, 1]], [0], [1, 0])
    assert (st, v) == ("optimal", F(0))
    # negative right hand sides are normalized internally
    st, _, v = maximize([[-1, -1]], [-2], [0, 1])
    assert (st, v) == ("optimal", F(2))


def test_lp_feasible_systems_never_infeasible():
    # build b = A x0 with x0 >= 0, so the program always has a point
    rng = random.Random(808)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        x0 = [rng.randint(0, 3) for _ in range(m)]
        b = [sum(A[i][j] * x0[j] for j in range(m)) for i in range(n)]
        c = [rng.randint(-2, 2) for _ in range(m)]
        st, x, v = maximize(A, b, c)
        assert st in ("optimal", "unbounded")
        if st == "optimal":
            assert all(t >= 0 for t in x)
            assert [
                sum(A[i][j] * x[j] for j in range(m)) for i in range(n)
            ] == [F(t) for t in b]
            assert v == sum(F(ci) * xi for ci, xi in zip(c, x))
            assert v >= sum(F(ci) * t for ci, t in zip(c, x0))


def test_lp_optimum_matches_highs():
    """Status and optimal value agree with scipy's HiGHS on seeded programs
    of up to 3 rows and 5 columns: feasible by construction, free right
    hand sides, b = 0, and a last row that combines the others."""
    from scipy.optimize import linprog

    rng = random.Random(1511)
    seen = set()
    for _ in range(400):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        kind = rng.choice(["feasible", "free", "zero", "redundant"])
        if kind == "redundant" and n > 1:
            k = rng.randint(-2, 2)
            A[-1] = [k * a + b for a, b in zip(A[0], A[n - 2])]
        if kind == "zero":
            b = [0] * n
        elif kind == "free":
            b = [rng.randint(-4, 4) for _ in range(n)]
        else:
            x0 = [rng.randint(0, 3) for _ in range(m)]
            b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        c = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
        st, x, v = maximize(A, b, c)
        ref = linprog(
            [-float(ci) for ci in c],
            A_eq=A,
            b_eq=b,
            bounds=[(0, None)] * m,
            method="highs",
        )
        assert st == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        seen.add(st)
        if st == "optimal":
            assert abs(float(v) + ref.fun) < 1e-9
            assert all(t >= 0 for t in x)
            assert [sum(a * t for a, t in zip(row, x)) for row in A] == b
            assert v == sum(ci * t for ci, t in zip(c, x))
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_lp_drives_artificial_out_of_basis(monkeypatch):
    # phase 1 ends with the artificial of row 1 basic at zero; it leaves
    # the basis by a pivot on the real column 1 of that row
    pivots = []
    original = exactnum._pivot

    def recorded(T, row, col, d):
        pivots.append((row, col))
        return original(T, row, col, d)

    monkeypatch.setattr(exactnum, "_pivot", recorded)
    assert maximize([[1, 1], [1, -1]], [0, 0], [1, 1]) == (
        "optimal",
        [F(0), F(0)],
        F(0),
    )
    assert pivots == [
        (0, 2),  # phase-1 pricing of the two artificial columns
        (1, 3),
        (0, 0),  # the one phase-1 simplex step
        (1, 1),  # the artificial of row 1 driven out
        (0, 0),  # phase-2 pricing of the two basic real columns
        (1, 1),
    ]


def exact_pivot(original):
    """`exactnum._pivot` behind a check that every division it makes is
    exact: each numerator p * a - f * b, with the pivot row negated when
    the pivot is negative, is a multiple of the old denominator."""

    def checked(T, row, col, d):
        assert d > 0
        pr = T[row]
        p = pr[col]
        if p < 0:
            p, pr = -p, [-v for v in pr]
        for i, r in enumerate(T):
            if i != row:
                f = r[col]
                assert all((p * a - f * b) % d == 0 for a, b in zip(r, pr))
        return original(T, row, col, d)

    return checked


def seeded_lp(rng):
    """A seeded program of up to 5 rows and 8 columns: rational entries,
    right hand sides that are free, zero or reached by a nonnegative
    point, degenerate vertices (a reached point with zeros), and rows
    that repeat a combination of the others."""
    n, m = rng.randint(1, 5), rng.randint(1, 8)

    def entry():
        return F(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3, 4, 6]))

    A = [[entry() if rng.random() < 0.8 else 0 for _ in range(m)] for _ in range(n)]
    kind = rng.choice(["free", "zero", "reached", "degenerate"])
    if kind == "zero":
        b = [0] * n
    elif kind == "free":
        b = [entry() for _ in range(n)]
    else:
        x0 = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(m)]
        if kind == "degenerate":
            x0 = [x if rng.random() < 0.4 else 0 for x in x0]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    if n > 1 and rng.random() < 0.3:
        k, l = F(rng.randint(-2, 2), rng.randint(1, 2)), rng.randint(-1, 1)
        i = rng.randrange(n - 1)
        A[-1] = [k * a + l * a2 for a, a2 in zip(A[i], A[0])]
        b[-1] = k * b[i] + l * b[0]
    c = [entry() for _ in range(m)]
    return A, b, c


def test_lp_matches_fraction_simplex(monkeypatch):
    """On 600 seeded programs the integer tableau returns what the
    Fraction tableau it replaced returns, status, x and value alike,
    after the same pivots, and every pivot division is exact."""
    import oracles

    ours, theirs, flips = [], [], []
    original = exactnum._pivot
    checked = exact_pivot(original)

    def recorded(T, row, col, d):
        ours.append((row, col))
        flips.append(T[row][col] < 0)
        return checked(T, row, col, d)

    reference = oracles._fraction_pivot

    def reference_recorded(T, row, col):
        theirs.append((row, col))
        reference(T, row, col)

    monkeypatch.setattr(exactnum, "_pivot", recorded)
    monkeypatch.setattr(oracles, "_fraction_pivot", reference_recorded)
    rng = random.Random(2323)
    seen = {}
    for _ in range(600):
        A, b, c = seeded_lp(rng)
        ours.clear()
        theirs.clear()
        got = maximize(A, b, c)
        assert got == oracles.reference_maximize(A, b, c), (A, b, c)
        assert ours == theirs, (A, b, c)
        seen[got[0]] = seen.get(got[0], 0) + 1
    assert set(seen) == {"optimal", "infeasible", "unbounded"}
    assert min(seen.values()) >= 50, seen
    # negative pivots, where the sign fix acts
    assert sum(flips) >= 20


def test_lp_negative_pivot_keeps_denominator_positive(monkeypatch):
    """Driving an artificial out of the basis can pivot on a negative
    entry; the pivot row is negated and the denominator stays positive."""
    steps = []
    original = exactnum._pivot

    def recorded(T, row, col, d):
        entry = T[row][col]
        new = original(T, row, col, d)
        steps.append((row, col, entry, new))
        return new

    monkeypatch.setattr(exactnum, "_pivot", recorded)
    # phase 1 ends with the artificial of row 1 basic at zero; the first
    # real column of its row holds -2
    A, b, c = [[2, 0, 1], [0, -3, 1]], [0, 0], [-1, -1, 1]
    assert maximize(A, b, c) == ("optimal", [F(0)] * 3, F(0))
    assert (1, 0, -2, 2) in steps
    assert all(new == abs(entry) > 0 for _, _, entry, new in steps)


def test_feasible_nonneg():
    f = feasible_nonneg([[1, 1]], [2])
    assert f is not None and f[0] + f[1] == 2 and min(f) >= 0
    assert feasible_nonneg([[1], [1]], [1, 2]) is None


def test_in_cone():
    assert in_cone([[1, 0], [1, 1]], [3, 2]) == [F(1), F(2)]
    assert in_cone([[1, 0], [0, 1]], [-1, 0]) is None
    assert in_cone([], [0, 0]) == []
    assert in_cone([], [1, 0]) is None


def test_in_cone_roundtrip():
    rng = random.Random(909)
    for _ in range(30):
        k = rng.randint(1, 4)
        gens = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(k)]
        coeffs = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(k)]
        target = [
            sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(3)
        ]
        w = in_cone(gens, target)
        assert w is not None
        assert all(t >= 0 for t in w)
        assert [
            sum(wi * g[j] for wi, g in zip(w, gens)) for j in range(3)
        ] == [F(t) for t in target]
