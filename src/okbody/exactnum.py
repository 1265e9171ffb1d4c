"""Exact integer and rational linear algebra.

Everything here is float-free.  Rationals are `fractions.Fraction`
(arbitrary precision, always reduced, positive denominator); matrices are
plain lists of row lists.  The module provides the normal forms and solvers
the rest of the package is built on:

* `hermite_normal_form` : row-style HNF with a unimodular witness,
* `smith_normal_form`   : invariant factors d1 | d2 | ...,
* `lattice_index`       : index of an integer row span in Z^r,
* `solve_rational_system`, `rref_rows`, `nullspace`, `rank`, `det`,
* `feasible_nonneg`, `maximize`, `in_cone` : a small exact simplex
  (Bland's rule), used by the surface engine.

Type aliases: IntMatrix = list[list[int]], RatMatrix = list[list[Fraction]],
IntVector/RatVector the corresponding row types.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import InputError, InvariantError

Rat = Fraction
IntMatrix = "list[list[int]]"
RatMatrix = "list[list[Fraction]]"


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _check_rect(M: Sequence[Sequence], what: str) -> tuple[int, int]:
    if not M:
        raise InputError(f"{what}: empty matrix")
    ncols = len(M[0])
    for row in M:
        if len(row) != ncols:
            raise InputError(f"{what}: ragged rows")
    return len(M), ncols


def hermite_normal_form(M: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U * M, U unimodular (|det U| = 1), H in row
    echelon form with positive pivots, entries above each pivot reduced to
    lie in [0, pivot), and zero rows at the bottom.  The form is canonical:
    hermite_normal_form(H)[0] == H.
    """
    n, m = _check_rect(M, "hermite_normal_form")
    H = [[int(v) for v in row] for row in M]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def combine(i: int, j: int, a: int, b: int, c: int, d: int) -> None:
        # rows (i, j) <- (a*i + b*j, c*i + d*j); caller keeps ad - bc = +-1
        H[i], H[j] = (
            [a * x + b * y for x, y in zip(H[i], H[j])],
            [c * x + d * y for x, y in zip(H[i], H[j])],
        )
        U[i], U[j] = (
            [a * x + b * y for x, y in zip(U[i], U[j])],
            [c * x + d * y for x, y in zip(U[i], U[j])],
        )

    r = 0
    for c in range(m):
        # clear column c below row r down to a single entry at row r
        nz = [i for i in range(r, n) if H[i][c] != 0]
        if not nz:
            continue
        if nz[0] != r:
            H[r], H[nz[0]] = H[nz[0]], H[r]
            U[r], U[nz[0]] = U[nz[0]], U[r]
        for i in range(r + 1, n):
            if H[i][c] == 0:
                continue
            a, b = H[r][c], H[i][c]
            g, x, y = xgcd(a, b)
            combine(r, i, x, y, -(b // g), a // g)
        if H[r][c] < 0:
            H[r] = [-v for v in H[r]]
            U[r] = [-v for v in U[r]]
        p = H[r][c]
        for i in range(r):
            q = H[i][c] // p
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
        if r == n:
            break
    return H, U


def smith_normal_form(M: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors of an integer matrix: [d1, d2, ...] with d1 | d2 | ...

    Trailing zeros fill up to min(rows, cols) when the rank is deficient.
    """
    n, m = _check_rect(M, "smith_normal_form")
    A = [[int(v) for v in row] for row in M]

    def row_op(i: int, j: int, a: int, b: int, c: int, d: int) -> None:
        A[i], A[j] = (
            [a * x + b * y for x, y in zip(A[i], A[j])],
            [c * x + d * y for x, y in zip(A[i], A[j])],
        )

    def col_op(i: int, j: int, a: int, b: int, c: int, d: int) -> None:
        for row in A:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    factors: list[int] = []
    t = 0
    while t < min(n, m):
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # divisible entries are cleared by plain subtraction, which
            # leaves the pivot line alone; the unimodular gcd op is reserved
            # for the rest, where it strictly shrinks |A[t][t]|, so every
            # pass either finishes or makes progress
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    a, b = A[t][t], A[i][t]
                    if b % a == 0:
                        q = b // a
                        A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    else:
                        g, x, y = xgcd(a, b)
                        row_op(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    a, b = A[t][t], A[t][j]
                    if b % a == 0:
                        q = b // a
                        for row in A:
                            row[j] -= q * row[t]
                    else:
                        g, x, y = xgcd(a, b)
                        col_op(t, j, x, y, -(b // g), a // g)
            if all(A[i][t] == 0 for i in range(t + 1, n)) and all(
                A[t][j] == 0 for j in range(t + 1, m)
            ):
                # divisibility fix: pivot must divide the whole tail block
                bad = None
                for i in range(t + 1, n):
                    for j in range(t + 1, m):
                        if A[i][j] % A[t][t] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                A[t] = [x + y for x, y in zip(A[t], A[bad])]
        factors.append(abs(A[t][t]))
        t += 1
    factors += [0] * (min(n, m) - len(factors))
    for a, b in zip(factors, factors[1:]):
        if b and a and b % a != 0:
            raise InvariantError("smith_normal_form: divisibility chain broken")
    return factors


def lattice_index(generators: Sequence[Sequence[int]], ambient_rank: int) -> int | None:
    """Index of the subgroup of Z^r generated by the given integer vectors.

    Returns None when the span has rank < ambient_rank (infinite index).
    """
    if ambient_rank <= 0:
        raise InputError("lattice_index: ambient_rank must be positive")
    gens = [list(g) for g in generators if any(g)]
    if not gens:
        return None
    for g in gens:
        if len(g) != ambient_rank:
            raise InputError("lattice_index: generator length != ambient_rank")
    factors = smith_normal_form(gens)
    nonzero = [f for f in factors if f != 0]
    if len(nonzero) < ambient_rank:
        return None
    idx = 1
    for f in nonzero:
        idx *= f
    return idx


# ---------------------------------------------------------------------------
# rational elimination


def rref_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns (R, pivot_cols): nonzero rows of the RREF with leading entries 1,
    each pivot column cleared elsewhere, pivot columns strictly increasing.
    The elimination core runs on denominator-cleared integer rows for speed;
    results are exact.
    """
    work: list[tuple[list[int], int]] = []  # (integer row, index) kept stable
    for row in rows:
        fr = [Fraction(v) for v in row]
        if all(v == 0 for v in fr):
            continue
        denlcm = 1
        for v in fr:
            denlcm = denlcm * v.denominator // gcd(denlcm, v.denominator)
        iv = [int(v * denlcm) for v in fr]
        g = 0
        for v in iv:
            g = gcd(g, v)
        if g > 1:
            iv = [v // g for v in iv]
        work.append((iv, len(work)))
    if not work:
        return [], []
    ncols = len(work[0][0])
    basis: list[list[int]] = []  # echelon, pivot cols strictly increasing
    pivots: list[int] = []
    for iv, _ in work:
        cur = iv
        for b, p in zip(basis, pivots):
            if cur[p] != 0:
                # cur <- b[p]*cur - cur[p]*b, then strip content
                f1, f2 = b[p], cur[p]
                cur = [f1 * x - f2 * y for x, y in zip(cur, b)]
                g = 0
                for v in cur:
                    g = gcd(g, v)
                if g > 1:
                    cur = [v // g for v in cur]
        lead = next((j for j, v in enumerate(cur) if v != 0), None)
        if lead is None:
            continue
        if cur[lead] < 0:
            cur = [-v for v in cur]
        pos = 0
        while pos < len(pivots) and pivots[pos] < lead:
            pos += 1
        basis.insert(pos, cur)
        pivots.insert(pos, lead)
    # back-substitution: clear pivot columns above, then normalize to 1
    for i in range(len(basis) - 1, -1, -1):
        p = pivots[i]
        for j in range(i):
            if basis[j][p] != 0:
                f1, f2 = basis[i][p], basis[j][p]
                basis[j] = [f1 * x - f2 * y for x, y in zip(basis[j], basis[i])]
                g = 0
                for v in basis[j]:
                    g = gcd(g, v)
                if g > 1:
                    basis[j] = [v // g for v in basis[j]]
                if basis[j][pivots[j]] < 0:
                    basis[j] = [-v for v in basis[j]]
    out = []
    for row, p in zip(basis, pivots):
        lead = Fraction(row[p])
        out.append([Fraction(v) / lead for v in row])
    return out, pivots


def rank(A: Sequence[Sequence[Fraction]]) -> int:
    return len(rref_rows(A)[0])


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


def nullspace(A: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of A, one vector per free column."""
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


def det(A: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination."""
    n, m = _check_rect(A, "det")
    if n != m:
        raise InputError("det: matrix not square")
    M = [[Fraction(v) for v in row] for row in A]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
            M[i][k] = Fraction(0)
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


# ---------------------------------------------------------------------------
# exact simplex (Bland's rule, two phases)


def _simplex_core(
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
        row = best[2]
        piv = T[row][enter]
        T[row] = [v / piv for v in T[row]]
        for i in range(len(T)):
            if i != row and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * b for a, b in zip(T[i], T[row])]
        basis[row] = enter


def maximize(
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
    # reduced costs for maximizing -(sum of artificials): price out the
    # basic artificials, leaving +sum(A[i][j]) on the real columns
    obj = [Fraction(0)] * (m + n) + [Fraction(0)]
    for i in range(n):
        obj = [o + a for o, a in zip(obj, T[i])]
    for j in range(m, m + n):
        obj[j] = Fraction(0)
    T.append(obj)
    _simplex_core(T, basis, m + n)
    if T[-1][-1] != 0:
        return "infeasible", None, None
    # drive leftover artificials out of the basis where possible
    for i in range(n):
        if basis[i] >= m:
            enter = next((j for j in range(m) if T[i][j] != 0), None)
            if enter is not None:
                piv = T[i][enter]
                T[i] = [v / piv for v in T[i]]
                for k in range(len(T)):
                    if k != i and T[k][enter] != 0:
                        f = T[k][enter]
                        T[k] = [a - f * bb for a, bb in zip(T[k], T[i])]
                basis[i] = enter
    # phase 2: real objective on the original variables
    keep = [i for i in range(n) if basis[i] < m or T[i][-1] == 0]
    T2 = [[T[i][j] for j in range(m)] + [T[i][-1]] for i in keep]
    basis2 = [basis[i] for i in keep]
    obj2 = list(map(Fraction, c)) + [Fraction(0)]
    for i, bv in enumerate(basis2):
        if bv < m and obj2[bv] != 0:
            f = obj2[bv]
            obj2 = [a - f * bb for a, bb in zip(obj2, T2[i])]
    T2.append(obj2)
    status = _simplex_core(T2, basis2, m)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * m
    for i, bv in enumerate(basis2):
        if bv < m:
            x[bv] = T2[i][-1]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return "optimal", x, value


def feasible_nonneg(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with A x = b, or None.  Exact phase-1 simplex."""
    n, m = _check_rect(A, "feasible_nonneg")
    status, x, _ = maximize(A, b, [Fraction(0)] * m)
    return x if status == "optimal" else None


def in_cone(
    generators: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Nonnegative combination of the generators equal to target, or None.

    Generators and target are vectors in the same ambient space; this is the
    exact-LP membership test for a finitely generated convex cone.
    """
    if not generators:
        return None if any(Fraction(t) != 0 for t in target) else []
    dim = len(target)
    A = [[Fraction(g[i]) for g in generators] for i in range(dim)]
    return feasible_nonneg(A, [Fraction(t) for t in target])
