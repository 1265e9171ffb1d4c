"""Exact integer and rational linear algebra.

Everything here is float-free.  Rationals are `fractions.Fraction`
(arbitrary precision, always reduced, positive denominator); matrices are
plain lists of row lists.  The module provides the normal forms and solvers
the rest of the package is built on:

* `hermite_normal_form`, `smith_normal_form`, `lattice_index`, `det` :
  row-style HNF with a unimodular witness, invariant factors d1 | d2 | ...
  (whose product also measures simplex volumes in `convbody`), the index
  of an integer row span in Z^r and the exact determinant, all on one
  unimodular elimination, the Hermite step `_hermite_add`,
* `echelon_add`, `kernel` : the one echelon elimination, integer echelon
  form with content removal and a primitive integer kernel; `rref_rows`
  reads rational rows through it,
* `cleared_row`, `cleared_rows` : the one denominator clearing, of a row,
  or of rows over the lcm of all their denominators,
* `_pivot` : the one fraction-free pivot, on an integer tableau over one
  positive common denominator, the previous pivot, so that every division
  is exact (Bareiss).  `feasible_nonneg`, `maximize` and `in_cone` run a
  simplex on it (Bland's rule, two phases; ratios compared by
  cross-multiplication, Fractions built only for the solution and its
  value), `inverse_lines` Gauss-Jordan elimination on [M | I], and
  `negative_definite` reads the sign of each Gaussian pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InvariantError


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


def _hermite_add(
    basis: dict[int, list[int]], v: list[int], width: int
) -> list[int] | None:
    """Reduce an integer row into a Hermite basis, rows keyed by lead column
    among the first `width` columns: the one unimodular elimination step.

    At each column that already holds a row, v loses its entry by an
    exact-quotient subtraction when the row's lead divides it, and
    otherwise by the unimodular xgcd step on the two, which leaves the gcd
    as the row's lead.  At the first column that holds none, v is stored;
    a row that reduces to zero on the first `width` columns is returned.
    """
    for j in range(width):
        b = v[j]
        if not b:
            continue
        row = basis.get(j)
        if row is None:
            basis[j] = v
            return None
        a = row[j]
        if b % a == 0:
            q = b // a
            v = [s - q * r for r, s in zip(row, v)]
        else:
            d, x, y = xgcd(a, b)
            basis[j] = [x * r + y * s for r, s in zip(row, v)]
            v = [(a // d) * s - (b // d) * r for r, s in zip(row, v)]
    return v


def _hermite(
    rows: Sequence[Sequence[int]], width: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form of integer rows on their first `width`
    columns: the rows with a lead there (leads strictly increasing and
    positive, entries above each lead in [0, lead)), and the rows that are
    zero there."""
    basis: dict[int, list[int]] = {}
    rest = []
    for row in rows:
        v = _hermite_add(basis, list(map(int, row)), width)
        if v is not None:
            rest.append(v)
    leads = sorted(basis)
    H = [basis[p] for p in leads]
    for i, p in enumerate(leads):
        if H[i][p] < 0:
            H[i] = [-v for v in H[i]]
        for k in range(i):
            q = H[k][p] // H[i][p]
            if q:
                H[k] = [x - q * y for x, y in zip(H[k], H[i])]
    return H, rest


def hermite_normal_form(M: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U * M, U unimodular (|det U| = 1), H in row
    echelon form with positive pivots, entries above each pivot reduced to
    lie in [0, pivot), and zero rows at the bottom.  The form is canonical:
    hermite_normal_form(H)[0] == H.  Both are read off [M | I] in Hermite
    form on the columns of M: H is its left block, U its right one.
    """
    n, m = _check_rect(M, "hermite_normal_form")
    H, rest = _hermite([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)], m)
    HU = H + rest
    return [r[:m] for r in HU], [r[m:] for r in HU]


def smith_normal_form(M: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors of an integer matrix: [d1, d2, ...] with d1 | d2 | ...

    Trailing zeros fill up to min(rows, cols) when the rank is deficient.
    Hermite forms of the rows and of the columns alternate until the matrix
    is diagonal (Kannan-Bachem): the corner entry never grows, and once it
    stops shrinking its row and column stay clean.  The gcd and lcm of each
    pair of diagonal entries then give the divisibility chain.
    """
    n, m = _check_rect(M, "smith_normal_form")
    A = [[int(v) for v in row] for row in M]
    while any(x for i, row in enumerate(A) for j, x in enumerate(row) if i != j):
        H, zero = _hermite(A, len(A[0]))
        A = [list(col) for col in zip(*H, *zero)]
    factors = [abs(A[i][i]) for i in range(min(n, m))]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i], factors[j] = math.gcd(a, b), math.lcm(a, b)
    for a, b in zip(factors, factors[1:]):
        if b and a and b % a != 0:
            raise InvariantError("smith_normal_form: divisibility chain broken")
    return factors


def lattice_index(generators: Sequence[Sequence[int]], ambient_rank: int) -> int | None:
    """Index of the subgroup of Z^r generated by the given integer vectors.

    The generators are reduced one by one into a Hermite basis of at most r
    rows.  The basis is triangular, so the index is the product of the
    absolute leads; once that is 1, no further generator can change it.
    Returns None when the span has rank < ambient_rank (infinite index).
    """
    if ambient_rank <= 0:
        raise InputError("lattice_index: ambient_rank must be positive")
    if any(len(g) != ambient_rank and any(g) for g in generators):
        raise InputError("lattice_index: generator length != ambient_rank")
    basis: dict[int, list[int]] = {}
    for g in generators:
        _hermite_add(basis, list(map(int, g)), len(g))
        if len(basis) == ambient_rank and all(
            abs(row[j]) == 1 for j, row in basis.items()
        ):
            return 1
    if len(basis) < ambient_rank:
        return None
    return math.prod(abs(row[j]) for j, row in basis.items())


# ---------------------------------------------------------------------------
# integer elimination


def echelon_add(echelon: list[tuple[int, list[int]]], row: Sequence[int]) -> bool:
    """Reduce an integer row against echelon rows (lead, primitive row),
    each zero at the leads of the rows before it, and append its primitive
    remainder; False when the row reduces to zero."""
    for p, e in echelon:
        if row[p]:
            f1, f2 = e[p], row[p]
            row = [f1 * x - f2 * y for x, y in zip(row, e)]
    lead = next((j for j, x in enumerate(row) if x), None)
    if lead is None:
        return False
    g = math.gcd(*row)
    echelon.append((lead, [x // g for x in row]))
    return True


def _echelon(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Integer echelon form of integer rows, reduced above every lead too:
    (lead, primitive row) pairs in the order the rows were added, each row
    zero at the leads of all the others."""
    echelon: list[tuple[int, list[int]]] = []
    for row in rows:
        echelon_add(echelon, row)
    for i in range(len(echelon) - 1, 0, -1):
        p, e = echelon[i]
        for j in range(i):
            q, r = echelon[j]
            if r[p]:
                f1, f2 = e[p], r[p]
                r = [f1 * x - f2 * y for x, y in zip(r, e)]
                g = math.gcd(*r)
                echelon[j] = q, [x // g for x in r]
    return echelon


def kernel(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Primitive integer basis of the right kernel of integer rows of
    length n, one vector per free column in increasing order, each a
    positive multiple of the kernel vector that is 1 at its free column and
    0 at the others.  With the free entry set to the lcm of the leads of
    the reduced echelon form, every lead entry is an exact quotient."""
    echelon = _echelon(rows)
    lcm = math.lcm(*(e[p] for p, e in echelon))
    leads = {p for p, _ in echelon}
    basis = []
    for f in range(n):
        if f in leads:
            continue
        v = [0] * n
        v[f] = lcm
        for p, e in echelon:
            v[p] = -e[f] * (lcm // e[p])
        g = math.gcd(*v)
        basis.append([x // g for x in v])
    return basis


# ---------------------------------------------------------------------------
# rational elimination


def cleared_row(row: Sequence) -> tuple[list[int], int]:
    """(integers, den): a rational row as integers over the lcm of its
    denominators; an integer row comes back as it is, over 1."""
    if all(type(v) is int for v in row):
        return list(row), 1
    fr = [v if type(v) is Fraction else Fraction(v) for v in row]
    den = math.lcm(*(v.denominator for v in fr))
    return [v.numerator * (den // v.denominator) for v in fr], den


def integer_row(row: Sequence) -> list[int]:
    """A rational row times the lcm of its denominators."""
    return cleared_row(row)[0]


def cleared_rows(rows: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], int]:
    """(integer tuples, den): rational rows as integers over the lcm of all
    their denominators."""
    fr = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in rows]
    den = math.lcm(*(v.denominator for row in fr for v in row))
    return [tuple(v.numerator * (den // v.denominator) for v in row) for row in fr], den


def rref_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns (R, pivot_cols): nonzero rows of the RREF with leading entries 1,
    each pivot column cleared elsewhere, pivot columns strictly increasing.
    The rows are cleared to integers and brought to reduced integer echelon
    form; each row divided by its lead is then exact.
    """
    echelon = sorted(_echelon([integer_row(row) for row in rows]))
    pivots = [p for p, _ in echelon]
    return [[Fraction(x, e[p]) for x in e] for p, e in echelon], pivots


def det(A: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant on the Hermite step.

    Each row, cleared to integers, is reduced into a Hermite basis; a row
    that reduces to zero makes the determinant 0.  Every move of the step
    has determinant 1 and each row is stored under a new lead, so the
    stored rows, in the order they were stored, are a row permutation of a
    triangular matrix: the determinant is the sign of that permutation
    times the product of the leads, over the product of the row
    denominators.
    """
    n, m = _check_rect(A, "det")
    if n != m:
        raise InputError("det: matrix not square")
    basis: dict[int, list[int]] = {}
    den = 1
    for row in A:
        v, row_den = cleared_row(row)
        if _hermite_add(basis, v, n) is not None:
            return Fraction(0)
        den *= row_den
    leads = list(basis)
    inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1:])
    return Fraction((-1) ** inversions * math.prod(basis[j][j] for j in leads), den)


# ---------------------------------------------------------------------------
# the fraction-free pivot, and the eliminations on it


def _pivot(T: list[list[int]], row: int, col: int, d: int) -> int:
    """Pivot the integer tableau T, whose entries over the positive common
    denominator d are the simplex tableau, on (row, col); return the new
    denominator, the absolute value of the pivot p.

    Every other row r becomes (p * r - r[col] * T[row]) / d, and the
    division is exact: each entry is a minor of the starting tableau
    (Bareiss, Math. Comp. 1968).  T[row] is kept, since over p it is the
    row scaled to a 1 in column col.  A negative pivot negates T[row]
    first, so that the denominator stays positive.  A row that is zero in
    column col is only rescaled by p / d, and not touched when p = d.
    """
    pr = T[row]
    p = pr[col]
    if p < 0:
        p = -p
        pr = T[row] = [-v for v in pr]
    for i, r in enumerate(T):
        if i == row:
            continue
        f = r[col]
        if f:
            T[i] = [(p * a - f * b) // d for a, b in zip(r, pr)]
        elif p != d:
            T[i] = [p * a // d for a in r]
    return p


def inverse_lines(M: Sequence[Sequence[int]]) -> tuple[list[list[int]], int] | None:
    """The inverse of a square integer matrix as integer lines over one
    positive denominator, in lowest terms, or None if it is singular.
    Gauss-Jordan elimination on [M | I] by `_pivot`, each pivot the first
    nonzero entry at or below the diagonal, ends at [d I | d M^-1], d > 0."""
    n = len(M)
    T = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    d = 1
    for k in range(n):
        r = next((r for r in range(k, n) if T[r][k]), None)
        if r is None:
            return None
        T[k], T[r] = T[r], T[k]
        d = _pivot(T, k, k, d)
    g = math.gcd(d, *(v for row in T for v in row[n:]))
    return [[v // g for v in row[n:]] for row in T], d // g


def negative_definite(M: Sequence[Sequence[int]]) -> bool:
    """Whether a symmetric integer matrix is negative definite: Gaussian
    elimination without row exchanges meets only negative pivots.  Each is
    read before `_pivot` negates its row; over the positive denominator the
    diagonal entry has the Gaussian pivot's sign."""
    T = [list(row) for row in M]
    d = 1
    for s in range(len(T)):
        if T[s][s] >= 0:
            return False
        d = _pivot(T, s, s, d)
    return True


def _simplex_core(
    T: list[list[int]], basis: list[int], nvars: int, d: int
) -> tuple[str, int]:
    """Maximize the objective stored in the last tableau row.

    T over the denominator d has rows [A | b] then one objective row
    [c | value]; basis holds the basic variable of each constraint row.
    The entering column is the first with a positive reduced cost; the
    leaving row has the least ratio b_i / a_i over a_i > 0, compared by
    cross-multiplication, ties going to the least basic variable.  Returns
    ("optimal" or "unbounded", the denominator).
    """
    nrows = len(T) - 1
    while True:
        obj = T[-1]
        enter = next((j for j in range(nvars) if obj[j] > 0), None)
        if enter is None:
            return "optimal", d
        best = -1
        for i in range(nrows):
            a = T[i][enter]
            if a > 0:
                if best < 0:
                    best, num, den = i, T[i][-1], a
                    continue
                lhs, rhs = T[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, num, den = i, T[i][-1], a
        if best < 0:
            return "unbounded", d
        d = _pivot(T, best, enter, d)
        basis[best] = enter


def maximize(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize c.x subject to A x = b, x >= 0, exactly.

    Returns (status, x, value) with status in {"optimal", "unbounded",
    "infeasible"}.  The tableau is integral over one common denominator
    from start to end; Fractions are built only for x and the value.  The
    starting denominator is the product of the row denominators of [A | b]:
    the starting tableau is then the fraction-free form of the system with
    each row cleared to integers, and every later division is exact.
    """
    n, m = _check_rect(A, "maximize")
    if len(b) != n or len(c) != m:
        raise InputError("maximize: dimension mismatch")
    rows = []
    d = 1
    for row, v in zip(A, b):
        r, den = cleared_row([*row, v])
        if r[-1] < 0:
            r = [-x for x in r]
        rows.append((r, den))
        d *= den
    # phase 1: artificial variables, maximize -(sum of artificials)
    T = []
    basis = []
    for i, (r, den) in enumerate(rows):
        scale = d // den
        art = [0] * n
        art[i] = d
        T.append([scale * x for x in r[:-1]] + art + [scale * r[-1]])
        basis.append(m + i)
    # maximize -(sum of artificials), priced out on the basic artificials
    T.append([0] * m + [-d] * n + [0])
    for i in range(n):
        d = _pivot(T, i, m + i, d)
    _, d = _simplex_core(T, basis, m + n, d)
    if T[-1][-1] != 0:
        return "infeasible", None, None
    # drive leftover artificials out of the basis where possible; the
    # phase-1 optimum is 0, so every artificial still basic is at zero and
    # its row, zero on the real columns, stays as a redundant row
    for i in range(n):
        if basis[i] >= m:
            enter = next((j for j in range(m) if T[i][j] != 0), None)
            if enter is not None:
                d = _pivot(T, i, enter, d)
                basis[i] = enter
    # phase 2: real objective on the original variables
    T2 = [row[:m] + [row[-1]] for row in T[:-1]]
    # the real objective times the lcm of its denominators (a positive
    # factor changes no decision), priced out on the basic real columns
    cints, cden = cleared_row(c)
    T2.append([d * v for v in cints] + [0])
    for i, bv in enumerate(basis):
        if bv < m:
            d = _pivot(T2, i, bv, d)
    status, d = _simplex_core(T2, basis, m, d)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * m
    total = 0
    for i, bv in enumerate(basis):
        if bv < m:
            x[bv] = Fraction(T2[i][-1], d)
            total += cints[bv] * T2[i][-1]
    return "optimal", x, Fraction(total, d * cden)


def feasible_nonneg(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with A x = b, or None.  Exact phase-1 simplex."""
    n, m = _check_rect(A, "feasible_nonneg")
    status, x, _ = maximize(A, b, [0] * m)
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
    A = [[g[i] for g in generators] for i in range(len(target))]
    return feasible_nonneg(A, list(target))
