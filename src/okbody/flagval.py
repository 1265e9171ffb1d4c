"""Complete linear flags on projective space and the induced valuations.

A flag is stored as an invertible rational matrix A whose i-th row is the
linear form cutting the i-th flag subspace, so the flag point is the common
zero of the first d rows.  Transforming a form into flag coordinates means
substituting X = A^{-1} Y; the valuation of a section is then the lex
smallest exponent of the transformed polynomial with the last (nonvanishing
at the flag point) variable dehomogenized away.  `exactnum` inverts A.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError
from .exactnum import cleared_rows, det, inverse_lines
from .polyform import DEGREE_BOUND, WIDTH, FormSpan, HomogeneousForm, pack, spare_bits, unpack

Vector = tuple[int, ...]


def _totally_generic(rows: list[list[int]]) -> bool:
    """Whether every minor on the first j rows and any j columns is nonzero."""
    n = len(rows)
    for j in range(1, n + 1):
        top = rows[:j]
        for cols in combinations(range(n), j):
            if det([[row[c] for c in cols] for row in top]) == 0:
                return False
    return True


class Flag:
    """A complete flag of linear subspaces, hashable and immutable.

    `lines, den` is the inverse of `matrix` as integer lines over one
    positive denominator in lowest terms, by `exactnum.inverse_lines`: the
    change of coordinates is X = (lines / den) Y.  Substituting the lines
    alone scales a form of degree D by den^D, which changes neither the
    span of a space of forms nor the exponents of a form."""

    __slots__ = ("d", "matrix", "lines", "den")

    def __init__(self, matrix: Sequence[Sequence[Fraction]]):
        n = len(matrix)
        if n < 2 or any(len(row) != n for row in matrix):
            raise InputError("flag: matrix must be square, size >= 2")
        rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        scaled, scale = cleared_rows(rows)
        inv = inverse_lines(scaled)
        if inv is None:
            raise InputError("flag: matrix is singular")
        # (scale * M)^-1 = lines / den, so M^-1 = scale * lines / den
        lines, den = inv
        g = math.gcd(scale, den)
        self.d = n - 1
        self.matrix = rows
        self.lines = tuple(tuple(v * (scale // g) for v in row) for row in lines)
        self.den = den // g

    @classmethod
    @functools.cache
    def standard(cls, d: int) -> Flag:
        """The coordinate flag, built once per d: flags are immutable."""
        if d < 1:
            raise InputError("flag: dimension must be positive")
        return cls(
            [[Fraction(i == j) for j in range(d + 1)] for i in range(d + 1)]
        )

    @classmethod
    def random(cls, d: int, seed: int) -> Flag:
        """Deterministic random integer flag in general position.

        Every square minor built from the leading rows is required to be
        nonzero, so no flag subspace meets a coordinate subspace abnormally;
        this is the genericity the flag-independence statements need.
        """
        if d < 1:
            raise InputError("flag: dimension must be positive")
        rng = random.Random(seed)
        for _ in range(1000):
            rows = [
                [rng.randint(-9, 9) for _ in range(d + 1)] for _ in range(d + 1)
            ]
            if _totally_generic(rows):
                return cls(rows)
        raise InputError("flag: could not draw an invertible matrix")

    @property
    def is_standard(self) -> bool:
        n = self.d + 1
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Flag) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        tag = "standard" if self.is_standard else "general"
        return f"Flag(d={self.d}, {tag})"


def valuation(form: HomogeneousForm, flag: Flag) -> Vector:
    """Flag valuation of a nonzero section: the lex smallest exponent prefix
    of the form written in flag coordinates."""
    if form.is_zero:
        raise InputError("valuation: undefined on the zero form")
    if form.nvars != flag.d + 1:
        raise InputError("valuation: form and flag dimensions differ")
    g = form if flag.is_standard else form.substitute_linear(flag.lines)
    return min(e[: flag.d] for e in g.terms)


def value_keys(span: FormSpan) -> list[int]:
    """The valuations of a space already written in flag coordinates, as
    packed keys (`polyform.pack`) in ascending order.

    The reduced echelon pivots under ascending lex columns are exactly the
    lex minimal exponents realized by the space, one per dimension.  The
    last variable is the least significant field of a pivot key, so the
    valuation, the pivot with that entry dropped, is the key shifted right
    by one field; all pivots have the span's degree, so the keys stay
    distinct.
    """
    return [p >> WIDTH for p in span.pivot_keys]


def valuation_set(span: FormSpan) -> tuple[Vector, ...]:
    """The valuations of a space already written in flag coordinates, as
    exponent tuples (`value_keys` unpacked)."""
    d = span.nvars - 1
    return tuple(unpack(v, d) for v in value_keys(span))


def filtered_dimension(span: FormSpan, sigma: Sequence[int]) -> int:
    """Count of valuation vectors dominating sigma componentwise.

    sigma may bound any prefix of the valuation coordinates; the count is
    the number of echelon pivots whose first len(sigma) entries are all at
    least the corresponding entry of sigma.  The pivots are read as packed
    keys: with the spare top bit of every field set (`polyform.spare_bits`),
    subtracting the key of sigma, zero past its entries, leaves the bit set
    exactly where the entry is at least sigma's, and no field borrows from
    the next.
    """
    n = span.nvars
    r = len(sigma)
    if r < 1 or r >= n:
        raise InputError("filtered_dimension: sigma length out of range")
    if any(x >= DEGREE_BOUND for x in sigma):
        return 0  # every pivot entry is below the bound
    spare = spare_bits(n)
    key = pack([max(x, 0) for x in sigma] + [0] * (n - r))
    return len([p for p in span.pivot_keys if ((p | spare) - key) & spare == spare])


def indecomposables(levels: Iterable[Sequence[int]], d: int) -> list[tuple[Vector, int]]:
    """The indecomposable value points of levels 1, 2, ..., given as each
    level's value keys (`value_keys`) in order and read one level at a
    time: the value points less each (v, k) with v - g in level k - j for a
    kept (g, j), 2j <= k.  v / k lies between g / j and (v - g) / (k - j), so the kept
    points span the hull of all.  When value sets add, every sum (u, j) +
    (w, k - j), 2j <= k, splits off a kept point and drops.  Only kept
    points of levels j <= k / 2 filter level k, and those levels are done
    before level k starts, so a level is filtered as a whole, one kept
    point at a time, by one set lookup per point still in it; the kept list
    and its order are those of a point-by-point scan.  The lookup is of the
    packed difference v - g, one integer subtraction: where an entry of
    v - g is negative, some field borrows, and the difference is negative
    or has a field at or above DEGREE_BOUND, so it is no key of a value
    vector.  Level m is read only to filter level m + j for a kept j <= m,
    and every kept level known after level k is at most top, the highest
    level with a kept point, so the set of level k - top is then dropped:
    the sets held span the last top levels.  The kept points are
    unpacked."""
    sets: dict[int, set[int]] = {}
    kept: list[tuple[int, int]] = []
    top = 0
    for k, keys in enumerate(levels, 1):
        rest = keys
        for g, j in kept:
            if 2 * j > k or not rest:
                break
            lower = sets.get(k - j)
            if lower:
                rest = [v for v in rest if v - g not in lower]
        if rest:
            kept.extend((v, k) for v in rest)
            top = k
        sets[k] = set(keys)
        sets.pop(k - top, None)
    return [(unpack(v, d), k) for v, k in kept]
