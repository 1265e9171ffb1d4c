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
from typing import Iterator, Sequence

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


def _value_key(vector: Sequence[int], d: int) -> int | None:
    """The packed key of a value vector of d entries, or None when it has
    another length or an entry that is no integer in [0, DEGREE_BOUND)."""
    if len(vector) != d or not all(
        isinstance(x, int) and 0 <= x < DEGREE_BOUND for x in vector
    ):
        return None
    return pack(vector)


class ValueSemigroup:
    """Value points (nu(s), k) of a graded series up to a truncation level.

    Each level is held as the packed keys (`polyform.pack`) of its value
    vectors, in the order given; `levels`, `level` and `points` unpack
    them."""

    __slots__ = ("d", "truncation", "_keys")

    def __init__(
        self,
        d: int,
        truncation: int,
        levels: dict[int, Sequence[Sequence[int]]],
    ):
        keys = {}
        for k, vs in levels.items():
            keys[k] = [_value_key(v, d) for v in vs]
            if None in keys[k]:
                raise InputError(
                    f"value semigroup: level {k} holds a vector that is not "
                    f"{d} entries in [0, {DEGREE_BOUND})"
                )
        self._set(d, truncation, keys)

    def _set(self, d: int, truncation: int, keys: dict[int, list[int]]) -> ValueSemigroup:
        self.d = d
        self.truncation = truncation
        self._keys = keys
        return self

    @classmethod
    def _of(cls, d: int, truncation: int, keys: dict[int, list[int]]) -> ValueSemigroup:
        """The semigroup of value keys the library computed (`value_keys`),
        taken without checks."""
        return object.__new__(cls)._set(d, truncation, keys)

    @property
    def levels(self) -> dict[int, tuple[Vector, ...]]:
        return {k: self.level(k) for k in self._keys}

    def level(self, k: int) -> tuple[Vector, ...]:
        d = self.d
        return tuple(unpack(v, d) for v in self._keys.get(k, ()))

    def points(self) -> Iterator[tuple[Vector, int]]:
        for k in sorted(self._keys):
            for v in self.level(k):
                yield v, k

    def indecomposables(self) -> list[tuple[Vector, int]]:
        """Value points less each (v, k) with v - g in level k - j for a kept
        (g, j), 2j <= k: v / k lies between g / j and (v - g) / (k - j), so
        the kept points span the hull of all.  When value sets add, every
        sum (u, j) + (w, k - j), 2j <= k, splits off a kept point and drops.
        Only kept points of levels j <= k / 2 filter level k, and those
        levels are done before level k starts, so a level is filtered as a
        whole, one kept point at a time, by one set lookup per point still
        in it; the kept list and its order are those of a point-by-point
        scan.  The lookup is of the packed difference v - g, one integer
        subtraction: where an entry of v - g is negative, some field
        borrows, and the difference is negative or has a field at or above
        DEGREE_BOUND, so it is no key of a value vector.  The kept points
        are unpacked."""
        sets = {k: set(vs) for k, vs in self._keys.items()}
        kept: list[tuple[int, int]] = []
        for k in sorted(self._keys):
            rest = self._keys[k]
            for g, j in kept:
                if 2 * j > k or not rest:
                    break
                lower = sets.get(k - j)
                if lower:
                    rest = [v for v in rest if v - g not in lower]
            kept.extend((v, k) for v in rest)
        d = self.d
        return [(unpack(v, d), k) for v, k in kept]

    def counts(self) -> dict[int, int]:
        return {k: len(vs) for k, vs in sorted(self._keys.items())}

    def contains(self, vector: Sequence[int], k: int) -> bool:
        key = _value_key(tuple(vector), self.d)
        return key is not None and key in self._keys.get(k, ())

    def __repr__(self) -> str:
        total = sum(len(v) for v in self._keys.values())
        return (
            f"ValueSemigroup(d={self.d}, truncation={self.truncation}, "
            f"points={total})"
        )
