"""Complete linear flags on projective space and the induced valuations.

A flag is stored as an invertible rational matrix A whose i-th row is the
linear form cutting the i-th flag subspace, so the flag point is the common
zero of the first d rows.  Transforming a form into flag coordinates means
substituting X = A^{-1} Y; the valuation of a section is then the lex
smallest exponent of the transformed polynomial with the last (nonvanishing
at the flag point) variable dehomogenized away.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .errors import InputError
from .exactnum import det, lattice_index, rref_rows
from .polyform import FormSpan, HomogeneousForm

Vector = tuple[int, ...]


def _totally_generic(rows: list[list[Fraction]]) -> bool:
    """Whether every minor on the first j rows and any j columns is nonzero."""
    n = len(rows)
    for j in range(1, n + 1):
        top = rows[:j]
        for cols in combinations(range(n), j):
            if det([[row[c] for c in cols] for row in top]) == 0:
                return False
    return True


def _invert(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    n = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    red, piv = rref_rows(aug)
    if piv != list(range(n)):
        return None
    return [row[n:] for row in red]


class Flag:
    """A complete flag of linear subspaces, hashable and immutable."""

    __slots__ = ("d", "matrix", "substitution")

    def __init__(self, matrix: Sequence[Sequence[Fraction]]):
        n = len(matrix)
        if n < 2 or any(len(row) != n for row in matrix):
            raise InputError("flag: matrix must be square, size >= 2")
        rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        inv = _invert(rows)
        if inv is None:
            raise InputError("flag: matrix is singular")
        self.d = n - 1
        self.matrix = rows
        self.substitution = tuple(tuple(row) for row in inv)

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
                [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)]
                for _ in range(d + 1)
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
    g = form if flag.is_standard else form.substitute_linear(flag.substitution)
    return min(e[: flag.d] for e in g.terms)


def valuation_set(span: FormSpan) -> tuple[Vector, ...]:
    """Valuations of a space already written in flag coordinates.

    The reduced echelon pivots under ascending lex columns are exactly the
    lex minimal exponents realized by the space, one per dimension.
    """
    d = span.nvars - 1
    return tuple(p[:d] for p in span.pivots)


def filtered_dimension(span: FormSpan, sigma: Sequence[int]) -> int:
    """Count of valuation vectors dominating sigma componentwise.

    sigma may bound any prefix of the valuation coordinates; the count is
    the number of echelon pivots whose first len(sigma) entries are all at
    least the corresponding entry of sigma.
    """
    d = span.nvars - 1
    r = len(sigma)
    if r < 1 or r > d:
        raise InputError("filtered_dimension: sigma length out of range")
    return sum(
        1
        for p in span.pivots
        if all(p[i] >= sigma[i] for i in range(r))
    )


class ValueSemigroup:
    """Value points (nu(s), k) of a graded series up to a truncation level."""

    __slots__ = ("d", "truncation", "levels")

    def __init__(
        self,
        d: int,
        truncation: int,
        levels: dict[int, tuple[Vector, ...]],
    ):
        self.d = d
        self.truncation = truncation
        self.levels = {
            k: tuple(tuple(v) for v in vs) for k, vs in levels.items()
        }

    def level(self, k: int) -> tuple[Vector, ...]:
        return self.levels.get(k, ())

    def points(self) -> Iterator[tuple[Vector, int]]:
        for k in sorted(self.levels):
            for v in self.levels[k]:
                yield v, k

    def indecomposables(self) -> list[tuple[Vector, int]]:
        """Value points less each (v, k) with v - g in level k - j for a kept
        (g, j), 2j <= k: v / k lies between g / j and (v - g) / (k - j), so
        the kept points span the hull of all.  When value sets add, every
        sum (u, j) + (w, k - j), 2j <= k, splits off a kept point and drops."""
        sets = {k: set(vs) for k, vs in self.levels.items()}
        kept: list[tuple[Vector, int]] = []
        for v, k in self.points():
            if not any(
                2 * j <= k and tuple(x - y for x, y in zip(v, g)) in sets.get(k - j, ())
                for g, j in kept
            ):
                kept.append((v, k))
        return kept

    def cone_points(self) -> list[tuple[int, ...]]:
        return [v + (k,) for v, k in self.points()]

    def counts(self) -> dict[int, int]:
        return {k: len(vs) for k, vs in sorted(self.levels.items())}

    def contains(self, vector: Sequence[int], k: int) -> bool:
        return tuple(vector) in self.levels.get(k, ())

    def group_index(self) -> int | None:
        """Index in Z^(d+1) of the group generated by the value points."""
        pts = self.cone_points()
        if not pts:
            return None
        return lattice_index(pts, self.d + 1)

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.levels.values())
        return (
            f"ValueSemigroup(d={self.d}, truncation={self.truncation}, "
            f"points={total})"
        )
