"""Monomial ideal machinery: base ideals, saturation, stable base loci,
sheafification, and the lattice birationality test for monomial series.

Everything here works with packed exponent keys (`polyform.pack`), as a
level's pivots are; exponent tuples appear only at the edges, the generators
an ideal is built from and the `generators` it reports.  Base ideals are
only formed for series whose levels are spanned by monomials; general
levels are refused with a typed error rather than approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, UnsupportedModeError
from .exactnum import hermite_normal_form
from .glseries import GradedSeries
from .polyform import (DEGREE_BOUND, FormSpan, check_degree, field_mask, pack,
                       spare_bits, unit_key, unpack)

Exponent = tuple[int, ...]


def _undivided(keys: Iterable[int], divisors: Sequence[int], nvars: int) -> list[int]:
    """The keys of nvars fields that no key of divisors divides."""
    spare = spare_bits(nvars)
    return [
        b for b in keys
        if not any(((b | spare) - a) & spare == spare for a in divisors)
    ]


def _minimalize(keys: Iterable[int], nvars: int) -> tuple[int, ...]:
    # keep divisibility-minimal keys; a divisor is lex-smaller, so scanning
    # in ascending order a kept key is never divided by a later one, and a
    # key is tested only against the kept ones (the test of `_undivided`)
    spare = spare_bits(nvars)
    kept: list[int] = []
    for g in sorted(keys):
        if not any(((g | spare) - a) & spare == spare for a in kept):
            kept.append(g)
    return tuple(kept)


class MonomialIdeal:
    """Monomial ideal held by the packed keys of its minimal generators, in
    ascending order; `generators` unpacks them."""

    __slots__ = ("nvars", "_keys")

    def __init__(self, nvars: int, generators: Sequence[Exponent] = ()):
        if nvars < 1:
            raise InputError("monomial ideal: need at least one variable")
        keys: set[int] = set()
        for g in generators:
            e = tuple(int(x) for x in g)
            if len(e) != nvars:
                raise InputError("monomial ideal: generator length != nvars")
            if not all(0 <= x < DEGREE_BOUND for x in e):
                raise InputError(f"monomial ideal: exponent outside [0, {DEGREE_BOUND})")
            keys.add(pack(e))
        self.nvars = nvars
        self._keys = _minimalize(keys, nvars)

    @classmethod
    def _of(cls, nvars: int, keys: tuple[int, ...]) -> MonomialIdeal:
        """The ideal of generator keys the library made: already minimal, in
        ascending order, and of the right length; nothing is checked."""
        ideal = object.__new__(cls)
        ideal.nvars = nvars
        ideal._keys = keys
        return ideal

    @property
    def generators(self) -> tuple[Exponent, ...]:
        """The minimal generators, in ascending lex order."""
        return tuple([unpack(g, self.nvars) for g in self._keys])

    @property
    def is_zero(self) -> bool:
        return not self._keys

    def contains_monomial(self, e: Sequence[int]) -> bool:
        e = tuple(int(x) for x in e)
        if len(e) != self.nvars:
            raise InputError("monomial ideal: exponent length != nvars")
        if any(x < 0 for x in e):
            return False
        # every generator entry is below the bound, so clamping there keeps
        # the answer and gives a key
        key = pack([min(x, DEGREE_BOUND - 1) for x in e])
        return not _undivided((key,), self._keys, self.nvars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self._keys == other._keys

    def __hash__(self) -> int:
        return hash((self.nvars, self._keys))

    def __repr__(self) -> str:
        if self.is_zero:
            body = "0"
        else:
            body = ", ".join(str(g) for g in self.generators)
        return f"MonomialIdeal({self.nvars}; {body})"

    # -- ideal arithmetic ------------------------------------------------------

    def plus(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check(other)
        keys = _minimalize({*self._keys, *other._keys}, self.nvars)
        return self._of(self.nvars, keys)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check(other)
        gs, hs = self.generators, other.generators
        lcms = {pack([max(x, y) for x, y in zip(g, h)]) for g in gs for h in hs}
        return self._of(self.nvars, _minimalize(lcms, self.nvars))

    def saturate_variable(self, i: int) -> MonomialIdeal:
        """(I : X_i^inf): generators with the i-th exponent removed, their
        field i cleared."""
        if not 0 <= i < self.nvars:
            raise InputError("monomial ideal: variable index out of range")
        kept = ~field_mask(self.nvars, i)
        keys = _minimalize({g & kept for g in self._keys}, self.nvars)
        return self._of(self.nvars, keys)

    def saturate(self) -> MonomialIdeal:
        """Saturation with respect to the irrelevant ideal (X_1,...,X_n).

        For monomial ideals this is the intersection of the variable-wise
        saturations (I : X_i^inf).
        """
        out = self.saturate_variable(0)
        for i in range(1, self.nvars):
            out = out.intersect(self.saturate_variable(i))
        return out

    # -- geometry --------------------------------------------------------------

    def vanishes_at(self, point: Sequence[Fraction]) -> bool:
        """Whether every generator evaluates to zero at the point: each
        meets the fields of the point's zero coordinates."""
        if len(point) != self.nvars:
            raise InputError("monomial ideal: point length != nvars")
        zeros = sum(field_mask(self.nvars, i) for i, x in enumerate(point) if x == 0)
        return all(g & zeros for g in self._keys)

    def _check(self, other: MonomialIdeal) -> None:
        if self.nvars != other.nvars:
            raise InputError("monomial ideal: mixed ambient variable counts")


def saturate(ideal: MonomialIdeal) -> MonomialIdeal:
    return ideal.saturate()


# ---------------------------------------------------------------------------
# base ideals and loci


def base_ideal(series: GradedSeries, k: int) -> MonomialIdeal:
    """Minimal monomial generating set of the ideal spanned by level k.

    Refuses non-monomial levels: the base ideal of a general linear series
    is not monomial and is out of scope here.  The pivots of a monomial
    level are its monomials, sorted and all of one degree, so they are the
    minimal generators as they stand.
    """
    return MonomialIdeal._of(series.d + 1, tuple(_monomial_level(series, k).pivot_keys))


def _monomial_level(series: GradedSeries, k: int) -> FormSpan:
    """Level k of the series, refused unless it is a monomial span."""
    span = series.level(k)
    if not span.is_monomial_span:
        raise UnsupportedModeError(
            "unsupported: base ideal computed only for monomial series"
        )
    return span


def locus_components(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Irreducible components of the vanishing set of a monomial ideal.

    Each component is a coordinate subspace, encoded as the sorted tuple of
    vanishing variable indices; the components are the minimal hitting sets
    of the generator supports, a set of indices hitting a generator's
    support when the generator's key meets the OR of their fields' masks.
    The zero ideal vanishes everywhere (one component with no constraints);
    the unit ideal vanishes nowhere.
    """
    if ideal.is_zero:
        return ((),)
    keys, n = ideal._keys, ideal.nvars
    if keys[0] == 0:  # a generator with empty support, the least key
        return ()
    hits: dict[int, tuple[int, ...]] = {}  # the mask of a hitting set -> its indices
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            chosen = sum(field_mask(n, i) for i in combo)
            if any(h & chosen == h for h in hits):
                continue
            if all(g & chosen for g in keys):
                hits[chosen] = combo
    return tuple(sorted(hits.values()))


class BaseLocusReport(NamedTuple):
    """Base ideals per degree and the stable locus over a truncation."""

    truncation: int
    base_ideals: dict[int, MonomialIdeal]
    cumulative: MonomialIdeal
    components: tuple[tuple[int, ...], ...]
    empty: bool
    stabilized: bool
    stabilized_at: int | None

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        return self.cumulative.vanishes_at(point)


def stable_base_locus(series: GradedSeries, K: int) -> BaseLocusReport:
    """Common zeros of all base ideals across materialized degrees <= K.

    The running sum of the base ideals grows by the generators of each level
    that no earlier generator divides.  Level k's generators have degree
    k * twist, above every earlier one, so none of them divides an earlier
    generator and the sum needs no re-minimalization; its locus is
    recomputed only when the sum changes.  On a series with generators,
    level k is a sum of products of generators of levels j <= k, so each of
    its monomials is divisible by a monomial of a generator level already
    summed: only generator levels are scanned.  The locus can only shrink as
    degrees accumulate; stabilization is reported when the locus at some
    degree k agrees with the locus at 2k and with the final one.  The locus
    may still shrink past K when the flag is not raised.
    """
    if K < 1:
        raise InputError("stable base locus: need K >= 1")
    check_degree(K * series.twist, f"stable base locus to level {K}")
    n = series.d + 1
    ideals: dict[int, MonomialIdeal] = {}
    gens: tuple[int, ...] = ()  # the keys of the running sum's generators
    components: tuple[tuple[int, ...], ...] = ((),)  # the zero sum's locus
    loci: dict[int, tuple[tuple[int, ...], ...]] = {}
    scanned = series._gspans  # the generator levels, or None
    for k in range(1, K + 1):
        ideals[k] = base_ideal(series, k)
        if scanned is not None and k not in scanned:
            loci[k] = components
            continue
        new = _undivided(ideals[k]._keys, gens, n)
        if new:
            gens = tuple(sorted((*gens, *new)))
            components = locus_components(MonomialIdeal._of(n, gens))
        loci[k] = components
    stabilized_at = None
    for k in range(1, K // 2 + 1):
        if loci[k] == loci[2 * k] == components:
            stabilized_at = k
            break
    empty = all(len(c) == n for c in components)
    return BaseLocusReport(
        truncation=K,
        base_ideals=ideals,
        cumulative=MonomialIdeal._of(n, gens),
        components=components,
        empty=empty,
        stabilized=stabilized_at is not None,
        stabilized_at=stabilized_at,
    )


# ---------------------------------------------------------------------------
# sheafification


def _colon_piece(keys, n: int, i: int) -> set[int]:
    """The degree-D monomials of (I : X_i^inf), for I generated by the
    monomials of one degree D in n variables with the given packed keys
    (`polyform.pack`), as packed keys.

    (I : X_i^inf) is I with X_i set to 1, so a degree-D monomial lies in it
    iff it dominates some pivot off coordinate i; every such monomial is
    reached from that pivot by moves e -> e + u_j - u_i (j != i, e_i >= 1),
    and no move leaves the set.  So the set is the closure of the pivots
    under those moves, each one integer sum on a key whose field i is
    nonzero.
    """
    field = field_mask(n, i)
    moves = [unit_key(n, j) - unit_key(n, i) for j in range(n) if j != i]
    seen = set(keys)
    todo = list(keys)
    while todo:
        e = todo.pop()
        if e & field:
            for move in moves:
                g = e + move
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
    return seen


def sheafify(series: GradedSeries, K: int) -> GradedSeries:
    """Series of all sections that glue locally: level k consists of every
    degree-(k * twist) monomial in the saturation of the level-k base ideal.

    Defined level by level up to K.  The saturation is the intersection of
    the ideals (I : X_i^inf), so its degree-D piece is the intersection of
    theirs, each the closure of the level's pivots under the moves of
    `_colon_piece`; no colon ideal is built and no divisibility is tested.
    """
    if K < 1:
        raise InputError("sheafify: need K >= 1")
    check_degree(K * series.twist, f"sheafify to level {K}")
    n = series.d + 1
    spans: dict[int, FormSpan] = {}
    for k in range(1, K + 1):
        keys = _monomial_level(series, k).pivot_keys
        piece = set.intersection(*(_colon_piece(keys, n, i) for i in range(n)))
        spans[k] = FormSpan._of(n, k * series.twist, {e: {e: 1} for e in sorted(piece)})
    return GradedSeries._of_spans(
        series.d, series.twist, spans, label=f"{series.label} sheafified"
    )


# ---------------------------------------------------------------------------
# birationality and full-volume comparison


class BirationalityReport(NamedTuple):
    """Lattice test for birationality of the monomial map at a level."""

    birational: bool
    level: int
    index: int | None
    basis: tuple[tuple[int, ...], ...]


def is_birational_monomial(
    series: GradedSeries, k_max: int = 8
) -> BirationalityReport:
    """Whether the level-k monomial map is birational onto its image.

    Uses the first nonzero level: the map separates points generically iff
    the differences of its exponent vectors generate the full lattice Z^d
    (first coordinate dropped; differences have coordinate sum zero).  The
    returned basis rows are the Hermite form of the difference lattice.
    """
    k0 = None
    for k in range(1, k_max + 1):
        if series.level(k).dim > 0:
            k0 = k
            break
    if k0 is None:
        raise InputError("birationality: no nonzero level found")
    exps = list(_monomial_level(series, k0).pivots)
    first = exps[0]
    # distinct exponents of one degree also differ off the first coordinate,
    # so no difference is zero
    diffs = [
        [x - y for x, y in zip(e, first)][1:] for e in exps[1:]
    ]
    d = series.d
    if not diffs:
        return BirationalityReport(False, k0, None, ())
    H, _ = hermite_normal_form(diffs)
    basis = tuple(tuple(row) for row in H if any(row))
    # H is triangular: the index is the product of its leads at full rank d
    leads = [next(x for x in row if x) for row in basis]
    index = math.prod(leads) if len(leads) == d else None
    return BirationalityReport(index == 1, k0, index, basis)


class FullVolumeReport(NamedTuple):
    """Two independent readings of "the series has full volume"."""

    volume: int | None  # None while the Hilbert data has not stabilized
    expected_volume: int
    volume_full: bool
    hilbert_stabilized: bool
    birational: bool
    locus_empty: bool
    criterion: bool
    agree: bool | None  # None while the volume side is unknown


def full_volume_check(series: GradedSeries, K: int) -> FullVolumeReport:
    """Compare the volume test against the birational + empty-locus test.

    The volume side asks whether the stabilized growth of dim S_k matches
    that of the complete series of the same twist; the geometric side asks
    for birationality of the monomial map together with an empty stable
    base locus.  The two agree exactly on the examples this library covers.
    While the Hilbert data has not stabilized by K the volume side is
    unknown, and the report gives no volume and no agreement.
    """
    hd = series.hilbert_data(K)
    expected = series.twist**series.d
    volume_full = bool(hd.stabilized and hd.volume == expected)
    # a series with no nonzero level up to K is not birational
    birational = any(hd.dims) and is_birational_monomial(series, k_max=K).birational
    locus = stable_base_locus(series, K)
    criterion = bool(birational and locus.empty)
    return FullVolumeReport(
        volume=hd.volume,
        expected_volume=expected,
        volume_full=volume_full,
        hilbert_stabilized=hd.stabilized,
        birational=birational,
        locus_empty=locus.empty,
        criterion=criterion,
        agree=volume_full == criterion if hd.stabilized else None,
    )
