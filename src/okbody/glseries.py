"""Graded linear series of section spaces on projective space.

A series assigns to each level k a space of forms of degree k * twist; level
products must land in level sums, which holds by construction for the
complete and finitely generated providers and is checkable for explicit
input.  Derived series (flag views, twists, restrictions, punctures) wrap a
parent lazily and keep their own level caches, so the computations made on
one derived series share work; the parent keeps nothing of them.  A
generated series and a flag view of a series with generators build each
level on one path, `_generated_level`: the span of the products of lower
levels with the generator spans, found by subduction, in which a row that
entered with a generator row (its signature) meets only that row and the
later ones, as u * (g * r) = g * (u * r).  A view knows the level's
dimension from its parent, so it stops as soon as the products' leads reach
it, most often without any reduction.  The products it keeps stay pending
(`FormSpan.subducted`): the valuation sets are their leads, and only a
reduction or a reader of the terms multiplies one out.  A flag view maps
its generators by one integer substitution per generator level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .errors import InputError, InvariantError, TruncationError
from .flagval import Flag, ValueSemigroup, value_keys
from .polyform import (
    FormSpan,
    HomogeneousForm,
    all_exponents,
    check_degree,
    substitute_forms,
)

Provider = Callable[["GradedSeries", int], FormSpan]


class HilbertData(NamedTuple):
    dims: list[int]
    stabilized: bool
    volume: int | None


class GradedSeries:
    """Section spaces S_k of degree k * twist forms in d + 1 variables."""

    __slots__ = (
        "d",
        "twist",
        "label",
        "generators",
        "max_level",
        "_provider",
        "_levels",
    )

    def __init__(
        self,
        d: int,
        twist: int,
        provider: Provider,
        *,
        label: str = "series",
        generators: dict[int, Sequence[HomogeneousForm]] | None = None,
        max_level: int | None = None,
    ):
        if d < 1:
            raise InputError("series: projective dimension must be positive")
        if twist < 1:
            raise InputError("series: twist must be positive")
        self.d = d
        self.twist = twist
        self.label = label
        self.max_level = max_level
        if generators is not None:
            clean: dict[int, tuple[HomogeneousForm, ...]] = {}
            for j, forms in generators.items():
                j = int(j)
                forms = tuple(forms)
                if j < 1 or not forms:
                    raise InputError("series: bad generator level")
                for g in forms:
                    if g.is_zero or g.nvars != d + 1 or g.degree != j * twist:
                        raise InputError("series: generator of wrong shape")
                clean[j] = forms
            generators = clean
        self.generators = generators
        self._provider = provider
        self._levels: dict[int, FormSpan] = {}

    # -- access --------------------------------------------------------------

    def level(self, k: int) -> FormSpan:
        if k < 1:
            raise InputError("series level: k must be >= 1")
        if self.max_level is not None and k > self.max_level:
            raise TruncationError(
                f"series defined only up to level {self.max_level}"
            )
        span = self._levels.get(k)
        if span is None:
            check_degree(k * self.twist, f"series level {k}")
            span = self._provider(self, k)
            if span.nvars != self.d + 1 or span.degree != k * self.twist:
                raise InvariantError("series: provider returned wrong shape")
            self._levels[k] = span
        return span

    def dims(self, K: int) -> list[int]:
        check_degree(K * self.twist, f"series level {K}")
        return [self.level(k).dim for k in range(1, K + 1)]

    def hilbert_data(self, K: int) -> HilbertData:
        """Level dimensions plus a stabilization check: the d-th finite
        differences must be constant over the last three values."""
        dims = self.dims(K)
        window = 3
        if K < self.d + window:
            return HilbertData(dims, False, None)
        diffs = dims[:]
        for _ in range(self.d):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        tail = diffs[-window:]
        if all(v == tail[0] for v in tail):
            return HilbertData(dims, True, tail[0])
        return HilbertData(dims, False, None)

    def validate_multiplicative(self, K: int) -> None:
        """Check S_i * S_j lands inside S_{i+j} for all levels up to K."""
        for i in range(1, K):
            for j in range(i, K - i + 1):
                prod = self.level(i) * self.level(j)
                target = self.level(i + j)
                for f in prod.basis:
                    if not target.contains(f):
                        raise InputError(
                            f"series: level {i} times level {j} leaves "
                            f"level {i + j}"
                        )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def complete(cls, d: int, twist: int = 1, *, label: str = "complete") -> GradedSeries:
        def provider(series: GradedSeries, k: int) -> FormSpan:
            return FormSpan.complete(series.d + 1, k * series.twist)

        gens = {
            1: tuple(
                HomogeneousForm.monomial(d + 1, e)
                for e in all_exponents(d + 1, twist)
            )
        }
        return cls(d, twist, provider, label=label, generators=gens)

    @classmethod
    def generated(
        cls,
        d: int,
        twist: int,
        generators,
        *,
        label: str = "generated",
    ) -> GradedSeries:
        """Series generated by forms placed at explicit levels.

        generators may be a flat sequence (all level 1) or a mapping from
        level to forms; S_k is the sum of G_j * S_{k-j} over generator
        levels j (`_generated_level`, every product reduced, as no
        dimension is known), so levels not reachable as sums of generator
        levels are zero.
        """
        if not isinstance(generators, dict):
            generators = {1: list(generators)}
        gens = {int(j): tuple(forms) for j, forms in generators.items()}
        if not gens:
            raise InputError("generated series: no generators")
        spans = {
            j: FormSpan(d + 1, j * twist, forms) for j, forms in gens.items()
        }
        for j, s in spans.items():
            if s.dim == 0:
                raise InputError(f"generated series: level {j} generators are zero")

        def provider(series: GradedSeries, k: int) -> FormSpan:
            return _generated_level(series, k, spans, None)

        return cls(d, twist, provider, label=label, generators=gens)

    @classmethod
    def explicit(
        cls,
        d: int,
        twist: int,
        levels: dict[int, Sequence[HomogeneousForm]],
        *,
        label: str = "explicit",
    ) -> GradedSeries:
        """Series given by raw section lists per level, defined only up to
        the highest level provided; unlisted intermediate levels are zero."""
        spans: dict[int, FormSpan] = {}
        for k, forms in levels.items():
            k = int(k)
            if k < 1:
                raise InputError("explicit series: level must be >= 1")
            spans[k] = FormSpan(d + 1, k * twist, forms)
        return cls._of_spans(d, twist, spans, label=label)

    @classmethod
    def _of_spans(
        cls, d: int, twist: int, spans: dict[int, FormSpan], *, label: str
    ) -> GradedSeries:
        """The explicit series of spans already built per level (k >= 1)."""
        if not spans:
            raise InputError("explicit series: no levels given")

        def provider(series: GradedSeries, k: int) -> FormSpan:
            got = spans.get(k)
            if got is None:
                got = FormSpan(series.d + 1, k * series.twist, [])
            return got

        return cls(
            d, twist, provider, label=label, max_level=max(spans)
        )

    # -- derived series --------------------------------------------------------

    def under_flag(self, flag: Flag) -> GradedSeries:
        """The same series written in flag coordinates: a new view, which
        computes its levels from the parent and caches them itself, so a
        caller builds it once and holds it.

        A complete parent level is its own image.  When the series has
        generators, the change of flag is a ring map, so the view is
        generated by the transformed generators and its level k is built
        on the path of `generated` (`_generated_level`), with the parent
        level's dimension to stop and cross-check the subduction.  The
        generators of each level go through one integer substitution
        (`substitute_forms`, under the flag's integer lines), which gives
        both their span and the exact transformed forms, with no form
        re-validated.  Other series transform each parent level."""
        if flag.d != self.d:
            raise InputError("under_flag: flag dimension mismatch")
        if flag.is_standard:
            return self
        tgens = gspans = None
        if self.generators is not None:
            images = {
                j: substitute_forms(forms, flag.lines, flag.den)
                for j, forms in self.generators.items()
            }
            tgens = {j: forms for j, (forms, _) in images.items()}
            gspans = {j: images[j][1] for j in sorted(images)}

        def provider(series: GradedSeries, k: int) -> FormSpan:
            span = self.level(k)
            if span.is_complete:
                return span
            if gspans is None:
                return span.transformed(flag.lines)
            return _generated_level(series, k, gspans, span.dim)

        return GradedSeries(
            self.d,
            self.twist,
            provider,
            label=f"{self.label}|flag",
            generators=tgens,
            max_level=self.max_level,
        )

    def veronese(self, b: int) -> GradedSeries:
        """The b-th graded subseries: level k is the parent level b * k."""
        if b < 1:
            raise InputError("veronese: b must be >= 1")
        if b == 1:
            return self

        def provider(series: GradedSeries, k: int) -> FormSpan:
            return self.level(b * k)

        max_level = None if self.max_level is None else self.max_level // b
        if max_level == 0:
            raise TruncationError("veronese: no levels available")
        return GradedSeries(
            self.d,
            self.twist * b,
            provider,
            label=f"{self.label}^({b})",
            max_level=max_level,
        )

    def vanishing_along_flag_divisor(self, eps: Fraction) -> GradedSeries:
        """The subseries of sections vanishing to order at least eps * k
        along the first coordinate hyperplane, kept at the same degrees.
        The series must already be in flag coordinates (first variable
        cuts the flag divisor)."""
        eps = Fraction(eps)
        if eps < 0:
            raise InputError("vanishing_along_flag_divisor: negative multiple")
        if eps == 0:
            return self

        def provider(series: GradedSeries, k: int) -> FormSpan:
            order = math.ceil(eps * k)
            return self.level(k).subspace_with_min_exponent(order)

        return GradedSeries(
            self.d,
            self.twist,
            provider,
            label=f"{self.label}>={eps}*Y1",
            max_level=self.max_level,
        )

    def subtract_flag_divisor(self, eps: int) -> GradedSeries:
        """The series with eps copies of the flag divisor removed: level k
        keeps the sections divisible by the eps * k-th power of the first
        variable and divides them out, so the twist drops by eps.  The
        series must already be in flag coordinates."""
        if eps != int(eps):
            raise InputError("subtract_flag_divisor: multiple must be integral")
        eps = int(eps)
        if eps < 0:
            raise InputError("subtract_flag_divisor: negative multiple")
        if eps == 0:
            return self
        if eps >= self.twist:
            raise InputError(
                "subtract_flag_divisor: multiple must stay below the "
                "divisor degree"
            )

        def provider(series: GradedSeries, k: int) -> FormSpan:
            span = self.level(k).subspace_with_min_exponent(eps * k)
            return span.divided_by_variable(eps * k)

        return GradedSeries(
            self.d,
            self.twist - eps,
            provider,
            label=f"{self.label}-{eps}*Y1",
            max_level=self.max_level,
        )

    def restrict_to_flag_divisor(self) -> GradedSeries:
        """Image of the restriction to the first flag hyperplane, a series
        on a projective space of one dimension less.  The series must
        already be in flag coordinates."""
        if self.d < 2:
            raise InputError("restriction needs projective dimension >= 2")

        def provider(series: GradedSeries, k: int) -> FormSpan:
            return self.level(k).restricted()

        return GradedSeries(
            self.d - 1,
            self.twist,
            provider,
            label=f"{self.label}|Y1",
            max_level=self.max_level,
        )

    def puncture(self, point: Sequence[Fraction]) -> GradedSeries:
        """Subseries of sections vanishing at one projective point."""
        pt = tuple(Fraction(v) for v in point)
        if len(pt) != self.d + 1 or not any(pt):
            raise InputError("puncture: point must be projective of matching dimension")

        def provider(series: GradedSeries, k: int) -> FormSpan:
            return self.level(k).subspace_vanishing_at([pt])

        return GradedSeries(
            self.d,
            self.twist,
            provider,
            label=f"{self.label}-point",
            max_level=self.max_level,
        )

    def fujita_subseries(self, p: int) -> GradedSeries:
        """The finitely generated approximation built from level p: its
        level k is the span of k-fold products from level p."""
        if p < 1:
            raise InputError("fujita_subseries: p must be >= 1")
        base = self.level(p)
        if base.dim == 0:
            raise InputError("fujita_subseries: level p is zero")
        return GradedSeries.generated(
            self.d,
            self.twist * p,
            {1: base.basis},
            label=f"{self.label}[{p}]",
        )

    # -- valuation data ----------------------------------------------------------

    def semigroup(self, flag: Flag, K: int) -> ValueSemigroup:
        """Value points of levels 1..K under the flag valuation."""
        if K < 1:
            raise InputError("semigroup: truncation must be >= 1")
        check_degree(K * self.twist, f"semigroup to level {K}")
        view = self.under_flag(flag)
        levels = {k: value_keys(view.level(k)) for k in range(1, K + 1)}
        return ValueSemigroup._of(self.d, K, levels)

    def __repr__(self) -> str:
        return (
            f"GradedSeries(d={self.d}, twist={self.twist}, "
            f"label={self.label!r})"
        )


def _generated_level(
    series: GradedSeries, k: int, gspans: dict[int, FormSpan], dim: int | None
) -> FormSpan:
    """Level k of a series generated by gspans (generator level -> span):
    the products of its level k - j with the span at each generator level
    j <= k, level 0 being the constants.  A known dim stops and
    cross-checks the subduction (`FormSpan.subducted`), which is ordered,
    as each factor on the left is a full level."""
    factors = [
        (series.level(k - j) if j < k else FormSpan.complete(series.d + 1, 0), gspan)
        for j, gspan in gspans.items()
        if j <= k
    ]
    return FormSpan.subducted(
        series.d + 1, k * series.twist, dim, factors, ordered=True
    )
