"""Graded linear series of section spaces on projective space.

A series assigns to each level k a space of forms of degree k * twist; level
products must land in level sums, which holds by construction for the
complete and finitely generated providers and is the caller's to ensure
for explicit input.  Derived series (flag views, twists, restrictions,
punctures) wrap a parent lazily and keep their own level caches, so the
computations made on one derived series share work; the parent keeps
nothing of them.  A series with generators holds them as one span of
integer term rows per generator level: a generated series the spans of its
forms, a flag view the spans of its parent mapped by
`FormSpan.transformed`, a Fujita approximation the term rows of its
parent's level.  Each builds every level on one path, `_generated_level`:
the span of the products of lower levels with the generator spans.  When
every generator span is spanned by monomials (`FormSpan.is_monomial_span`),
so are the levels, and level k is the set of key sums of the levels below
and the generators, held as packed keys from start to finish.  Otherwise
it is found by subduction, in which a row that entered with a generator
row (its signature) meets only that row and the later ones, as
u * (g * r) = g * (u * r).  A view knows the level's dimension from its
parent, so it cross-checks the key sums, and stops a subduction as soon as
the products' leads reach it, most often without any reduction.
The products it keeps stay pending (`FormSpan.subducted`): the valuation
sets are their leads, and only a reduction or a reader of the terms
multiplies one out.

A series records the dimension of every level it builds, and holds the
level spans read through `level` for the rest of its life, so a command
that reads a level again finds it.  A single-pass read (`value_levels`, and
a view's read of its parent's dimensions) holds a level it builds only while
the series' own provider can still read it: the last `reach` levels, the
top generator level of a generated series or a view.  Peak memory then
grows with the largest level, not with the sum of all; a command that reads
levels again reads them through `level` before its single pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import InputError, InvariantError, TruncationError
from .flagval import Flag, value_keys
from .polyform import (
    FormSpan,
    HomogeneousForm,
    check_degree,
    count_exponents,
)

Provider = Callable[["GradedSeries", int], FormSpan]


class HilbertData(NamedTuple):
    dims: list[int]
    stabilized: bool
    volume: int | None

    @classmethod
    def of(cls, dims: list[int], d: int) -> HilbertData:
        """Level dimensions of a series on P^d plus a stabilization check:
        the d-th finite differences must be constant over the last three
        values."""
        window = 3
        if len(dims) < d + window:
            return cls(dims, False, None)
        diffs = dims[:]
        for _ in range(d):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        tail = diffs[-window:]
        if all(v == tail[0] for v in tail):
            return cls(dims, True, tail[0])
        return cls(dims, False, None)


class GradedSeries:
    """Section spaces S_k of degree k * twist forms in d + 1 variables.

    A series with generators holds `_gspans`, generator level -> span of
    term rows, none of them pending, and `_forms` the forms it was built
    from, if any.  `monomial_generator_level` is the top generator level
    when every generator span is a monomial span, else None.  The
    provider of level k reads levels of the series itself no lower than
    k - reach.  `_levels` holds spans, `_dims` the dimension of every level
    built, and `_loose` the held levels that a single-pass read built."""

    __slots__ = (
        "d",
        "twist",
        "label",
        "max_level",
        "monomial_generator_level",
        "_gspans",
        "_forms",
        "_provider",
        "_reach",
        "_levels",
        "_dims",
        "_loose",
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
        reach: int = 0,
    ):
        if d < 1:
            raise InputError("series: projective dimension must be positive")
        if twist < 1:
            raise InputError("series: twist must be positive")
        self.d = d
        self.twist = twist
        self.label = label
        self.max_level = max_level
        self._forms = gspans = None
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
            self._forms = clean
            gspans = {j: FormSpan(d + 1, j * twist, f) for j, f in sorted(clean.items())}
        self._generate(gspans)
        self._provider = provider
        self._reach = reach
        self._levels: dict[int, FormSpan] = {}
        self._dims: dict[int, int] = {}
        self._loose: set[int] = set()

    def _generate(self, gspans: dict[int, FormSpan] | None) -> GradedSeries:
        """Hold the generator spans, and set `monomial_generator_level`,
        which also chooses key sums in `_generated_level`."""
        self._gspans = gspans
        self.monomial_generator_level = None
        if gspans and all(span.is_monomial_span for span in gspans.values()):
            self.monomial_generator_level = max(gspans)
        return self

    # -- access --------------------------------------------------------------

    @property
    def generators(self) -> dict[int, tuple[HomogeneousForm, ...]] | None:
        """The generator forms by level, or None: the forms the series was
        built from, or else the basis of each generator span."""
        if self._forms is not None or self._gspans is None:
            return self._forms
        return {j: span.basis for j, span in self._gspans.items()}

    def level(self, k: int) -> FormSpan:
        """Level k; a level built here is held for the rest of the series'
        life."""
        span = self._levels.get(k)
        return self._build(k, False) if span is None else span

    def _build(self, k: int, loose: bool) -> FormSpan:
        """Level k, which the series does not hold, from the provider.  A
        level built for a single-pass read (loose) is held only until the
        series builds another loose level k' with k <= k' - reach, past
        the reach of the provider; it is dropped at once when the reach is
        0."""
        if k < 1:
            raise InputError("series level: k must be >= 1")
        if self.max_level is not None and k > self.max_level:
            raise TruncationError(
                f"series defined only up to level {self.max_level}"
            )
        check_degree(k * self.twist, f"series level {k}")
        span = self._provider(self, k)
        if span.nvars != self.d + 1 or span.degree != k * self.twist:
            raise InvariantError("series: provider returned wrong shape")
        self._dims[k] = span.dim
        self._levels[k] = span
        if loose:
            self._loose.add(k)
            for old in [j for j in self._loose if j <= k - self._reach]:
                self._loose.discard(old)
                del self._levels[old]
        return span

    def dims(self, K: int) -> list[int]:
        """The dimensions of levels 1..K; a level with none yet is built and
        held (`level`)."""
        check_degree(K * self.twist, f"series level {K}")
        dims = self._dims
        return [dims[k] if k in dims else self.level(k).dim for k in range(1, K + 1)]

    def hilbert_data(self, K: int) -> HilbertData:
        """Level dimensions plus a stabilization check (`HilbertData.of`)."""
        return HilbertData.of(self.dims(K), self.d)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def complete(cls, d: int, twist: int = 1, *, label: str = "complete") -> GradedSeries:
        def provider(series: GradedSeries, k: int) -> FormSpan:
            return FormSpan.complete(series.d + 1, k * series.twist)

        return cls(d, twist, provider, label=label)._generate(
            {1: FormSpan.complete(d + 1, twist)}
        )

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
        levels j (`_generated_level`: as no dimension is known, every
        product that the signature rule forms and whose lead is taken is
        reduced), so levels not reachable as sums of generator levels are
        zero.
        """
        if not isinstance(generators, dict):
            generators = {1: generators}
        if not generators:
            raise InputError("generated series: no generators")
        return cls(
            d,
            twist,
            _generated_level,
            label=label,
            generators=generators,
            reach=max(map(int, generators)),
        )

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

        A complete parent level is its own image, or a complete span once
        the parent no longer holds it.  When the series has generators,
        the change of flag is a ring map, so the view is generated by the
        transformed generators: it holds each generator span under the
        flag's integer lines (`FormSpan.transformed`), and its level k is
        built on the path of `generated` (`_generated_level`), with the
        parent level's dimension to stop and cross-check it.  Such a view
        reads only the parent's dimensions, so the parent holds the
        levels it builds for them loosely.  Other series transform each
        parent level."""
        if flag.d != self.d:
            raise InputError("under_flag: flag dimension mismatch")
        if flag.is_standard:
            return self
        gspans = self._gspans

        def provider(series: GradedSeries, k: int) -> FormSpan:
            if gspans is None:
                span = self.level(k)
                return span if span.is_complete else span.transformed(flag.lines)
            span = self._levels.get(k)
            if span is None and k not in self._dims:
                span = self._build(k, True)
            dim = self._dims[k]
            if dim == count_exponents(self.d + 1, k * self.twist):
                return span or FormSpan.complete(self.d + 1, k * self.twist)
            return _generated_level(series, k, dim)

        view = GradedSeries(
            self.d,
            self.twist,
            provider,
            label=f"{self.label}|flag",
            max_level=self.max_level,
            reach=0 if gspans is None else max(gspans),
        )
        if gspans is None:
            return view
        return view._generate(
            {j: span.transformed(flag.lines) for j, span in gspans.items()}
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
        level k is the span of k-fold products from level p.  Its generator
        span holds the term rows of level p under their pivots, so the
        approximation takes key sums when level p is a monomial span."""
        if p < 1:
            raise InputError("fujita_subseries: p must be >= 1")
        base = self.level(p)
        if base.dim == 0:
            raise InputError("fujita_subseries: level p is zero")
        rows = dict(zip(base.pivot_keys, base._term_rows()))
        series = GradedSeries(
            self.d, base.degree, _generated_level, label=f"{self.label}[{p}]", reach=1
        )
        return series._generate({1: FormSpan._of(base.nvars, base.degree, rows)})

    # -- valuation data ----------------------------------------------------------

    def value_levels(self, K: int) -> Iterator[list[int]]:
        """The value keys (`flagval.value_keys`) of levels 1..K, level by
        level, read in one pass: the series holds the levels it builds for
        them loosely, and records every level's dimension."""
        for k in range(1, K + 1):
            span = self._levels.get(k)
            yield value_keys(self._build(k, True) if span is None else span)

    def __repr__(self) -> str:
        return (
            f"GradedSeries(d={self.d}, twist={self.twist}, "
            f"label={self.label!r})"
        )


def _generated_level(
    series: GradedSeries, k: int, dim: int | None = None
) -> FormSpan:
    """Level k of a series with generators: the products of its level
    k - j with its generator span at each generator level j <= k, level 0
    being the constants.  With no dim it is the provider of a generated
    series and of a Fujita approximation.

    When every generator span is a monomial span, its pivot keys are its
    monomials and every level is the span of its pivot monomials (a complete
    level is too), so level k is the span of the key sums: each pivot key of
    level k - j plus each pivot key of G_j, and the pivot keys of G_k,
    entered as one-term rows.  A known dim cross-checks their count.
    Otherwise the level is found by subduction (`FormSpan.subducted`),
    whose signature rule holds as each factor on the left is a full level,
    and a known dim stops and cross-checks it."""
    n, degree = series.d + 1, k * series.twist
    gspans = series._gspans
    if series.monomial_generator_level is not None:
        keys: set[int] = set()
        for j, gspan in gspans.items():
            if j < k:
                low = series.level(k - j).pivot_keys
                keys.update({a + b for b in gspan.pivot_keys for a in low})
            elif j == k:
                keys.update(gspan.pivot_keys)
        if dim is not None and len(keys) != dim:
            raise InvariantError(
                f"key sums: {len(keys)} distinct keys, but the dimension is {dim}"
            )
        return FormSpan._of(n, degree, {e: {e: 1} for e in sorted(keys)})
    factors = [
        (series.level(k - j) if j < k else FormSpan.complete(n, 0), gspan)
        for j, gspan in gspans.items()
        if j <= k
    ]
    return FormSpan.subducted(n, degree, dim, factors)
