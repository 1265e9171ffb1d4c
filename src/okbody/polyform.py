"""Homogeneous polynomial forms and finite dimensional spaces of them.

Forms are sparse dictionaries from exponent tuples to rational coefficients.
A FormSpan holds a space of forms of one degree in one representation:
primitive integer term rows with distinct leads, the lead of a row being its
lex-least exponent.  Every term of a row is keyed by one packed integer
(`pack`): a field of WIDTH bits per variable, the first variable most
significant.  Below the field width integer order is lex order and keys add
under products, so a lead sum is one integer sum; a key keeps its value when
the first variable is cut (its field is 0) and loses power << (WIDTH * (n -
1)) in a quotient by X1^power.  Degrees stay below DEGREE_BOUND, half the
range of a field, so the top bit of every field is spare: the difference of
two keys is a key exactly when no field borrows, and an InputError refuses
any degree at or past the bound.  Keys are unpacked only at the edges: `pivots`, `basis`,
and the forms that `substitute_linear` and `substitute_forms` return.

The leads are the pivots the valuation layer reads off, so the ordering
convention is load bearing.  Every span operation builds its rows through
one insertion reducer; lex order is a monomial order, so leads of products
add and shifts and cuts by the first variable keep leads apart without any
reduction.  A row may be kept pending, its lead known without its terms: an
operation and the rows it applies to, which `_terms` computes once, when a
reduction or a reader needs the terms, keeping the rows.  A pending product
is `_mul_terms` of two rows of a subduction; in a level of a generated
series the second is its signature, the generator row it entered with, and
the next level multiplies it only by that row and the generator rows after
it.  A quotient by a power of the first variable and a cut that sets it to
zero are pending rows of one row: they apply at once to a term row and are
deferred on a pending one.  The canonical basis, the reduced row echelon
form over ascending lex exponent columns, is computed only when `basis` or
`==` reads it.  Forms are built only at the edges (input, `basis`), and
linear substitution maps every row through one table of monomial images:
`substitute_forms` maps a list of forms as primitive integer rows under
integer lines, and gives their span and their exact images from the same rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import InputError, InvariantError
from .exactnum import cleared_rows, integer_row, kernel, rref_rows

Exponent = tuple[int, ...]

WIDTH = 20  # bits per variable in a packed exponent key
_MASK = (1 << WIDTH) - 1
# every degree stays below half the range of a field: its top bit is spare
DEGREE_BOUND = 1 << (WIDTH - 1)

# the coefficient of every row of a monomial span's canonical basis
_ONE = Fraction(1)


def pack(exponent: Sequence[int]) -> int:
    """The exponent as one integer, WIDTH bits per entry, the first entry
    most significant.  For entries below DEGREE_BOUND, integer order is lex
    order, the key of a sum is the sum of the keys, and the difference of
    two keys is the key of the difference exactly when no entry of it is
    negative; otherwise it is negative or has an entry at or above the
    bound."""
    key = 0
    for x in exponent:
        key = key << WIDTH | x
    return key


def unpack(key: int, nvars: int) -> Exponent:
    """The exponent tuple of nvars entries that `pack` maps to key."""
    return tuple(key >> s & _MASK for s in range(WIDTH * (nvars - 1), -1, -WIDTH))


def check_degree(degree: int, what: str) -> None:
    """Refuse a degree at or past the bound of packed keys."""
    if degree >= DEGREE_BOUND:
        raise InputError(
            f"{what}: degree {degree} is at or above the bound {DEGREE_BOUND} "
            "of packed exponent keys"
        )


def _packed(terms: dict[Exponent, Fraction]) -> dict[int, Fraction]:
    return {pack(e): c for e, c in terms.items()}


def all_exponents(nvars: int, degree: int) -> Iterator[Exponent]:
    """Yield every exponent tuple of the given total degree in ascending
    lexicographic order."""
    if nvars <= 0:
        raise InputError("all_exponents: nvars must be positive")
    if nvars == 1:
        yield (degree,)
        return
    for e in range(degree + 1):
        for rest in all_exponents(nvars - 1, degree - e):
            yield (e,) + rest


def count_exponents(nvars: int, degree: int) -> int:
    return math.comb(degree + nvars - 1, nvars - 1)


class HomogeneousForm:
    """A homogeneous polynomial with rational coefficients.

    Immutable by convention: no method mutates terms in place.
    """

    __slots__ = ("nvars", "terms", "degree")

    def __init__(
        self,
        nvars: int,
        terms: dict[Exponent, Fraction] | Iterable[tuple[Exponent, Fraction]],
        degree: int | None = None,
    ):
        if nvars <= 0:
            raise InputError("form: nvars must be positive")
        clean: dict[Exponent, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            e = tuple(int(v) for v in e)
            c = Fraction(c)
            if len(e) != nvars:
                raise InputError("form: exponent length != nvars")
            if any(v < 0 for v in e):
                raise InputError("form: negative exponent")
            if c == 0:
                continue
            clean[e] = clean.get(e, Fraction(0)) + c
            if clean[e] == 0:
                del clean[e]
        degs = {sum(e) for e in clean}
        if len(degs) > 1:
            raise InputError("form: mixed degrees, not homogeneous")
        if degs:
            d = degs.pop()
            if degree is not None and degree != d:
                raise InputError("form: declared degree does not match terms")
            degree = d
        self.nvars = nvars
        self.terms = clean
        self.degree = degree  # None only for the zero form of free degree

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(
        cls, nvars: int, terms: dict[Exponent, Fraction], degree: int
    ) -> HomogeneousForm:
        """A form from terms the library built itself: integer exponents of
        one degree mapped to nonzero Fractions, taken without re-validation."""
        form = object.__new__(cls)
        form.nvars, form.terms, form.degree = nvars, terms, degree
        return form

    @classmethod
    def zero(cls, nvars: int, degree: int | None = None) -> HomogeneousForm:
        return cls(nvars, {}, degree)

    @classmethod
    def monomial(
        cls, nvars: int, exponent: Sequence[int], coeff: Fraction | int = 1
    ) -> HomogeneousForm:
        return cls(nvars, {tuple(exponent): Fraction(coeff)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> HomogeneousForm:
        e = [0] * nvars
        e[i] = 1
        return cls.monomial(nvars, e)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

    def canonical_terms(self) -> tuple[tuple[Exponent, Fraction], ...]:
        return tuple(sorted(self.terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def _check_addable(self, other: HomogeneousForm) -> int | None:
        if self.nvars != other.nvars:
            raise InputError("form: nvars mismatch")
        if self.degree is None:
            return other.degree
        if other.degree is None:
            return self.degree
        if self.degree != other.degree:
            raise InputError("form: cannot add different degrees")
        return self.degree

    def __add__(self, other: HomogeneousForm) -> HomogeneousForm:
        deg = self._check_addable(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return HomogeneousForm(self.nvars, terms, deg)

    def __neg__(self) -> HomogeneousForm:
        return HomogeneousForm(
            self.nvars, {e: -c for e, c in self.terms.items()}, self.degree
        )

    def __sub__(self, other: HomogeneousForm) -> HomogeneousForm:
        return self + (-other)

    def scaled(self, factor: Fraction | int) -> HomogeneousForm:
        factor = Fraction(factor)
        if factor == 0:
            return HomogeneousForm.zero(self.nvars, self.degree)
        return HomogeneousForm(
            self.nvars,
            {e: c * factor for e, c in self.terms.items()},
            self.degree,
        )

    def __mul__(self, other: HomogeneousForm) -> HomogeneousForm:
        if self.nvars != other.nvars:
            raise InputError("form: nvars mismatch")
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        # tuple exponents: a sum is entrywise, never `+` (concatenation)
        terms: dict[Exponent, Fraction] = {}
        for eb, cb in other.terms.items():
            for ea, ca in self.terms.items():
                e = tuple(map(add, ea, eb))
                terms[e] = terms.get(e, 0) + ca * cb
        return HomogeneousForm(self.nvars, terms, deg)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HomogeneousForm)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.canonical_terms()))

    # -- substitution and evaluation ----------------------------------------

    def substitute_linear(
        self, matrix: Sequence[Sequence[Fraction]]
    ) -> HomogeneousForm:
        """Replace variable j by the linear form sum_k matrix[j][k] * Y_k.

        The result is the composition f(M y) in the new coordinates.
        """
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise InputError("substitute_linear: matrix must be nvars x nvars")
        if self.is_zero:
            return self
        lines = [[Fraction(v) for v in row] for row in matrix]
        (terms,) = _substitute([_packed(self.terms)], lines, self.degree)
        return HomogeneousForm._of(
            n, {unpack(e, n): c for e, c in terms.items()}, self.degree
        )

    def set_variable_zero(self, i: int) -> HomogeneousForm:
        """Restrict to the hyperplane where variable i vanishes; the variable
        is dropped, so the result lives in one fewer variable."""
        if self.nvars < 2:
            raise InputError("set_variable_zero: need at least two variables")
        terms = {
            e[:i] + e[i + 1 :]: c
            for e, c in self.terms.items()
            if e[i] == 0
        }
        deg = self.degree if terms else None
        return HomogeneousForm(self.nvars - 1, terms, deg)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise InputError("evaluate: point length != nvars")
        return _evaluate(self.terms.items(), point)

    def __repr__(self) -> str:
        if self.is_zero:
            return "HomogeneousForm(0)"
        bits = []
        for e, c in self.canonical_terms():
            mono = "*".join(
                f"X{i + 1}^{p}" if p > 1 else f"X{i + 1}"
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return "HomogeneousForm(" + " + ".join(bits) + ")"


def _evaluate(
    terms: Iterable[tuple[Exponent, Fraction]], point: Sequence[Fraction]
) -> Fraction:
    point = [Fraction(v) for v in point]
    total = Fraction(0)
    for e, c in terms:
        val = c
        for x, p in zip(point, e):
            if p:
                val *= x**p
        total += val
    return total


def _mul_terms(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two term rows: packed keys add."""
    out: dict[int, int] = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return {e: v for e, v in out.items() if v}


def _substitute(
    rows: Sequence[dict], matrix: Sequence[Sequence], degree: int
) -> list[dict[int, Fraction]]:
    """The degree-D rows under X_j -> sum_k matrix[j][k] * Y_k, through one
    table of monomial images shared by every row.  The table is built a
    degree at a time, X^e = X^(e - u_j) * X_j with j the first variable in
    e (the most significant nonzero field of its key), only for the images
    that lead to an exponent of the rows, and holds two degrees at once; an
    image is a dense list over its degree's keys in ascending order."""
    check_degree(degree, "substitution")
    n = len(matrix)
    units = [1 << s for s in range(WIDTH * (n - 1), -1, -WIDTH)]
    firsts = {}  # key -> (j, key - u_j)
    need = {e for row in rows for e in row}
    chains = [need]
    for _ in range(degree):
        for e in need:
            field = (e.bit_length() - 1) // WIDTH
            firsts[e] = n - 1 - field, e - (1 << field * WIDTH)
        need = {parent for _, parent in map(firsts.get, need)}
        chains.append(need)
    exps = [0]
    table = {0: [1]}
    for t in range(1, degree + 1):
        prev, exps = exps, _keys_of_degree(n, t)
        index = {e: i for i, e in enumerate(exps)}
        shifts = [[index[e + u] for e in prev] for u in units]
        images = {}
        for e in chains[degree - t]:
            j, parent = firsts[e]
            low = table[parent]
            img = [0] * len(exps)
            for k, m in enumerate(matrix[j]):
                if m:
                    shift = shifts[k]
                    for i, v in enumerate(low):
                        if v:
                            img[shift[i]] += m * v
            images[e] = img
        table = images
    out = []
    for row in rows:
        total = [0] * len(exps)
        for e, c in row.items():
            for i, v in enumerate(table[e]):
                if v:
                    total[i] += c * v
        out.append({exps[i]: v for i, v in enumerate(total) if v})
    return out


def _keys_of_degree(nvars: int, degree: int) -> list[int]:
    """The keys of every exponent of the degree, in ascending order: those
    of `all_exponents`, built field by field."""
    if nvars == 1:
        return [degree]
    shift = WIDTH * (nvars - 1)
    return [
        e << shift | rest
        for e in range(degree + 1)
        for rest in _keys_of_degree(nvars - 1, degree - e)
    ]


def _primitive(row: dict) -> dict[int, int]:
    """The row scaled to coprime integers."""
    den = math.lcm(*(v.denominator for v in row.values()))
    return _content_free({e: int(v * den) for e, v in row.items()})


def _content_free(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return {e: v // g for e, v in row.items()} if g > 1 else row


class _Pending:
    """A table row kept pending: op applied to the term rows of args.  A
    product is `_mul_terms` of two rows; a quotient by a power of X1 or a
    cut X1 -> 0 is a shift or a cut of one row.  `_terms` sets `row`
    when it first computes it, and the args stay."""

    __slots__ = ("op", "args", "row")

    def __init__(self, op, *args):
        self.op, self.args, self.row = op, args, None


def _terms(value) -> dict:
    """The term row of a table value: the row itself, or a pending row
    computed once, after the pending rows it applies to.  The row is cached
    in the pending row, which keeps its args: they are rows of cached
    spans, and `subducted` reads a product's second factor.  An explicit
    stack does the work, as a level-K row rests on K levels of products."""
    if type(value) is dict:
        return value
    stack = [value]
    while stack:
        top = stack[-1]
        if top.row is not None:
            stack.pop()
            continue
        waiting = [f for f in top.args if type(f) is not dict and f.row is None]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        top.row = top.op(*(f if type(f) is dict else f.row for f in top.args))
    return value.row


def _apply(op, value):
    """op on a table value: at once on a term row or a pending row already
    computed, and deferred, as a pending row of one arg, on the others."""
    if type(value) is dict:
        return op(value)
    if value.row is not None:
        return op(value.row)
    return _Pending(op, value)


def _mono_coefficient(value, pivot):
    """The coefficient of a table value that is a one-term row, at its
    pivot, or None.  A pending row is taken as none: a pending product
    never is one, as a product has one term exactly when both factors do
    and `subducted` writes such a product down as a row."""
    return value[pivot] if type(value) is dict and len(value) == 1 else None


def _top_reduce(row: dict, table: dict) -> dict:
    """Cancel the lead of an integer row against the table (lead -> table
    value) until its lead is new; the remainder, made primitive after each
    step, or an empty row."""
    while row:
        lead = min(row)
        top = table.get(lead)
        if top is None:
            return row
        top = _terms(top)
        g = math.gcd(top[lead], row[lead])
        a, b = top[lead] // g, row[lead] // g
        out = {e: a * v for e, v in row.items()}
        for e, v in top.items():
            w = out.get(e, 0) - b * v
            if w:
                out[e] = w
            else:
                del out[e]
        if lead in out:
            raise InvariantError("top reduction: the lead was not cancelled")
        row = _content_free(out) if out else out
    return row


def _insert(table: dict, rows: Iterable[dict]) -> dict:
    """Enter each integer row into the table (lead -> primitive integer row)
    under the new lead of its top-reduced remainder; zero remainders are
    dropped."""
    for row in rows:
        row = _top_reduce(_content_free(row), table)
        if row:
            table[min(row)] = row
    return table


class FormSpan:
    """A vector space of homogeneous forms of one degree.

    `_rows` maps each pivot, as its packed key (`pack`), to a primitive
    integer term row keyed the same way whose lead (lex-least exponent,
    least key) it is, in ascending order; the pivots double as the
    valuation set of the space for the standard coordinate flag.  A row may
    be pending (`_Pending`): a product from `subducted`, or a quotient or
    cut of a pending row.  Every reader of the terms goes through `_terms`
    (or `_top_reduce`) to compute it; the pivot keys, `dim` and the
    valuation layer never need it.  `pivots` unpacks the keys to exponent
    tuples when first read.  Every operation builds its table of rows with
    `_insert` (or keeps or shifts rows whose leads stay distinct).  The
    canonical basis is the reduced row echelon form over ascending lex
    exponent columns, computed and cached when `basis` or `==` first reads
    it.
    """

    __slots__ = ("nvars", "degree", "_rows", "_pivots", "_reduced")

    def __init__(
        self, nvars: int, degree: int, forms: Iterable[HomogeneousForm] = ()
    ):
        check_degree(degree, "span")
        forms = [f for f in forms if not f.is_zero]
        if any(f.nvars != nvars or f.degree != degree for f in forms):
            raise InputError("span: form of wrong shape")
        rows = [_primitive(_packed(f.terms)) for f in forms]
        self._set(nvars, degree, _insert({}, rows))

    def _set(self, nvars: int, degree: int, table: dict) -> FormSpan:
        if degree < 0:
            raise InputError("span: negative degree")
        self.nvars = nvars
        self.degree = degree
        self._rows = {p: table[p] for p in sorted(table)}
        self._pivots = self._reduced = None
        return self

    @classmethod
    def _of(cls, nvars: int, degree: int, table: dict) -> FormSpan:
        """The span of the rows of a table (lead key -> primitive integer
        row, or a pending row)."""
        return object.__new__(cls)._set(nvars, degree, table)

    @property
    def pivot_keys(self):
        """The packed pivots, in ascending order."""
        return self._rows.keys()

    @property
    def pivots(self) -> tuple[Exponent, ...]:
        """The pivot exponents, in ascending lex order."""
        if self._pivots is None:
            n = self.nvars
            self._pivots = tuple(unpack(p, n) for p in self._rows)
        return self._pivots

    def _term_rows(self) -> list[dict]:
        """The term rows in pivot order, pending rows computed."""
        return [_terms(row) for row in self._rows.values()]

    @property
    def _canonical(self) -> tuple[dict, ...]:
        """The canonical basis rows in reduced row echelon form."""
        if self._reduced is None:
            if self.is_monomial_span:
                self._reduced = tuple({p: _ONE} for p in self._rows)
            else:
                rows = self._term_rows()
                cols = sorted({e for row in rows for e in row})
                red, _ = rref_rows([[r.get(e, 0) for e in cols] for r in rows])
                self._reduced = tuple(
                    {cols[j]: v for j, v in enumerate(r) if v} for r in red
                )
        return self._reduced

    @classmethod
    def complete(cls, nvars: int, degree: int) -> FormSpan:
        check_degree(degree, "span")
        rows = {e: {e: 1} for e in _keys_of_degree(nvars, degree)}
        return cls._of(nvars, degree, rows)

    @classmethod
    def subducted(
        cls,
        nvars: int,
        degree: int,
        dim: int | None,
        factors: Sequence[tuple[FormSpan, FormSpan]],
        ordered: bool = False,
    ) -> FormSpan:
        """The span of the products a * b of the rows of each pair of spans
        (A, B), whose degrees add up to degree.

        Lex order is a monomial order, so the lead of a * b is the sum of
        the leads, and packed keys add: each lead is one integer sum.  One
        product per distinct lead goes into the table unreduced and not
        multiplied out, as a pending product (a product of two monomial
        rows is the monomial row {lead: ca * cb}, and a product with a
        constant is the other row, up to scale); products of primitive rows
        are primitive (Gauss), so the table holds primitive integer rows.
        The other products, largest lead first, are multiplied out and
        top-reduced against the table, which multiplies out each table row
        they reach: all of them when dim is None, otherwise only until the
        table holds dim rows.  A product of two monomials whose lead holds
        a product of two monomials is zero after reduction and never
        queued.  With dim given, too many distinct leads, or too few rows
        once the products run out, mean that the products do not span a
        dim-dimensional space: InvariantError.

        ordered is for a level of a generated series (`_generated_level`):
        each A is a full level and the rows of the B, the generator spans,
        take one fixed order.  A row of A with signature g, the generator
        row it entered with (itself, or the second factor of a pending
        product), is multiplied only by g and the generator rows after it,
        any other row by all.  The span is the same: the row is g * r', so
        for u before g, u * (g * r') = g * (u * r'), and u * r' is a sum of
        rows s of a full level, whose products g * s are formed or, for
        s = h * s' with h after g, expand the same way with a rising
        generator row.  This needs each A to be a full level, so `__mul__`
        forms every product."""
        check_degree(degree, "subduction")
        table: dict = {}
        rest = []
        get, queue = table.get, rest.append
        order: dict = {}
        if ordered:
            for _, B in factors:
                for rb in B._rows.values():
                    order[id(rb)] = len(order)
        signature = order.get
        offset = 0
        for A, B in factors:
            if nvars != A.nvars or nvars != B.nvars or degree != A.degree + B.degree:
                raise InputError("subducted: factors of the wrong shape")
            constant = A.degree == 0 or B.degree == 0
            rows_b = [
                (pb, rb, _mono_coefficient(rb, pb)) for pb, rb in B._rows.items()
            ]
            for pa, ra in A._rows.items():
                ca = _mono_coefficient(ra, pa)
                later = rows_b
                # a one-term row keeps no signature: monomial series run unordered
                if ca is None:
                    start = signature(id(ra if type(ra) is dict else ra.args[-1]), 0)
                    if start > offset:
                        later = rows_b[start - offset :]
                for pb, rb, cb in later:
                    lead = pa + pb
                    first = get(lead)
                    if first is None:
                        if constant:
                            # a constant factor: the other row, up to scale
                            first = rb if A.degree == 0 else ra
                        elif ca is None or cb is None:
                            first = _Pending(_mul_terms, ra, rb)
                        else:
                            first = {lead: ca * cb}
                        table[lead] = first
                    elif (
                        ca is None or cb is None
                        or type(first) is not dict or len(first) != 1
                    ):
                        queue((lead, ra, rb))
            offset += len(rows_b)
        if dim is not None and len(table) > dim:
            raise InvariantError(
                f"subduction: {len(table)} distinct leads exceed the "
                f"dimension {dim}"
            )
        rest.sort(key=itemgetter(0), reverse=True)
        for _, ra, rb in rest:
            if len(table) == dim:
                break
            row = _top_reduce(_mul_terms(_terms(ra), _terms(rb)), table)
            if row:
                table[min(row)] = row
        if dim is not None and len(table) < dim:
            raise InvariantError(
                f"subduction: the products span {len(table)} of {dim} "
                "dimensions"
            )
        return cls._of(nvars, degree, table)

    @property
    def basis(self) -> tuple[HomogeneousForm, ...]:
        n = self.nvars
        return tuple(
            HomogeneousForm._of(
                n, {unpack(e, n): c for e, c in row.items()}, self.degree
            )
            for row in self._canonical
        )

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def is_complete(self) -> bool:
        return self.dim == count_exponents(self.nvars, self.degree)

    @property
    def is_monomial_span(self) -> bool:
        """Every term of every row is a pivot, so the span is that of the
        pivot monomials."""
        rows = self._rows
        return all(e in rows for row in rows.values() for e in _terms(row))

    def contains(self, form: HomogeneousForm) -> bool:
        if form.is_zero:
            return True
        if form.nvars != self.nvars or form.degree != self.degree:
            return False
        return not _top_reduce(_primitive(_packed(form.terms)), self._rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormSpan)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self._rows.keys() == other._rows.keys()
            and self._canonical == other._canonical
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.degree, tuple(self._rows)))

    def __add__(self, other: FormSpan) -> FormSpan:
        if self.nvars != other.nvars or self.degree != other.degree:
            raise InputError("span sum: shape mismatch")
        table = _insert(dict(self._rows), other._term_rows())
        return self._of(self.nvars, self.degree, table)

    def __mul__(self, other: FormSpan) -> FormSpan:
        if self.nvars != other.nvars:
            raise InputError("span product: nvars mismatch")
        return self.subducted(
            self.nvars, self.degree + other.degree, None, [(self, other)]
        )

    def transformed(self, matrix: Sequence[Sequence[Fraction]]) -> FormSpan:
        """The span under X -> M Y.  M is first scaled to integers by the
        lcm of its denominators: f(c M y) = c^D f(M y) spans the same."""
        lines, _ = cleared_rows(matrix)
        rows = _substitute(self._term_rows(), lines, self.degree)
        return self._of(self.nvars, self.degree, _insert({}, rows))

    def restricted(self) -> FormSpan:
        """The image under X1 -> 0, in one fewer variable.  A row whose
        lead has first exponent > 0 is divisible by X1 and vanishes, and
        every other row keeps its lead, so no reduction runs: each keeps
        its terms without X1, made primitive, deferred on a pending row
        (`_apply`).  A term without X1 keeps its key, whose first field is
        0, in one fewer variable."""
        if self.nvars < 2:
            raise InputError("restricted: need at least two variables")
        bound = 1 << WIDTH * (self.nvars - 1)  # the key of X1

        def cut(row: dict) -> dict:
            return _content_free({e: c for e, c in row.items() if e < bound})

        table = {p: _apply(cut, row) for p, row in self._rows.items() if p < bound}
        return self._of(self.nvars - 1, self.degree, table)

    def divided_by_variable(self, power: int) -> FormSpan:
        """Quotient by X1^power, which divides every element; the degree
        drops by the power.  The order of a row in X1 is the first exponent
        of its lead, so divisibility is read off the least pivot; lex order
        is translation invariant, so each row keeps its lead, and every key
        drops by the key of X1^power.  The shift is deferred on a pending
        row (`_apply`)."""
        if power < 0:
            raise InputError("divided_by_variable: negative power")
        shift = power << WIDTH * (self.nvars - 1)  # the key of X1^power
        if self._rows and next(iter(self._rows)) < shift:
            raise InputError("divided_by_variable: an element is not divisible")

        def divided(row: dict) -> dict:
            return {e - shift: c for e, c in row.items()}

        table = {p - shift: _apply(divided, row) for p, row in self._rows.items()}
        return self._of(self.nvars, self.degree - power, table)

    def subspace_with_min_exponent(self, minimum: int) -> FormSpan:
        """Elements all of whose terms have exponent >= minimum in X1 (the
        forms divisible by X1^minimum): the rows whose lead has first
        exponent >= minimum, as lex order compares that exponent first, so
        the lead is lowest in it."""
        top = WIDTH * (self.nvars - 1)
        kept = {p: r for p, r in self._rows.items() if p >> top >= minimum}
        return self._of(self.nvars, self.degree, kept)

    def subspace_vanishing_at(
        self, points: Sequence[Sequence[Fraction]]
    ) -> FormSpan:
        rows = self._term_rows()
        if not points or not rows:
            return self
        n = self.nvars
        terms = [[(unpack(e, n), c) for e, c in r.items()] for r in rows]
        return self._kernel(
            [integer_row([_evaluate(t, p) for t in terms]) for p in points]
        )

    def _kernel(self, conditions: list[list[int]]) -> FormSpan:
        """Elements whose row coefficients c satisfy conditions . c = 0."""
        terms = self._term_rows()
        rows = []
        for combo in kernel(conditions, len(terms)):
            total: dict[int, int] = {}
            for row, c in zip(terms, combo):
                if c:
                    for e, v in row.items():
                        total[e] = total.get(e, 0) + c * v
            rows.append({e: v for e, v in total.items() if v})
        return self._of(self.nvars, self.degree, _insert({}, rows))

    def __repr__(self) -> str:
        shape = f"nvars={self.nvars}, degree={self.degree}, dim={self.dim}"
        return f"FormSpan({shape})"


def substitute_forms(
    forms: Sequence[HomogeneousForm], lines: Sequence[Sequence[int]], den: int
) -> tuple[tuple[HomogeneousForm, ...], FormSpan]:
    """Nonzero forms of one shape under X -> M Y, with M = lines / den, and
    their span, from one table of monomial images.  Each form enters as its
    primitive integer row p, with f = c * p, so f(M y) is c / den^D times the
    integer row p(lines y)."""
    nvars, degree = forms[0].nvars, forms[0].degree
    prims = [_primitive(_packed(f.terms)) for f in forms]
    rows = _substitute(prims, lines, degree)
    images = []
    for f, p, row in zip(forms, prims, rows):
        lead, c = next(iter(f.terms.items()))
        scale = c / p[pack(lead)]
        num, dd = scale.numerator, scale.denominator * den**degree
        images.append(
            HomogeneousForm._of(
                nvars,
                {unpack(e, nvars): Fraction(num * v, dd) for e, v in row.items()},
                degree,
            )
        )
    return tuple(images), FormSpan._of(nvars, degree, _insert({}, rows))
