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
any degree at or past the bound; other modules read the layout from `unit_key`,
`field_mask` and `spare_bits`.  Keys are unpacked, by one shift-and-mask
loop, only at the edges: `pivots`, `basis`, the forms that
`substitute_linear` builds, `MonomialIdeal.generators`, and the CLI's
serializer, which reads `canonical_rows` (packed keys in ascending order,
Fraction coefficients).

The leads are the pivots the valuation layer reads off, so the ordering
convention is load bearing.  Every span operation builds its rows through
one insertion reducer; lex order is a monomial order, so leads of products
add and shifts and cuts by the first variable keep leads apart without any
reduction.  A row that is its lead monomial is kept as its key alone, the
table value None (`FormSpan._of_keys`: complete spans, key-sum levels);
`_terms` expands it from the lead its caller holds.  A row may be kept
pending, its lead known without its terms: an operation and the rows it
applies to, which `_terms` computes once, when a reduction or a reader
needs the terms, keeping the rows.  Every product a subduction keeps is
such a pending product, `_mul_terms` of two rows, whatever their number of
terms, the second its signature (`FormSpan.subducted`).  `*` multiplies
every pair of rows out.  A quotient by a power of the first variable and a
cut that sets it to zero keep a keys-only row, apply at once to a term row
and are deferred on a pending one.  The canonical basis, the reduced row
echelon form over ascending lex exponent columns, is computed only when it
is read; a monomial span, each of whose rows has only pivots as terms
(`is_monomial_span`), reads it off its pivots.  Forms are built only at the
edges (input, `basis`), and linear substitution (`transformed`,
`substitute_linear`) maps every row through one table of monomial images.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
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
    """The exponent tuple of nvars entries that `pack` maps to key: the
    fields are masked off from the last, the rest of the key being the
    first entry.  nvars is positive, as for every form."""
    out = [key] * nvars
    i = nvars - 1
    while i > 0:
        out[i] = key & _MASK
        key >>= WIDTH
        i -= 1
    out[0] = key
    return tuple(out)


def unit_key(nvars: int, i: int) -> int:
    """The key of the variable X_i (i from 0) among nvars."""
    return 1 << WIDTH * (nvars - 1 - i)


def field_mask(nvars: int, i: int) -> int:
    """The bits of field i of a key of nvars fields."""
    return _MASK * unit_key(nvars, i)


def spare_bits(nvars: int) -> int:
    """The spare top bit of each field of a key of nvars fields.  For
    entries below DEGREE_BOUND no field of (b | spare) - a borrows, and one
    keeps its bit exactly where b's entry is at least a's: a divides b iff
    ((b | spare) - a) & spare == spare."""
    return DEGREE_BOUND * sum(unit_key(nvars, i) for i in range(nvars))


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
    units = [unit_key(n, j) for j in range(n)]
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
    return _content_free({e: v.numerator * (den // v.denominator) for e, v in row.items()})


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


def _terms(key: int, value) -> dict:
    """The term row of a table value under its lead key: {key: 1} for a
    keys-only row (None), the row itself, or a pending row computed once,
    after the pending rows it applies to and cached in it; it keeps its
    args, rows of cached spans, as `subducted` reads a product's second
    factor.  An explicit stack does the work, as a level-K row rests on K
    levels of products."""
    if value is None:
        return {key: 1}
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


def _top_reduce(row: dict, table: dict) -> dict:
    """Cancel the lead of an integer row against the table (lead -> table
    value) until its lead is new; the remainder, made primitive after each
    step, or an empty row."""
    while row:
        lead = min(row)
        if lead not in table:
            return row
        top = _terms(lead, table[lead])
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
    be keys-only (None), the monomial of its pivot, or pending (`_Pending`):
    a product from `subducted`, or a quotient or cut of a pending row.
    Every reader of the terms goes through `_terms` (or `_top_reduce`) to
    expand or compute it; the pivot keys, `dim` and the valuation layer
    never need it.  `pivots` unpacks the keys to exponent tuples each time
    it is read.  Every operation builds its table of rows with `_insert`
    (or keeps or shifts rows whose leads stay distinct).  The canonical
    basis is the reduced row echelon form over ascending lex exponent
    columns, computed and cached when `basis` or `==` first reads it.
    """

    __slots__ = ("nvars", "degree", "_rows", "_reduced")

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
        keys = sorted(table)
        # a table built in pivot order is kept as it is
        self._rows = table if keys == list(table) else {p: table[p] for p in keys}
        self._reduced = None
        return self

    @classmethod
    def _of(cls, nvars: int, degree: int, table: dict) -> FormSpan:
        """The span of the rows of a table (lead key -> primitive integer
        row, a pending row, or None for a keys-only row)."""
        return object.__new__(cls)._set(nvars, degree, table)

    @classmethod
    def _of_keys(cls, nvars: int, degree: int, keys: Iterable[int]) -> FormSpan:
        """The span of the monomials of ascending packed keys, keys-only."""
        return cls._of(nvars, degree, dict.fromkeys(keys))

    @property
    def pivot_keys(self):
        """The packed pivots, in ascending order."""
        return self._rows.keys()

    @property
    def pivots(self) -> tuple[Exponent, ...]:
        """The pivot exponents, in ascending lex order."""
        return tuple([unpack(p, self.nvars) for p in self._rows])

    def _term_rows(self) -> list[dict]:
        """The term rows in pivot order, pending rows computed."""
        return [_terms(p, row) for p, row in self._rows.items()]

    @property
    def canonical_rows(self) -> tuple[dict[int, Fraction], ...]:
        """The canonical basis rows in reduced row echelon form: each maps
        packed keys, in ascending order, to Fraction coefficients."""
        if self._reduced is None:
            if self.is_monomial_span:
                self._reduced = tuple([{p: _ONE} for p in self._rows])
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
        return cls._of_keys(nvars, degree, _keys_of_degree(nvars, degree))

    @classmethod
    def subducted(
        cls,
        nvars: int,
        degree: int,
        dim: int | None,
        factors: Sequence[tuple[FormSpan, FormSpan]],
    ) -> FormSpan:
        """The span of the products a * b of the rows of each pair of spans
        (A, B), whose degrees add up to degree: a level of a generated
        series (`_generated_level`), the B being its generator spans.

        Lex order is a monomial order, so the lead of a * b is the sum of
        the leads, and packed keys add: each lead is one integer sum.  The
        first product of each distinct lead goes into the table unreduced
        and not multiplied out, as a pending product (a product with a
        constant A is the row of B, up to scale); products of primitive
        rows are primitive (Gauss), so the table holds primitive integer
        rows.  Every other product is queued; the queue, largest lead
        first, is multiplied out and top-reduced against the table, which
        multiplies out each table row it reaches: all of it when dim is
        None, otherwise only until the table holds dim rows.  With dim
        given, too many distinct leads, or too few rows once the products
        run out, mean that the products do not span a dim-dimensional
        space: InvariantError.

        The rows of all the B take one fixed order, pair by pair.  A row of
        A with signature g, the row of a B it entered with (itself, or the
        second factor of a pending product), is multiplied only by g and
        the rows after it, any other row by all.  The precondition: a row
        of A that carries a signature comes from the full level of the
        series the B generate.  The span is then the same: the row is
        g * r', so for u before g, u * (g * r') = g * (u * r'), and u * r'
        is a sum of rows s of a full level, whose products g * s are formed
        or, for s = h * s' with h after g, expand the same way with a
        rising row.  This holds for a row of one term as for any other.
        Only remainders of a reduction, rows of spans built from forms and
        keys-only rows carry no signature: each call expands (`_terms`) a
        keys-only row of A, and of B before it takes the rows' identity."""
        check_degree(degree, "subduction")
        table: dict = {}
        rest = []
        queue = rest.append
        rows_of_b = [list(zip(B.pivot_keys, B._term_rows())) for _, B in factors]
        signature = {id(rb): i for i, (_, rb) in enumerate(chain(*rows_of_b))}.get
        offset = 0
        for (A, B), rows_b in zip(factors, rows_of_b):
            if nvars != A.nvars or nvars != B.nvars or degree != A.degree + B.degree:
                raise InputError("subducted: factors of the wrong shape")
            for pa, ra in A._rows.items():
                if ra is None:
                    ra = _terms(pa, ra)
                later = rows_b
                start = signature(id(ra if type(ra) is dict else ra.args[-1]), 0)
                if start > offset:
                    later = rows_b[start - offset :]
                for pb, rb in later:
                    lead = pa + pb
                    if lead in table:
                        queue((lead, pa, ra, rb))
                    elif A.degree == 0:
                        table[lead] = rb  # a constant A: the row of B, up to scale
                    else:
                        table[lead] = _Pending(_mul_terms, ra, rb)
            offset += len(rows_b)
        if dim is not None and len(table) > dim:
            raise InvariantError(
                f"subduction: {len(table)} distinct leads exceed the "
                f"dimension {dim}"
            )
        rest.sort(key=itemgetter(0), reverse=True)
        for _, pa, ra, rb in rest:
            if len(table) == dim:
                break
            _insert(table, [_mul_terms(_terms(pa, ra), rb)])
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
            for row in self.canonical_rows
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
        pivot monomials.  A keys-only row is its pivot, so only the terms of
        the other rows are looked up."""
        keys = self._rows.keys()
        return all(
            row is None or _terms(p, row).keys() <= keys
            for p, row in self._rows.items()
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormSpan)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self._rows.keys() == other._rows.keys()
            and self.canonical_rows == other.canonical_rows
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.degree, tuple(self._rows)))

    def __add__(self, other: FormSpan) -> FormSpan:
        if self.nvars != other.nvars or self.degree != other.degree:
            raise InputError("span sum: shape mismatch")
        table = _insert(dict(self._rows), other._term_rows())
        return self._of(self.nvars, self.degree, table)

    def __mul__(self, other: FormSpan) -> FormSpan:
        """The span of the products of every row of self with every row of
        other, each multiplied out and entered by `_insert`."""
        if self.nvars != other.nvars:
            raise InputError("span product: nvars mismatch")
        degree = self.degree + other.degree
        check_degree(degree, "span product")
        rows_b = other._term_rows()
        rows = [_mul_terms(a, b) for a in self._term_rows() for b in rows_b]
        return self._of(self.nvars, degree, _insert({}, rows))

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
        (`_apply`); a keys-only row kept is its own image.  A term without
        X1 keeps its key, whose first field is 0, in one fewer variable."""
        if self.nvars < 2:
            raise InputError("restricted: need at least two variables")
        bound = unit_key(self.nvars, 0)  # the key of X1

        def cut(row: dict) -> dict:
            return _content_free({e: c for e, c in row.items() if e < bound})

        table = {
            p: row if row is None else _apply(cut, row)
            for p, row in self._rows.items()
            if p < bound
        }
        return self._of(self.nvars - 1, self.degree, table)

    def divided_by_variable(self, power: int) -> FormSpan:
        """Quotient by X1^power, which divides every element; the degree
        drops by the power.  The order of a row in X1 is the first exponent
        of its lead, so divisibility is read off the least pivot; lex order
        is translation invariant, so each row keeps its lead, and every key
        drops by the key of X1^power.  The shift is deferred on a pending
        row (`_apply`); a keys-only row stays keys-only."""
        if power < 0:
            raise InputError("divided_by_variable: negative power")
        shift = power * unit_key(self.nvars, 0)  # the key of X1^power
        if self._rows and next(iter(self._rows)) < shift:
            raise InputError("divided_by_variable: an element is not divisible")

        def divided(row: dict) -> dict:
            return {e - shift: c for e, c in row.items()}

        table = {
            p - shift: row if row is None else _apply(divided, row)
            for p, row in self._rows.items()
        }
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
        """Elements whose row coefficients c satisfy conditions . c = 0, a
        condition per point: the values of the term rows there."""
        rows = self._term_rows()
        if not points or not rows:
            return self
        n = self.nvars
        terms = [[(unpack(e, n), c) for e, c in r.items()] for r in rows]
        conditions = [integer_row([_evaluate(t, p) for t in terms]) for p in points]
        out = []
        for combo in kernel(conditions, len(rows)):
            total: dict[int, int] = {}
            for row, c in zip(rows, combo):
                if c:
                    for e, v in row.items():
                        total[e] = total.get(e, 0) + c * v
            out.append({e: v for e, v in total.items() if v})
        return self._of(self.nvars, self.degree, _insert({}, out))

    def __repr__(self) -> str:
        shape = f"nvars={self.nvars}, degree={self.degree}, dim={self.dim}"
        return f"FormSpan({shape})"

