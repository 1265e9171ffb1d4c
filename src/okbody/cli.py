"""Command line interface: JSON descriptions in, JSON reports out.

Input files describe a graded linear series by generators (polynomial
section spaces on projective space) or a surface by its intersection
lattice.  Every command writes a single JSON envelope with a stable key
order, so identical invocations produce byte-identical output.  All
rationals are serialized as "p/q" strings.  Typed failures map onto
exit codes: bad input 2, unsupported mode or out of memory 3, internal
invariant 4.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Sequence

try:  # the interpreter's own SHA-256: `hashlib` would load OpenSSL for it
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .convbody import BodyReport, RationalPolytope, okounkov_body
from .errors import InputError, InvariantError, UnsupportedModeError
from .flagval import Flag, filtered_dimension
from .glseries import GradedSeries
from .monideal import full_volume_check, is_birational_monomial, sheafify, stable_base_locus
from .polyform import FormSpan, HomogeneousForm, check_degree, unpack
from .surfacezar import SurfaceLattice, classify_boundary, surface_body

SCHEMA = 1


# -- rational serialization ------------------------------------------------------


def fr_str(value) -> str:
    """An int or a Fraction as "p/q", read off its lowest terms."""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{where}: cannot parse rational {value!r}") from None
    raise InputError(f"{where}: expected an integer or a 'p/q' string")


def _fr_list(vec: Sequence) -> list[str]:
    return [fr_str(v) for v in vec]


# -- series input and output ------------------------------------------------------


def _need(data: dict, key: str, where: str):
    if key not in data:
        raise InputError(f"{where}: missing key {key!r}")
    return data[key]


def _int_field(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer")
    if value < minimum:
        raise InputError(f"{where}: must be >= {minimum}")
    return value


_GROUP_KEYS = frozenset({"degree", "forms"})
_TERM_KEYS = frozenset({"exp", "num", "den"})


def _place(where: str, i: int, j: int | None = None, a: int | None = None) -> str:
    """The location of generator group i of a series description, of form j
    of that group, and of term a of that form."""
    place = f"{where}.generators[{i}]"
    if j is not None:
        place += f".forms[{j}]"
    if a is not None:
        place += f"[{a}]"
    return place


def parse_series(data, *, where: str = "series") -> GradedSeries:
    """Build a graded series from its JSON description.

    The description lists generators grouped by level; the series is
    their multiplicative closure.  An empty generator list is the zero
    series.
    """
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    allowed = {"ambient_dim", "divisor_degree", "generators", "label"}
    extra = sorted(set(data) - allowed)
    if extra:
        raise InputError(f"{where}: unknown keys {extra}")
    d = _int_field(_need(data, "ambient_dim", where), f"{where}.ambient_dim", 1)
    twist = _int_field(
        _need(data, "divisor_degree", where), f"{where}.divisor_degree", 1
    )
    label = data.get("label", "series")
    if not isinstance(label, str):
        raise InputError(f"{where}.label: expected a string")
    groups_raw = _need(data, "generators", where)
    if not isinstance(groups_raw, list):
        raise InputError(f"{where}.generators: expected a list")

    groups: dict[int, list[HomogeneousForm]] = {}
    n = d + 1
    # locations are formatted only for an error message (`_place`)
    for i, entry in enumerate(groups_raw):
        if not isinstance(entry, dict):
            raise InputError(f"{_place(where, i)}: expected an object")
        if not _GROUP_KEYS.issuperset(entry):
            extra = sorted(set(entry) - _GROUP_KEYS)
            raise InputError(f"{_place(where, i)}: unknown keys {extra}")
        if "degree" not in entry:
            _need(entry, "degree", _place(where, i))
        k = entry["degree"]
        if type(k) is not int or k < 1:
            k = _int_field(k, f"{_place(where, i)}.degree", 1)
        if k in groups:
            raise InputError(f"{_place(where, i)}: duplicate degree {k}")
        if "forms" not in entry:
            _need(entry, "forms", _place(where, i))
        forms_raw = entry["forms"]
        if not isinstance(forms_raw, list) or not forms_raw:
            raise InputError(f"{_place(where, i)}.forms: expected a nonempty list")
        degree = k * twist
        forms: list[HomogeneousForm] = []
        for j, terms_raw in enumerate(forms_raw):
            if not isinstance(terms_raw, list) or not terms_raw:
                raise InputError(
                    f"{_place(where, i, j)}: expected a nonempty list of terms"
                )
            terms: dict[tuple[int, ...], Fraction] = {}
            for a, term in enumerate(terms_raw):
                if not isinstance(term, dict):
                    raise InputError(f"{_place(where, i, j, a)}: expected an object")
                if not _TERM_KEYS.issuperset(term):
                    extra = sorted(set(term) - _TERM_KEYS)
                    raise InputError(f"{_place(where, i, j, a)}: unknown keys {extra}")
                if "exp" not in term:
                    _need(term, "exp", _place(where, i, j, a))
                exp_raw = term["exp"]
                if not isinstance(exp_raw, list) or len(exp_raw) != n:
                    raise InputError(
                        f"{_place(where, i, j, a)}.exp: expected {n} exponents"
                    )
                if not all(type(e) is int and e >= 0 for e in exp_raw):
                    slot = _place(where, i, j, a)
                    for b, e in enumerate(exp_raw):
                        _int_field(e, f"{slot}.exp[{b}]", 0)
                exp = tuple(exp_raw)
                if sum(exp) != degree:
                    raise InputError(
                        f"{_place(where, i, j, a)}.exp: degree {sum(exp)} != "
                        f"level {k} * divisor degree {twist}"
                    )
                if "num" not in term:
                    _need(term, "num", _place(where, i, j, a))
                num = term["num"]
                den = term.get("den", 1)
                if type(num) is not int or type(den) is not int:
                    for name, v in (("num", num), ("den", den)):
                        if isinstance(v, bool) or not isinstance(v, int):
                            raise InputError(
                                f"{_place(where, i, j, a)}.{name}: expected an integer"
                            )
                if den == 0:
                    raise InputError(f"{_place(where, i, j, a)}.den: zero denominator")
                if num == 0:
                    raise InputError(f"{_place(where, i, j, a)}.num: zero coefficient")
                if exp in terms:
                    raise InputError(
                        f"{_place(where, i, j, a)}.exp: duplicate exponent {list(exp)}"
                    )
                terms[exp] = Fraction(num, den)
            # every exponent, degree and coefficient is checked above
            forms.append(HomogeneousForm._of(n, terms, degree))
        groups[k] = forms

    if not groups:
        def provider(series: GradedSeries, k: int) -> FormSpan:
            return FormSpan(series.d + 1, k * series.twist)

        return GradedSeries(d, twist, provider, label=label, max_level=None)
    return GradedSeries.generated(d, twist, groups, label=label)


def _terms_json(terms) -> list[dict]:
    """The JSON terms of (exponent, rational coefficient) pairs."""
    return [{"exp": list(e), "num": c.numerator, "den": c.denominator} for e, c in terms]


def serialize_series(series: GradedSeries) -> dict:
    """The JSON description of a series, inverse to parse_series.

    Generated series serialize their generators, each form's terms in
    ascending lex order; explicitly listed series serialize the canonical
    rows of every stored level (`FormSpan.canonical_rows`), whose packed
    keys are already in that order and are unpacked once each.
    """
    groups = series.generators
    if groups is not None:
        out = [
            {"degree": k, "forms": [_terms_json(sorted(f.terms.items())) for f in groups[k]]}
            for k in sorted(groups)
        ]
    elif series.max_level is None:
        raise UnsupportedModeError("serialize: series has no finite presentation")
    else:
        n = series.d + 1
        out = []
        for k in range(1, series.max_level + 1):
            rows = series.level(k).canonical_rows
            if rows:
                forms = [_terms_json((unpack(e, n), c) for e, c in row.items()) for row in rows]
                out.append({"degree": k, "forms": forms})
    return {
        "ambient_dim": series.d,
        "divisor_degree": series.twist,
        "label": series.label,
        "generators": out,
    }


def load_json(path: str):
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise InputError(f"{path}: cannot read input ({e.strerror})") from None
    try:
        data = json.loads(raw.decode("utf-8"))
    # ValueError: bad JSON or UTF-8, or an integer past the digit limit;
    # RecursionError: nesting past the recursion limit
    except (ValueError, RecursionError) as e:
        raise InputError(f"{path}: invalid JSON ({e})") from None
    return data, sha256(raw).hexdigest()


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"{path}: cannot write output ({e.strerror})") from None


def load_series(path: str) -> tuple[GradedSeries, str]:
    data, digest = load_json(path)
    return parse_series(data, where=path), digest


# -- surface input ------------------------------------------------------


def _int_vec(value, where: str, rank: int) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != rank:
        raise InputError(f"{where}: expected a list of {rank} integers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"{where}[{i}]: expected an integer")
        out.append(v)
    return tuple(out)


def parse_surface(data, *, where: str = "surface"):
    """Build (lattice, D, C, point multiplicities) from a JSON description."""
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    allowed = {
        "rank",
        "gram",
        "negative_curves",
        "effective_generators",
        "D",
        "C",
        "point_multiplicities",
    }
    extra = sorted(set(data) - allowed)
    if extra:
        raise InputError(f"{where}: unknown keys {extra}")
    rank = _int_field(_need(data, "rank", where), f"{where}.rank", 1)
    gram = _need(data, "gram", where)
    if not isinstance(gram, list) or len(gram) != rank:
        raise InputError(f"{where}.gram: expected {rank} rows")
    gram = [_int_vec(row, f"{where}.gram[{i}]", rank) for i, row in enumerate(gram)]
    curves_raw = _need(data, "negative_curves", where)
    if not isinstance(curves_raw, list):
        raise InputError(f"{where}.negative_curves: expected a list")
    curves = [
        _int_vec(c, f"{where}.negative_curves[{i}]", rank)
        for i, c in enumerate(curves_raw)
    ]
    gens_raw = _need(data, "effective_generators", where)
    if not isinstance(gens_raw, list) or not gens_raw:
        raise InputError(f"{where}.effective_generators: expected a nonempty list")
    gens = [
        _int_vec(g, f"{where}.effective_generators[{i}]", rank)
        for i, g in enumerate(gens_raw)
    ]
    lattice = SurfaceLattice(gram, curves, gens)
    D = _int_vec(_need(data, "D", where), f"{where}.D", rank)
    C = _int_vec(_need(data, "C", where), f"{where}.C", rank)
    mults: dict[tuple, int] = {}
    raw = data.get("point_multiplicities", {})
    if not isinstance(raw, dict):
        raise InputError(f"{where}.point_multiplicities: expected an object")
    for key, value in raw.items():
        spot = f"{where}.point_multiplicities[{key!r}]"
        # one spelling per index, so that no two keys name the same curve
        try:
            idx = int(key)
        except ValueError:
            idx = None
        if idx is None or key != str(idx):
            raise InputError(f"{spot}: key must be a curve index in plain decimal")
        if not 0 <= idx < len(curves):
            raise InputError(f"{spot}: curve index out of range")
        mults[lattice.negative_curves[idx]] = _int_field(value, spot, 1)
    return lattice, D, C, mults


# -- payload pieces ------------------------------------------------------


def polytope_payload(poly: RationalPolytope) -> dict:
    """H and V descriptions; inequalities read normal . x <= offset."""
    return {
        "ambient": poly.n,
        "affdim": poly.affdim,
        "vertices": [_fr_list(v) for v in poly.vertices],
        "equations": [
            {"normal": _fr_list(a), "offset": fr_str(b)} for a, b in poly.equations
        ],
        "inequalities": [
            {"normal": _fr_list(a), "offset": fr_str(b)} for a, b in poly.inequalities
        ],
    }


def _hilbert_payload(h) -> dict:
    return {
        "dims": list(h.dims),
        "stabilized": h.stabilized,
        "volume": h.volume,
    }


def _report_payload(rep: BodyReport) -> dict:
    return {
        "body": polytope_payload(rep.body),
        "certificate": rep.certificate,
        "certificate_note": rep.certificate_note,
        "lattice_index": rep.lattice_index,
        "semigroup_level_counts": list(rep.dims),
        "hilbert": _hilbert_payload(rep.hilbert),
        "volume": fr_str(rep.body.volume(ambient=True)),
    }


def _flag_payload(args, d: int) -> tuple[Flag, dict, list[int]]:
    matrix = getattr(args, "flag_matrix", None)
    seed = getattr(args, "flag_seed", None)
    if matrix is not None and seed is not None:
        raise InputError("flag: give either a seed or a matrix, not both")
    if matrix is not None:
        try:
            rows = json.loads(matrix)
        except (ValueError, RecursionError) as e:
            raise InputError(f"flag matrix: invalid JSON ({e})") from None
        if not isinstance(rows, list):
            raise InputError("flag matrix: expected a list of rows")
        parsed = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise InputError(f"flag matrix row {i}: expected a list")
            parsed.append(
                [parse_rational(v, f"flag matrix[{i}][{j}]") for j, v in enumerate(row)]
            )
        if len(parsed) != d + 1 or any(len(r) != d + 1 for r in parsed):
            raise InputError(f"flag matrix: expected {d + 1} rows of {d + 1} entries")
        flag = Flag(parsed)
        desc = {"kind": "matrix", "rows": [_fr_list(r) for r in parsed]}
        return flag, desc, []
    if seed is not None:
        flag = Flag.random(d, seed)
        return flag, {"kind": "random", "seed": seed}, [seed]
    return Flag.standard(d), {"kind": "standard"}, []


# -- command handlers ------------------------------------------------------


def _cmd_body(args) -> tuple[dict, dict, list[int], str, str | None]:
    series, digest = load_series(args.input)
    flag, flag_desc, seeds = _flag_payload(args, series.d)
    rep = okounkov_body(series, flag, args.truncation)
    payload = _report_payload(rep)
    payload["label"] = series.label
    payload["flag"] = flag_desc
    svg = None
    if args.svg:
        svg = svg_polygon(rep.body, f"{series.label}: Okounkov body")
    return payload, {"truncation": args.truncation}, seeds, digest, svg


def _slice_sides(series: GradedSeries, flag: Flag, t: Fraction, K: int):
    """Both sides of the slice identity at nu1 = t = a/b: the direct slice
    of the truncated body, and 1/b times the body of the restriction of
    the b-th compound series with a flag divisors removed.  The restricted
    side is truncated at K // b so both sides see the same levels.  It is
    computed first: it reads the view's levels up to b * (K // b) through
    `level`, which holds them for the direct side's single pass."""
    view = series.under_flag(flag)
    a, b = t.numerator, t.denominator
    restricted_series = (
        view.veronese(b).subtract_flag_divisor(a).restrict_to_flag_divisor()
    )
    sub_rep = okounkov_body(
        restricted_series, Flag.standard(series.d - 1), max(1, K // b)
    )
    restricted = sub_rep.body.scaled(Fraction(1, b))
    rep = okounkov_body(view, Flag.standard(series.d), K)
    direct = rep.body.slice_at(0, t)
    return rep, direct, sub_rep, restricted


def _cmd_slice(args):
    series, digest = load_series(args.input)
    if series.d < 2:
        raise UnsupportedModeError(
            "slice: comparison against the restricted series needs ambient "
            "dimension >= 2"
        )
    t = parse_rational(args.t, "slice t")
    if not 0 <= t < series.twist:
        raise InputError("slice: t must lie in [0, divisor degree)")
    flag, flag_desc, seeds = _flag_payload(args, series.d)
    rep, direct, sub_rep, restricted = _slice_sides(series, flag, t, args.truncation)
    payload = {
        "label": series.label,
        "flag": flag_desc,
        "t": fr_str(t),
        "certificate": rep.certificate,
        "direct_slice": polytope_payload(direct),
        "restricted": {
            "veronese": t.denominator,
            "vanishing_multiple": t.numerator,
            "certificate": sub_rep.certificate,
            "body": polytope_payload(restricted),
        },
        "equal": direct == restricted,
    }
    return payload, {"truncation": args.truncation, "t": fr_str(t)}, seeds, digest, None


def _cmd_volume(args):
    series, digest = load_series(args.input)
    flag, flag_desc, seeds = _flag_payload(args, series.d)
    # the full check reads the levels through `level`, which holds them for
    # the body's single pass, so it runs first
    try:
        full = full_volume_check(series, args.truncation)
    except UnsupportedModeError:
        full = None
    rep = okounkov_body(series, flag, args.truncation)
    vol = rep.body.volume(ambient=True)
    scaled = math.factorial(series.d) * vol
    index = rep.lattice_index
    hvol = rep.hilbert.volume
    identity = None
    if index is not None and hvol is not None:
        identity = {
            "factorial_times_volume": fr_str(scaled),
            "index_times_hilbert_volume": fr_str(index * hvol),
            "agrees": scaled == index * hvol,
        }
    payload = {
        "label": series.label,
        "flag": flag_desc,
        "certificate": rep.certificate,
        "volume": fr_str(vol),
        "lattice_index": index,
        "hilbert": _hilbert_payload(rep.hilbert),
        "identity": identity,
    }
    if full is None:
        payload["full_check"] = None
        payload["full_check_note"] = (
            "criterion needs monomial levels for the base locus side"
        )
    else:
        payload["full_check"] = {
            "volume": None if full.volume is None else fr_str(full.volume),
            "expected_volume": full.expected_volume,
            "volume_full": full.volume_full,
            "birational": full.birational,
            "locus_empty": full.locus_empty,
            "criterion": full.criterion,
            "agree": full.agree,
        }
    return payload, {"truncation": args.truncation}, seeds, digest, None


def _cmd_sheafify(args):
    series, digest = load_series(args.input)
    sheaf = sheafify(series, args.truncation)
    levels = []
    for k in range(1, args.truncation + 1):
        levels.append(
            {
                "level": k,
                "dim": series.level(k).dim,
                "sheafified_dim": sheaf.level(k).dim,
            }
        )
    payload = {
        "label": series.label,
        "levels": levels,
        "changed": any(row["dim"] != row["sheafified_dim"] for row in levels),
        "series": serialize_series(sheaf),
    }
    return payload, {"truncation": args.truncation}, [], digest, None


def _cmd_base_locus(args):
    series, digest = load_series(args.input)
    rep = stable_base_locus(series, args.truncation)
    payload = {
        "label": series.label,
        "base_ideals": [
            {"level": k, "generators": [list(e) for e in rep.base_ideals[k].generators]}
            for k in sorted(rep.base_ideals)
        ],
        "cumulative_generators": [list(e) for e in rep.cumulative.generators],
        "components": [list(c) for c in rep.components],
        "empty": rep.empty,
        "stabilized": rep.stabilized,
        "stabilized_at": rep.stabilized_at,
    }
    return payload, {"truncation": args.truncation}, [], digest, None


def _cmd_birational(args):
    if args.max_level < 1:
        raise InputError("birational: --max-level must be at least 1")
    series, digest = load_series(args.input)
    rep = is_birational_monomial(series, args.max_level)
    payload = {
        "label": series.label,
        "birational": rep.birational,
        "level": rep.level,
        "lattice_index": rep.index,
        "basis": [list(v) for v in rep.basis],
    }
    return payload, {"max_level": args.max_level}, [], digest, None


def _cmd_surface(args):
    data, digest = load_json(args.input)
    lattice, D, C, mults = parse_surface(data, where=args.input)
    body = surface_body(lattice, D, C, mults or None)
    strata = classify_boundary(body)
    dec = body.decomposition
    curve_index = {c: i for i, c in enumerate(lattice.negative_curves)}
    payload = {
        "divisor": [fr_str(v) for v in D],
        "curve": [fr_str(v) for v in C],
        "volume": fr_str(lattice.dot(dec.positive, dec.positive)),
        "mu": fr_str(body.mu),
        "mu_note": body.mu_note,
        "zariski_at_zero": {
            "positive": _fr_list(dec.positive),
            "negative": [
                {"curve": curve_index[c], "multiplicity": fr_str(m)}
                for c, m in dec.negative
            ],
        },
        "breakpoints": [fr_str(t) for t in body.breakpoints],
        "segments": [
            {
                "t0": fr_str(s.t0),
                "t1": fr_str(s.t1),
                "alpha": {"slope": fr_str(s.alpha[0]), "intercept": fr_str(s.alpha[1])},
                "beta": {"slope": fr_str(s.beta[0]), "intercept": fr_str(s.beta[1])},
                "support": list(s.support),
            }
            for s in body.segments
        ],
        "area": fr_str(body.area()),
        "polytope": polytope_payload(body.polytope()),
        "point_multiplicities": [
            {"curve": curve_index[c], "multiplicity": m}
            for c, m in body.point_multiplicities
        ],
        "strata": [
            {
                "name": s.name,
                "valuative": s.valuative,
                "detail": s.detail,
                "start": _fr_list(s.start),
                "end": _fr_list(s.end),
                "open_start": s.open_start,
                "open_end": s.open_end,
            }
            for s in strata
        ],
    }
    svg = svg_surface(body, strata) if args.svg else None
    return payload, {}, [], digest, svg


def _cmd_generic_test(args):
    if args.flags < 2:
        raise InputError("generic-test: --flags must be at least 2")
    series, digest = load_series(args.input)
    seeds = [args.seed_base + i for i in range(args.flags)]
    per_flag = []
    bodies = []
    for seed in seeds:
        rep = okounkov_body(series, Flag.random(series.d, seed), args.truncation)
        bodies.append(rep.body)
        per_flag.append(
            {
                "seed": seed,
                "certificate": rep.certificate,
                "vertices": [_fr_list(v) for v in rep.body.vertices],
            }
        )
    equal = all(b == bodies[0] for b in bodies[1:])
    payload = {
        "label": series.label,
        "flags": args.flags,
        "equal": equal,
        "per_flag": per_flag,
    }
    options = {"truncation": args.truncation, "flags": args.flags}
    return payload, options, seeds, digest, None


def _sigma_range(d: int, budget: int):
    for r in range(1, d + 1):
        for sigma in product(range(budget + 1), repeat=r):
            if sum(sigma) <= budget:
                yield sigma


def _cmd_filtered_dims(args):
    if args.levels < 1:
        raise InputError("filtered-dims: --levels must be at least 1")
    if args.sigma_budget < 0:
        raise InputError("filtered-dims: --sigma-budget must be nonnegative")
    series, digest = load_series(args.input)
    flag, flag_desc, seeds = _flag_payload(args, series.d)
    check_degree(args.levels * series.twist, f"filtered-dims to level {args.levels}")
    view = series.under_flag(flag)
    spans = [view.level(k) for k in range(1, args.levels + 1)]
    table = [
        {
            "sigma": list(sigma),
            "dims": [filtered_dimension(span, sigma) for span in spans],
        }
        for sigma in _sigma_range(series.d, args.sigma_budget)
    ]
    payload = {
        "label": series.label,
        "flag": flag_desc,
        "levels": args.levels,
        "table": table,
    }
    options = {"levels": args.levels, "sigma_budget": args.sigma_budget}
    return payload, options, seeds, digest, None


def _cmd_fujita(args):
    series, digest = load_series(args.input)
    flag, flag_desc, seeds = _flag_payload(args, series.d)
    sub = series.fujita_subseries(args.p)
    sub_rep = okounkov_body(sub, flag, args.truncation)
    scaled = sub_rep.body.scaled(Fraction(1, args.p))
    full_rep = okounkov_body(series, flag, args.truncation)
    payload = {
        "label": series.label,
        "flag": flag_desc,
        "p": args.p,
        "approximation": polytope_payload(scaled),
        "approximation_certificate": sub_rep.certificate,
        "full_body": polytope_payload(full_rep.body),
        "contained": full_rep.body.contains(scaled),
    }
    options = {"truncation": args.truncation, "p": args.p}
    return payload, options, seeds, digest, None


# -- SVG output ------------------------------------------------------


def _coord_label(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else fr_str(v)


def _scaler(xmin, xmax, ymin, ymax, width, height, margin):
    dx = max(float(xmax - xmin), 1e-9)
    dy = max(float(ymax - ymin), 1e-9)
    s = min((width - 2 * margin) / dx, (height - 2 * margin) / dy)

    def to_px(x, y):
        px = margin + (float(x) - float(xmin)) * s
        py = height - margin - (float(y) - float(ymin)) * s
        return f"{px:.2f}", f"{py:.2f}"

    return to_px


def svg_polygon(poly: RationalPolytope, title: str) -> str:
    """A standalone drawing of a plane body with labeled vertices."""
    if poly.n != 2:
        raise UnsupportedModeError(
            f"svg: only plane bodies are rendered, got ambient dimension {poly.n}"
        )
    if poly.is_empty:
        raise UnsupportedModeError("svg: the body is empty; nothing to render")
    if poly.affdim != 2:
        raise UnsupportedModeError(
            f"svg: only full dimensional bodies are rendered, got dimension {poly.affdim}"
        )
    width, height, margin = 480, 400, 48
    ring = poly.ordered_ring()
    xs = [v[0] for v in ring] + [Fraction(0)]
    ys = [v[1] for v in ring] + [Fraction(0)]
    to_px = _scaler(min(xs), max(xs), min(ys), max(ys), width, height, margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="24" font-family="monospace" font-size="14">'
        f"{title}</text>",
    ]
    ox, oy = to_px(0, 0)
    parts.append(
        f'<line x1="{margin / 2:.2f}" y1="{oy}" x2="{width - margin / 2:.2f}" '
        f'y2="{oy}" stroke="#999" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{ox}" y1="{margin / 2:.2f}" x2="{ox}" '
        f'y2="{height - margin / 2:.2f}" stroke="#999" stroke-width="1"/>'
    )
    pts = " ".join(",".join(to_px(v[0], v[1])) for v in ring)
    parts.append(
        f'<polygon points="{pts}" fill="#9ecae1" fill-opacity="0.55" '
        f'stroke="#1f6fb4" stroke-width="2"/>'
    )
    for v in ring:
        px, py = to_px(v[0], v[1])
        label = f"({_coord_label(v[0])}, {_coord_label(v[1])})"
        parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="#1f6fb4"/>')
        parts.append(
            f'<text x="{float(px) + 6:.2f}" y="{float(py) - 6:.2f}" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_surface(body, strata) -> str:
    """The region between the lower and upper graphs with stratum legend."""
    width, height, margin = 600, 420, 52
    lower = list(zip(body.breakpoints, body._lower))
    upper = list(zip(body.breakpoints, body._upper))
    ys = [y for _, y in lower + upper] + [Fraction(0)]
    to_px = _scaler(Fraction(0), max(body.mu, Fraction(1)), min(ys), max(ys),
                    width - 150, height, margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<text x="52" y="24" font-family="monospace" font-size="14">'
        "surface body: t vs order along the flag curve</text>",
    ]
    ring = lower + upper[::-1]
    pts = " ".join(",".join(to_px(t, y)) for t, y in ring)
    parts.append(
        f'<polygon points="{pts}" fill="#c7e9c0" fill-opacity="0.6" '
        f'stroke="none"/>'
    )
    for chain, color, name in (
        (lower, "#2c7a2c", "alpha"),
        (upper, "#b22222", "beta"),
    ):
        coords = [to_px(t, y) for t, y in chain]
        path = " ".join(f"{x},{y}" for x, y in coords)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        mx, my = coords[len(coords) // 2]
        dy = 16 if name == "alpha" else -8
        parts.append(
            f'<text x="{mx}" y="{float(my) + dy:.2f}" fill="{color}" '
            f'font-family="monospace" font-size="13">{name}</text>'
        )
    mx, my0 = to_px(*lower[-1])
    _, my1 = to_px(*upper[-1])
    parts.append(
        f'<line x1="{mx}" y1="{my0}" x2="{mx}" y2="{my1}" stroke="#555" '
        f'stroke-width="2" stroke-dasharray="5,4"/>'
    )
    qy = (float(my0) + float(my1)) / 2
    parts.append(
        f'<text x="{float(mx) + 8:.2f}" y="{qy:.2f}" font-family="monospace" '
        f'font-size="16">?</text>'
    )
    ox, oy = to_px(0, 0)
    parts.append(
        f'<line x1="{ox}" y1="{oy}" x2="{float(mx) + 20:.2f}" y2="{oy}" '
        f'stroke="#999" stroke-width="1"/>'
    )
    lx, ly = width - 140, 48
    parts.append(
        f'<text x="{lx}" y="{ly}" font-family="monospace" font-size="13">'
        "strata</text>"
    )
    for i, s in enumerate(strata):
        mark = {True: "valuative", False: "non-valuative"}.get(s.valuative, "?")
        y = ly + 18 * (i + 1)
        parts.append(
            f'<text x="{lx}" y="{y}" font-family="monospace" font-size="11">'
            f"{s.name}: {mark}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- entry point ------------------------------------------------------


_HANDLERS = {
    "body": _cmd_body,
    "slice": _cmd_slice,
    "volume": _cmd_volume,
    "sheafify": _cmd_sheafify,
    "base-locus": _cmd_base_locus,
    "birational": _cmd_birational,
    "surface": _cmd_surface,
    "generic-test": _cmd_generic_test,
    "filtered-dims": _cmd_filtered_dims,
    "fujita": _cmd_fujita,
}


def _add_io(sub, svg: bool = False):
    sub.add_argument("input", help="path to a JSON series description")
    sub.add_argument("--out", help="write the JSON report here instead of stdout")
    if svg:
        sub.add_argument("--svg", help="also write an SVG drawing here")


def _add_flag_options(sub):
    sub.add_argument(
        "--flag-seed", type=int, default=None,
        help="use a seeded random complete flag",
    )
    sub.add_argument(
        "--flag-matrix", default=None,
        help="JSON rows of an invertible matrix defining the flag",
    )


def _add_truncation(sub, default: int):
    sub.add_argument(
        "--truncation", "-K", type=int, default=default,
        help=f"highest level used (default {default})",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `okbody` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="okbody",
        description="Exact Newton-Okounkov bodies of graded linear series.",
    )
    parser.add_argument("--version", action="version", version=f"okbody {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("body", help="truncated body with certificate")
    _add_io(sub, svg=True)
    _add_flag_options(sub)
    _add_truncation(sub, 8)

    sub = commands.add_parser(
        "slice", help="slice at nu1 = t against the restricted series"
    )
    _add_io(sub)
    _add_flag_options(sub)
    _add_truncation(sub, 8)
    sub.add_argument("--t", required=True, help="slice position, a rational a/b")

    sub = commands.add_parser("volume", help="body volume and the index identity")
    _add_io(sub)
    _add_flag_options(sub)
    _add_truncation(sub, 10)

    sub = commands.add_parser(
        "sheafify", help="replace each level by its saturated section space"
    )
    _add_io(sub)
    _add_truncation(sub, 6)

    sub = commands.add_parser("base-locus", help="stable base locus components")
    _add_io(sub)
    _add_truncation(sub, 8)

    sub = commands.add_parser(
        "birational", help="whether the level map is generically injective"
    )
    _add_io(sub)
    sub.add_argument(
        "--max-level", type=int, default=8,
        help="highest level searched for a nonzero space (default 8)",
    )

    sub = commands.add_parser(
        "surface", help="piecewise linear body from a Zariski decomposition"
    )
    _add_io(sub, svg=True)

    sub = commands.add_parser(
        "generic-test", help="compare bodies across seeded random flags"
    )
    _add_io(sub)
    _add_truncation(sub, 8)
    sub.add_argument("--flags", type=int, default=5, help="number of flags")
    sub.add_argument("--seed-base", type=int, default=1, help="first seed")

    sub = commands.add_parser(
        "filtered-dims", help="dimensions of valuation filtration pieces"
    )
    _add_io(sub)
    _add_flag_options(sub)
    sub.add_argument("--levels", type=int, default=6, help="levels tabulated")
    sub.add_argument(
        "--sigma-budget", type=int, default=4,
        help="largest coordinate sum of the filtration vector",
    )

    sub = commands.add_parser(
        "fujita", help="finitely generated approximation from one level"
    )
    _add_io(sub)
    _add_flag_options(sub)
    _add_truncation(sub, 8)
    sub.add_argument("--p", type=int, required=True, help="approximation level")

    return parser


def run(args) -> tuple[str, str | None]:
    """Dispatch one parsed invocation; the JSON text and optional SVG."""
    payload, options, seeds, digest, svg = _HANDLERS[args.command](args)
    envelope = {
        "schema": SCHEMA,
        "tool": "okbody",
        "version": __version__,
        "command": args.command,
        "input_sha256": digest,
        "options": options,
        "seeds": seeds,
        "payload": payload,
    }
    return dumps(envelope) + "\n", svg


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(value) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True) for the
    values an envelope holds: dicts with string keys, lists, strings, ints,
    bools and None.  With an indent, the json module leaves its C encoder
    for a pure-Python one; this writer joins the same pieces directly."""
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, pad: str, out: list[str]) -> None:
    """Append the JSON text of value, whose lines start with pad.  The
    writer dispatches on the exact type: a bool is not an int here, and a
    list is written flat when its first element is an int or a str and
    every element has that type."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{"
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"envelope: key {key!r} is not a string")
            item = value[key]
            # strings and ints, most of the values, are written in place
            if type(item) is str:
                out += (sep, inner, _quote(key), ": ", _quote(item))
            elif type(item) is int:
                out += (sep, inner, _quote(key), ": ", int.__repr__(item))
            else:
                out += (sep, inner, _quote(key), ": ")
                _write(item, inner, out)
            sep = ","
        out.append(pad + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        first = type(value[0])
        if (first is int or first is str) and set(map(type, value)) == {first}:
            items = map(int.__repr__ if first is int else _quote, value)
        else:
            sep = "["
            for v in value:
                out += (sep, inner)
                _write(v, inner, out)
                sep = ","
            out.append(pad + "]")
            return
        out += ("[", inner, ("," + inner).join(items), pad, "]")
    elif value is None or value is True or value is False:
        out.append(_CONSTANTS[value])
    else:
        raise TypeError(f"envelope: cannot write a {kind.__name__}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, svg = run(args)
        if svg is not None:
            _write_output(args.svg, svg)
        if args.out:
            _write_output(args.out, text)
        else:
            sys.stdout.write(text)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnsupportedModeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InvariantError as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 4
    except MemoryError:
        hint = "a lower -K" if hasattr(args, "truncation") else "a smaller input"
        print(
            f"error: {args.command}: out of memory; retry with {hint}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
