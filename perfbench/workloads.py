"""Seeded inputs and job lists of the three benchmark workloads.

Everything here is computed from the seed, with numpy and sympy for the
linear algebra; okbody is never imported.  A job is a list of `okbody`
command lines that the job process runs back to back; its `meta` is what
the checks need to know about the inputs (generators, flags, truncations,
and for `flag_bodies` the value sets the benchmark computed itself).

Every job of a workload has the same shape (same ambient dimension, twist,
generator count and truncation), so jobs are of similar size and the
medians of two seeds measure the same kind of work.  No job repeats another
within a run: the more distinct jobs a run has, the less its medians depend
on which inputs the seed drew.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

WORKLOADS = ("flag_bodies", "hull_3d", "plane_ops")

# flag_bodies: birational monomial series in P^2 of quadrics, the shape of
# the GEN-1 acceptance series, each under one generic integer flag
FB_GENERATORS = 4
FB_K = 5
FB_FLAG_ENTRY = 9  # flag entries in [-9, 9], as okbody's seeded flags draw them
P = 2**31 - 1  # prime of the value-set eliminations; P^2 fits in int64

# hull_3d: monomial series in P^3 of quadrics under the standard flag
H3_GENERATORS = 5
H3_DIMS = (5, 14, 30)  # level dimensions; fixing them gives every job the same point count
H3_K = len(H3_DIMS)
H3_SLICE_T = Fraction(1, 2)

# plane_ops: monomial series in P^2 of quadrics plus a blow-up surface
PO_GENERATORS = 4
PO_K = 8  # slice, volume and base-locus truncation
PO_FUJITA = (2, 4)  # --p and -K of fujita
PO_SHEAF_K = 6
PO_FILTER = (5, 3)  # --levels and --sigma-budget of filtered-dims
PO_BLOWUP_POINTS = 3


class Job:
    """One closed-loop request: command lines run back to back."""

    __slots__ = ("key", "argvs", "meta")

    def __init__(self, key: str, argvs: list[list[str]], meta: dict):
        self.key = key
        self.argvs = argvs
        self.meta = meta


# -- small exact helpers ---------------------------------------------------------


def exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given degree, ascending lex."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in exponents(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def det(rows: list[list[int]]) -> int:
    return int(_zz(rows).det())


def _zz(rows: list[list[int]]) -> DomainMatrix:
    return DomainMatrix([[ZZ(x) for x in r] for r in rows], (len(rows), len(rows[0])), ZZ)


def difference_index(exps: list[tuple[int, ...]]) -> int:
    """Index in Z^d of the lattice spanned by exponent differences (first
    coordinate dropped); 0 when the differences do not span Z^d ⊗ Q.  The
    monomial map of the exponents is birational exactly when this is 1."""
    diffs = [[a - b for a, b in zip(e, exps[0])][1:] for e in exps[1:]]
    d = len(exps[0]) - 1
    g = 0
    for rows in itertools.combinations(diffs, d):
        g = gcd(g, det([list(r) for r in rows]))
    return abs(g)


def sumset(exps: list[tuple[int, ...]], k: int) -> set[tuple[int, ...]]:
    """Exponents of all k-fold products of the given monomials."""
    level = {tuple(0 for _ in exps[0])}
    for _ in range(k):
        level = {tuple(a + b for a, b in zip(u, e)) for u in level for e in exps}
    return level


def hilbert_stabilized(dims: list[int], d: int) -> bool:
    """okbody's stabilization rule: constant d-th differences over the last
    three levels."""
    if len(dims) < d + 3:
        return False
    for _ in range(d):
        dims = [b - a for a, b in zip(dims, dims[1:])]
    return len(set(dims[-3:])) == 1


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def substitute(exp: tuple[int, ...], matrix: list[list[int]]) -> dict:
    """The monomial x^exp with x_j replaced by sum_k matrix[j][k] y_k."""
    n = len(exp)
    poly = {(0,) * n: 1}
    for j, p in enumerate(exp):
        line = {
            tuple(int(i == k) for i in range(n)): matrix[j][k]
            for k in range(n)
            if matrix[j][k]
        }
        for _ in range(p):
            poly = poly_mul(poly, line)
    return poly


def series_json(d: int, twist: int, forms: list[dict], label: str) -> dict:
    return {
        "ambient_dim": d,
        "divisor_degree": twist,
        "label": label,
        "generators": [
            {
                "degree": 1,
                "forms": [
                    [
                        {"exp": list(e), "num": c, "den": 1}
                        for e, c in sorted(form.items())
                    ]
                    for form in forms
                ],
            }
        ],
    }


def _monomial_set(rng: random.Random, nvars: int, twist: int, size: int):
    """A random set of monomials of degree `twist` with full-dimensional
    exponents."""
    pool = exponents(nvars, twist)
    while True:
        exps = sorted(rng.sample(pool, size))
        if difference_index(exps):
            return exps


# -- the workloads --------------------------------------------------------------


def flag_values(exps, flag: list[list[int]], K: int) -> list[list[tuple]]:
    """Value sets of levels 1..K of the monomial series with the given
    generators, under the flag whose rows are the given linear forms.  Each
    level is written in flag coordinates (X = A^-1 Y, up to the scalar
    det A); its valuations are the pivot columns of an echelon form over
    ascending lex exponents, with the last coordinate dropped."""
    n = len(flag)
    adj = _zz(flag).adjugate().to_list()
    gens = {e: substitute(e, adj) for e in exps}
    level = {(0,) * n: {(0,) * n: 1}}
    values = []
    for k in range(1, K + 1):
        images: dict = {}
        for u, f in level.items():
            for e, g in gens.items():
                v = tuple(a + b for a, b in zip(u, e))
                if v not in images:
                    images[v] = poly_mul(f, g)
        level = images
        cols = exponents(n, sum(exps[0]) * k)
        pivots = pivots_mod_p([[f.get(c, 0) for c in cols] for f in level.values()])
        values.append(sorted(cols[j][:-1] for j in pivots))
    return values


def pivots_mod_p(rows: list[list[int]]) -> list[int]:
    """Pivot columns of the echelon form of an integer matrix modulo the
    prime P.  They are the rational pivots unless P divides one of the
    matrix's minors; exact elimination (sympy's rref_den) takes longer on a
    level-5 matrix than okbody takes for the whole job."""
    a = np.array([[x % P for x in row] for row in rows], dtype=np.int64)
    pivots: list[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        nonzero = np.flatnonzero(a[r:, c])
        if r == len(a) or not len(nonzero):
            continue
        a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, P) % P
        a[r + 1 :] = (a[r + 1 :] - a[r + 1 :, c : c + 1] * a[r]) % P
        pivots.append(c)
    return pivots


def _flag_bodies(rng: random.Random, out: Path, count: int) -> list[Job]:
    """One series and one flag per job.  The series are the birational
    monomial series of four quadrics, run in whole rounds of every series in
    a seeded order, so that every run weighs them alike.  A drawn flag is
    kept only when its value sets equal the series' generic ones, read under
    a flag with entries up to 10^6.  So every flag is generic for its series,
    and every body must equal the hull of the generic value sets: the
    generic-body result."""
    series = [
        list(s) for s in itertools.combinations(exponents(3, 2), FB_GENERATORS)
        if difference_index(list(s)) == 1
    ]
    generic: dict[int, list] = {}
    jobs = []
    for j in range(-(-count // len(series)) * len(series)):
        if j % len(series) == 0:
            order = rng.sample(range(len(series)), len(series))
        s = order[j % len(series)]
        exps = series[s]
        path = out / f"series{s}.json"
        while s not in generic:
            values = flag_values(exps, _flag(rng, 10**6), FB_K)
            if [len(v) for v in values] == [len(sumset(exps, k)) for k in range(1, FB_K + 1)]:
                generic[s] = values
                path.write_text(json.dumps(series_json(2, 2, [{e: 1} for e in exps], f"fb{s}")))
        while True:
            flag = _flag(rng, FB_FLAG_ENTRY)
            if flag_values(exps, flag, FB_K) == generic[s]:
                break
        argv = ["body", str(path), "-K", str(FB_K), "--flag-matrix", json.dumps(flag)]
        meta = {"series": str(path), "exps": exps, "d": 2, "twist": 2, "K": FB_K,
                "flag": flag, "values": generic[s]}
        jobs.append(Job(f"series{s}-job{j}", [argv], meta))
    return jobs


def _flag(rng: random.Random, entry: int) -> list[list[int]]:
    """A random invertible 3 x 3 integer matrix with entries in [-entry, entry]."""
    while True:
        flag = [[rng.randint(-entry, entry) for _ in range(3)] for _ in range(3)]
        if det(flag):
            return flag


def _hull_3d(rng: random.Random, out: Path, count: int) -> list[Job]:
    jobs = []
    for j in range(count):
        exps = _monomial_set(rng, 4, 2, H3_GENERATORS)
        while tuple(len(sumset(exps, k)) for k in range(1, H3_K + 1)) != H3_DIMS:
            exps = _monomial_set(rng, 4, 2, H3_GENERATORS)
        path = out / f"series{j}.json"
        forms = [{e: 1} for e in exps]
        path.write_text(json.dumps(series_json(3, 2, forms, f"h3_{j}")))
        x1 = [e[0] for e in exps]
        meta = {"series": str(path), "exps": exps, "d": 3, "twist": 2, "K": H3_K}
        # a slice needs t strictly inside the body's first-coordinate range
        if j % 2 and min(x1) < H3_SLICE_T < max(x1):
            t = f"{H3_SLICE_T.numerator}/{H3_SLICE_T.denominator}"
            argv = ["slice", str(path), "-K", str(H3_K), "--t", t]
        else:
            argv = ["body", str(path), "-K", str(H3_K)]
        jobs.append(Job(f"{argv[0]}{j}", [argv], meta))
    return jobs


def blowup_surface(rng: random.Random, r: int) -> dict:
    """P^2 blown up at r general points: L, E_1..E_r with the exceptional
    curves and the lines through two points as negative curves.  D is the
    line class plus a random effective class, so D is big."""
    rank = r + 1
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(rank)] for i in range(rank)]
    curves = []
    for i in range(1, rank):
        curves.append([int(j == i) for j in range(rank)])
    for i, j in itertools.combinations(range(1, rank), 2):
        curves.append([1] + [-1 if m in (i, j) else 0 for m in range(1, rank)])
    line = [1] + [0] * r
    gens = curves + [line]
    coeffs = [rng.randint(0, 3) for _ in curves] + [rng.randint(1, 3)]
    D = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(rank)]
    return {
        "rank": rank,
        "gram": gram,
        "negative_curves": curves,
        "effective_generators": gens,
        "D": D,
        "C": line,
        "point_multiplicities": {},
    }


def _plane_ops(rng: random.Random, out: Path, count: int) -> list[Job]:
    jobs = []
    for j in range(count):
        while True:
            exps = _monomial_set(rng, 3, 2, PO_GENERATORS)
            dims = [len(sumset(exps, k)) for k in range(1, PO_K + 1)]
            # okbody volume fails on unstabilized Hilbert data (see CHANGES.md)
            if hilbert_stabilized(dims, 2):
                break
        path = out / f"series{j}.json"
        path.write_text(json.dumps(series_json(2, 2, [{e: 1} for e in exps], f"po{j}")))
        surface = blowup_surface(rng, PO_BLOWUP_POINTS)
        spath = out / f"surface{j}.surface.json"
        spath.write_text(json.dumps(surface))
        p, pk = PO_FUJITA
        levels, budget = PO_FILTER
        s, K = str(path), str(PO_K)
        argvs = [
            ["slice", s, "-K", K, "--t", "1/2"],
            ["volume", s, "-K", K],
            ["fujita", s, "--p", str(p), "-K", str(pk)],
            ["sheafify", s, "-K", str(PO_SHEAF_K)],
            ["base-locus", s, "-K", K],
            ["birational", s],
            ["filtered-dims", s, "--levels", str(levels), "--sigma-budget", str(budget)],
            ["surface", str(spath)],
        ]
        meta = {"series": s, "exps": exps, "d": 2, "twist": 2, "surface": surface}
        jobs.append(Job(f"bundle{j}", argvs, meta))
    return jobs


_BUILDERS = {"flag_bodies": _flag_bodies, "hull_3d": _hull_3d, "plane_ops": _plane_ops}


def build(workload: str, seed: int, count: int, out: Path) -> tuple[list[Job], list[Path]]:
    """Write the inputs of at least `count` jobs of one workload and seed
    under `out`; return the job list and the input files."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, out, count)
    return jobs, sorted(out.glob("*.json"))
