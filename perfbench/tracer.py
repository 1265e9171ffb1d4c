"""Spans and counts around okbody's layers, installed from outside the library.

    python3 perfbench/tracer.py perfbench/traces/WORKLOAD-SEED.jsonl
        prints the self time of each layer in a span file, and how many
        spans of each layer ran directly under each other layer.

The tracer replaces public functions and methods with timing wrappers.  A
module that imported a function by name (`from .exactnum import rref_rows`)
holds its own binding, so every okbody module binding to the original
function object is replaced, not only the defining one.  Spans (layer,
start, end, parent span, job id) are kept in memory and written out when the
run ends.  Counts are taken from call arguments and results only, so they
repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("exactnum", "polyform", "flagval", "glseries", "convbody", "monideal",
           "surfacezar", "cli")


def _count_terms(c, args, result):
    c["terms_out"] += len(result.terms)


def _count_span_init(c, args, result):
    c["dim_out"] += len(args[0].basis)


def _count_complete(c, args, result):
    c["dim_out"] += result.dim


def _count_cells(c, args, result):
    rows = args[0]
    c["cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_values(c, args, result):
    c["value_points"] += len(result)


def _count_level(c, args, result, hit):
    c["hits"] += hit


def _count_hull(c, args, result):
    c["points_in"] += len(args[1])
    c["vertices_out"] += len(result.vertices)
    c["facets_out"] += len(result.inequalities)


def _count_segments(c, args, result):
    c["segments"] += len(result.segments)


# layer -> [(module, "function" or "Class.method", counter)]
LAYERS = {
    "polyform.substitute_linear": [("polyform", "HomogeneousForm.substitute_linear", _count_terms)],
    "polyform.span": [
        ("polyform", "FormSpan.__init__", _count_span_init),
        ("polyform", "FormSpan.complete", _count_complete),
        ("polyform", "FormSpan.transformed", None),
        ("polyform", "FormSpan.__mul__", None),
        ("polyform", "FormSpan.__add__", None),
    ],
    "exactnum.rref_rows": [("exactnum", "rref_rows", _count_cells)],
    "exactnum.lp": [
        ("exactnum", "maximize", None),
        ("exactnum", "feasible_nonneg", None),
        ("exactnum", "in_cone", None),
    ],
    "exactnum.lattice": [
        ("exactnum", "hermite_normal_form", None),
        ("exactnum", "smith_normal_form", None),
        ("exactnum", "lattice_index", None),
        ("exactnum", "det", None),
    ],
    "flagval": [
        ("flagval", "valuation_set", _count_values),
        ("flagval", "filtered_dimension", None),
        ("flagval", "valuation", None),
        ("flagval", "Flag.__init__", None),
    ],
    "glseries.level": [("glseries", "GradedSeries.level", _count_level)],
    "convbody.hull": [("convbody", "RationalPolytope.from_points", _count_hull)],
    "convbody.query": [
        ("convbody", f"RationalPolytope.{m}", None)
        for m in ("volume", "slice_at", "intersect_halfspace", "contains", "scaled", "translate")
    ],
    "convbody.body": [
        ("convbody", "okounkov_body", None),
        ("convbody", "valuative_witness", None),
    ],
    "monideal": [
        ("monideal", name, None)
        for name in ("stable_base_locus", "sheafify", "is_birational_monomial",
                     "full_volume_check", "saturate", "base_ideal", "MonomialIdeal.saturate")
    ],
    "surfacezar": [
        ("surfacezar", "zariski", None),
        ("surfacezar", "mu", None),
        ("surfacezar", "volume", None),
        ("surfacezar", "surface_body", _count_segments),
        ("surfacezar", "classify_boundary", None),
    ],
    "cli.parse": [
        ("cli", "load_json", None),
        ("cli", "parse_series", None),
        ("cli", "parse_surface", None),
    ],
}

# the counts each layer reports besides self_s and calls
EXTRA = {
    "polyform.substitute_linear": ("terms_out",),
    "polyform.span": ("dim_out",),
    "exactnum.rref_rows": ("cells",),
    "flagval": ("value_points",),
    "glseries.level": ("hit_share",),
    "convbody.hull": ("points_in", "vertices_out", "facets_out"),
    "surfacezar": ("segments",),
}
ROOT = "cli"
NO_CALLS = ("flagval", "convbody.hull", "convbody.body", "cli.parse", ROOT)


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in list(LAYERS) + [ROOT]:
        out.append((f"{layer}.self_s", "s"))
        if layer not in NO_CALLS:
            out.append((f"{layer}.calls", "count"))
        for extra in EXTRA.get(layer, ()):
            out.append((f"{layer}.{extra}", "ratio" if extra == "hit_share" else "count"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.job = None

    def wrap(self, layer: str, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts[layer]
        is_level = count is _count_level

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hit = is_level and args[1] in args[0]._levels
            index = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            counts["calls"] += 1
            if is_level:
                count(counts, args, result, hit)
            elif count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every okbody binding of each traced function."""
        mods = [sys.modules[f"okbody.{m}"] for m in MODULES]
        for layer, targets in LAYERS.items():
            for module, name, count in targets:
                mod = sys.modules[f"okbody.{module}"]
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(layer, raw.__func__, count)))
                    else:
                        setattr(cls, meth, self.wrap(layer, raw, count))
                    continue
                original = getattr(mod, name)
                traced = self.wrap(layer, original, count)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)

    def summary(self) -> dict[str, float]:
        """Per-layer totals: self time and counts."""
        self_s = self_times(self.spans)
        out = {}
        for metric, _ in metric_names():
            layer, _, what = metric.rpartition(".")
            c = self.counts[layer]
            if what == "self_s":
                out[metric] = self_s[layer]
            elif what == "hit_share":
                out[metric] = c["hits"] / c["calls"] if c["calls"] else 0.0
            else:
                out[metric] = c[what]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), inner in zip(spans, child):
        out[name] += end - start - inner
    return out


def report(path: str) -> None:
    """Self time per layer, and span counts per (parent layer, layer)."""
    with open(path, encoding="utf-8") as f:
        spans = [
            (s["name"], s["start"], s["end"], s["parent"], s["job"])
            for s in map(json.loads, f)
        ]
    self_s = self_times(spans)
    edges: dict[tuple[str, str], int] = defaultdict(int)
    for name, _, _, parent, _ in spans:
        edges[(spans[parent][0] if parent >= 0 else "-", name)] += 1
    total = sum(self_s.values())
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"{name:28s} {value:9.3f} s {100 * value / total:5.1f}%")
    for (parent, name), n in sorted(edges.items()):
        print(f"{parent:28s} -> {name:28s} {n}")


if __name__ == "__main__":
    report(sys.argv[1])
