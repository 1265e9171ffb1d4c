"""Every function and method of the library has a reader.

A name defined in `src/okbody` must be read somewhere in `src/okbody` (as a
name or an attribute), be a target of the benchmark's tracer
(`perfbench/tracer.py`), or be named in KEEP with the reason it stays.
Code that only tests call is otherwise dead weight: what a test needs as a
reference belongs in `tests/oracles.py`.

A read of a name that several classes or modules define may be a read of
any of them, so each definition of such a name is accounted for in SHARED
on its own: by a library function that reads the name, as "reader: " and
the function's dotted name (whose reads are checked, though not which
definition it reaches), by "traced" for a tracer target, or by "keep: "
and the reason it stays.  A name that becomes shared fails the guard
until it is entered there.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

KEEP = {
    "contains_monomial": "membership in a monomial ideal, the query of BAS-1's saturation check",
    "check": "ZariskiDecomposition.check, the exact check of a decomposition's invariants (SUR-1, SUR-2)",
    "explicit": "GradedSeries.explicit, the constructor of a series given by its sections level by level",
    "puncture": "the subseries of sections vanishing at a point (PUN-1)",
    "vanishing_along_flag_divisor": "the subseries vanishing to an order along the flag divisor (PUN-1)",
    "plus": "MonomialIdeal.plus, the sum of two monomial ideals",
    "evaluate": "HomogeneousForm.evaluate, a form's value at a point, which PUN-1 reads",
    "variable": "HomogeneousForm.variable, the constructor of a coordinate form",
    "multiplicity": "ZariskiDecomposition.multiplicity, a curve's coefficient in the negative part (SUR-1)",
}

# name -> the module or class of each definition -> how it is accounted for
SHARED = {
    "_of": {
        "monideal.MonomialIdeal": "reader: monideal.base_ideal",
        "polyform.HomogeneousForm": "reader: cli.parse_series",
        "polyform.FormSpan": "reader: glseries._generated_level",
    },
    "complete": {
        "glseries.GradedSeries": "keep: the complete series of a twist, the first example of "
        "the paper and the reference series of the acceptance checks",
        "polyform.FormSpan": "reader: glseries._generated_level",
    },
    "contains_point": {
        "convbody.RationalPolytope": "keep: membership in a body, the query of the SLC check",
        "monideal.BaseLocusReport": "keep: membership in a base locus, the query of BAS-1",
    },
    "generators": {
        "glseries.GradedSeries": "reader: cli.serialize_series",
        "monideal.MonomialIdeal": "reader: cli._cmd_base_locus",
    },
    "is_zero": {
        "monideal.MonomialIdeal": "reader: monideal.locus_components",
        "polyform.HomogeneousForm": "reader: flagval.valuation",
    },
    "saturate": {
        "monideal": "traced",
        "monideal.MonomialIdeal": "reader: monideal.saturate",
    },
    "scaled": {
        "convbody.RationalPolytope": "reader: cli._slice_sides",
        "polyform.HomogeneousForm": "keep: a form times a constant, which with + and - makes "
        "the forms a vector space, in which tests take combinations of a basis",
    },
    "volume": {
        "convbody.RationalPolytope": "reader: cli._report_payload",
        "surfacezar": "traced",
    },
}


def library_names() -> tuple[dict[str, str], set[str]]:
    """The non-dunder function and method names defined in the library, each
    with the file that first defines it, and every name the library reads."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted((ROOT / "src" / "okbody").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, path.name)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Name):
                read.add(node.id)
    return defined, read


def definitions() -> tuple[dict[str, list[str]], dict[str, set[str]]]:
    """Each non-dunder name defined in a module or a class of the library,
    with the module ("glseries") or class ("glseries.GradedSeries") of each
    definition; and the names each of those functions reads, by its dotted
    name ("glseries.GradedSeries.level")."""
    owners: dict[str, list[str]] = {}
    reads: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "okbody").glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                scope = f"{module}.{node.name}"
                functions = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                scope, functions = module, [node]
            else:
                continue
            for fn in functions:
                if not (fn.name.startswith("__") and fn.name.endswith("__")):
                    owners.setdefault(fn.name, []).append(scope)
                reads[f"{scope}.{fn.name}"] = {
                    n.attr if isinstance(n, ast.Attribute) else n.id
                    for n in ast.walk(fn)
                    if isinstance(n, (ast.Attribute, ast.Name))
                }
    return owners, reads


def test_every_library_function_has_a_reader():
    defined, read = library_names()
    targets = {
        name.rsplit(".", 1)[-1] for layer in tracer.LAYERS.values() for _, name, _ in layer
    }
    unread = sorted(
        f"{path}: {name}"
        for name, path in defined.items()
        if name not in read and name not in targets and name not in KEEP | SHARED.keys()
    )
    assert unread == []
    # each kept name is still defined and still has no other reader
    assert sorted(name for name in KEEP if name not in defined) == []
    assert sorted(name for name in KEEP if name in read or name in targets) == []


def test_every_definition_of_a_shared_name_is_accounted_for():
    owners, reads = definitions()
    shared = {name: sorted(scopes) for name, scopes in owners.items() if len(scopes) > 1}
    assert shared == {name: sorted(scopes) for name, scopes in SHARED.items()}
    traced = {f"{module}.{name}" for layer in tracer.LAYERS.values() for module, name, _ in layer}
    wrong = []
    for name, scopes in SHARED.items():
        for scope, how in scopes.items():
            kind, _, what = how.partition(": ")
            if kind == "reader":
                ok = name in reads.get(what, ())
            elif kind == "traced":
                ok = f"{scope}.{name}" in traced
            else:
                ok = kind == "keep" and bool(what)
            if not ok:
                wrong.append(f"{scope}.{name}: {how}")
    assert wrong == []
