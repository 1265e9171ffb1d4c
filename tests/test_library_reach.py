"""Every function and method of the library has a reader.

A name defined in `src/okbody` must be read somewhere in `src/okbody` (as a
name or an attribute), be a target of the benchmark's tracer
(`perfbench/tracer.py`), or be named in KEEP with the reason it stays.
Code that only tests call is otherwise dead weight: what a test needs as a
reference belongs in `tests/oracles.py`.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

KEEP = {
    "contains_point": "membership in a body or a base locus, the query of the SLC and BAS-1 checks",
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


def test_every_library_function_has_a_reader():
    defined, read = library_names()
    targets = {
        name.rsplit(".", 1)[-1] for layer in tracer.LAYERS.values() for _, name, _ in layer
    }
    unread = sorted(
        f"{path}: {name}"
        for name, path in defined.items()
        if name not in read and name not in targets and name not in KEEP
    )
    assert unread == []
    # each kept name is still defined and still has no other reader
    assert sorted(name for name in KEEP if name not in defined) == []
    assert sorted(name for name in KEEP if name in read or name in targets) == []
