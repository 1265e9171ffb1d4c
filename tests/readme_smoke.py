"""The README commands on the standard library alone: each runs through
`okbody.cli.main`, and its envelope, and drawing where it writes one, must
match the sha256 pinned in `README_RUNS` of tests/test_cli.py.  The pins are
read with `ast`, so neither pytest nor any other package is imported.  Then
README's exit-code contract on JSON that the interpreter's `json` module
refuses at its own limits (nesting past the recursion limit, an integer past
the digit limit of int conversion), in an input file and in a flag matrix:
exit 2, one `error:` line on stderr, no traceback.

    python3 -I tests/readme_smoke.py

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from okbody import cli  # noqa: E402


def readme_runs() -> list:
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["README_RUNS"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_cli.py: no README_RUNS")


MALFORMED = {"deep nesting": "[" * 100_000, "5,000-digit integer": "[" + "9" * 5_000 + "]"}


def refused(argv: list) -> bool:
    """The command exits 2 with one `error:` line and no traceback."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except BaseException:  # what the interpreter would print as a traceback
        return False
    lines = err.getvalue().splitlines()
    return rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, envelope_sha, svg_sha in readme_runs():
            args = [str(ROOT / "corpus" / a) if a.endswith(".json") else a for a in argv]
            svg = Path(tmp) / "out.svg"
            if svg_sha:
                args += ["--svg", str(svg)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(args)
            ok = rc == 0 and hashlib.sha256(out.getvalue().encode()).hexdigest() == envelope_sha
            if svg_sha:
                ok = ok and hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha
            bad += not ok
            print(f"{'ok' if ok else 'DIFFERS'}  {' '.join(argv)}")
        print(f"python {sys.version.split()[0]}: {len(readme_runs()) - bad} of {len(readme_runs())} envelopes as pinned")
        series = str(ROOT / "corpus" / "p2_o2_complete.json")
        for what, text in MALFORMED.items():
            path = Path(tmp) / "malformed.json"
            path.write_text(text, encoding="utf-8")
            for site, argv in (
                ("input file", ["body", str(path)]),
                ("flag matrix", ["body", series, "-K", "2", "--flag-matrix", text]),
            ):
                ok = refused(argv)
                bad += not ok
                print(f"{'ok' if ok else 'FAILS'}  {what} in the {site}: exit 2, one error line")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
