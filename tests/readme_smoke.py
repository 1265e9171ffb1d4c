"""The README commands on the standard library alone: each runs through
`okbody.cli.main`, and its envelope, and drawing where it writes one, must
match the sha256 pinned in `README_RUNS` of tests/test_cli.py.  The pins are
read with `ast`, so neither pytest nor any other package is imported.

    python3 -I tests/readme_smoke.py

Prints one line per command and exits 1 if any output differs.
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
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
