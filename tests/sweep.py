"""The envelope sweep: a fixed list of okbody commands, each run in process
through `okbody.cli.main`, against a manifest of what each one printed.

The commands are every P^n series of `corpus/`, and two series built here,
under `body`, `volume`, `fujita`, `slice` and `filtered-dims` with the
standard flag, flag seeds 1, 2 and 5 and one `--flag-matrix` per
dimension; each series under `generic-test`, `sheafify`, `base-locus` and
`birational`; `surface` on each surface of the corpus; and `body` on each
surface file, which is not a series and exits 2.  The two built series are
`dense5`, the five quadrics of `p2_except_x2x3` under the integer change of
coordinates [[1,-1,2],[-1,3,2],[3,2,2]], and `mixed5`, X1^2, X2^2, X3^2,
X1X2 and X2X3 - X1X3 in P^2 with divisor degree 2, both written with
`perfbench/workloads.py`'s `substitute` and `series_json`.

`tests/sweep_manifest.json` holds, per command, its exit code and the
sha256 of its stdout and of its stderr, in which the directories of the
input files read as `corpus/` and `built/`.  A change that keeps every
output keeps the manifest; one that changes outputs on purpose rewrites it
and lists the commands whose entries changed.

    python3 tests/sweep.py            # name each command that differs
    python3 tests/sweep.py --update   # rewrite the manifest
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from okbody import cli  # noqa: E402
from perfbench.workloads import series_json, substitute  # noqa: E402

CORPUS = ROOT / "corpus"
MANIFEST = ROOT / "tests" / "sweep_manifest.json"

DENSE_MATRIX = [[1, -1, 2], [-1, 3, 2], [3, 2, 2]]
# one invertible integer flag matrix per number of variables
FLAG_MATRICES = {
    2: [[1, 2], [3, -1]],
    3: DENSE_MATRIX,
    4: [[1, 0, 2, -1], [2, 1, 0, 3], [0, -1, 1, 2], [1, 2, -1, 1]],
}
FLAGGED = [
    ["body", "-K", "8"],
    ["volume", "-K", "6"],
    ["fujita", "--p", "2", "-K", "4"],
    ["slice", "-K", "6", "--t", "1/2"],
    ["filtered-dims", "--levels", "4"],
]
UNFLAGGED = [
    ["generic-test", "-K", "4", "--flags", "2"],
    ["sheafify", "-K", "6"],
    ["base-locus", "-K", "8"],
    ["birational"],
]


def built_series() -> dict[str, dict]:
    """The series descriptions of dense5 and mixed5."""
    quadrics = json.loads((CORPUS / "p2_except_x2x3.json").read_text())
    exps = [tuple(form[0]["exp"]) for form in quadrics["generators"][0]["forms"]]
    dense = [substitute(e, DENSE_MATRIX) for e in exps]
    mixed = [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}, {(1, 1, 0): 1}]
    mixed.append({(0, 1, 1): 1, (1, 0, 1): -1})
    return {
        "dense5.json": series_json(2, 2, dense, "dense5"),
        "mixed5.json": series_json(2, 2, mixed, "mixed5"),
    }


def flags(nvars: int) -> list[list[str]]:
    matrix = json.dumps(FLAG_MATRICES[nvars], separators=(",", ":"))
    seeds = [["--flag-seed", str(seed)] for seed in (1, 2, 5)]
    return [[], *seeds, ["--flag-matrix", matrix]]


def commands(series: dict[str, int]) -> list[list[str]]:
    """The sweep's command lines, the input file named by its file name:
    series maps each series file to its number of variables."""
    out = []
    for name, nvars in series.items():
        out += [[cmd, name, *rest, *flag] for cmd, *rest in FLAGGED for flag in flags(nvars)]
        out += [[cmd, name, *rest] for cmd, *rest in UNFLAGGED]
    for path in sorted(CORPUS.glob("*.surface.json")):
        out += [["surface", path.name], ["body", path.name]]
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_one(argv: list[str], dirs: dict[str, str]) -> dict:
    """The exit code and output digests of one command; dirs maps each
    input directory to the name it reads as in the outputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse refusing the command line
            rc = e.code
        except Exception as e:  # a traceback, recorded by its type
            rc = f"raised {type(e).__name__}"
    texts = [out.getvalue(), err.getvalue()]
    for path, name in dirs.items():
        texts = [t.replace(path, name) for t in texts]
    return {"exit": rc, "stdout": digest(texts[0]), "stderr": digest(texts[1])}


def run(select=lambda argv: True) -> dict[str, dict]:
    """Run every sweep command that select accepts: command line -> entry."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        built = Path(tmp)
        series = {}
        for path in sorted(CORPUS.glob("*.json")):
            if not path.name.endswith(".surface.json"):
                series[path.name] = json.loads(path.read_text())["ambient_dim"] + 1
        for name, description in built_series().items():
            (built / name).write_text(json.dumps(description))
            series[name] = description["ambient_dim"] + 1
        dirs = {str(CORPUS) + "/": "corpus/", str(built) + "/": "built/"}
        for argv in commands(series):
            if not select(argv):
                continue
            folder = built if (built / argv[1]).exists() else CORPUS
            full = [argv[0], str(folder / argv[1]), *argv[2:]]
            results[" ".join(argv)] = run_one(full, dirs)
    return results


def load() -> dict[str, dict]:
    return json.loads(MANIFEST.read_text())


def differences(results: dict[str, dict], manifest: dict[str, dict]) -> list[str]:
    """Each command whose entry differs from the manifest's, or that only
    one of them has, named with what differs."""
    out = []
    for name in sorted(results.keys() | manifest.keys()):
        got, want = results.get(name), manifest.get(name)
        if got is None or want is None:
            out.append(f"{name}: {'not run' if got is None else 'not in the manifest'}")
        elif got != want:
            fields = ", ".join(k for k in sorted(got) if got[k] != want.get(k))
            out.append(f"{name}: {fields}")
    return out


def write(results: dict[str, dict]) -> None:
    """The manifest, one command a line, in the sweep's order."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in results.items()]
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(args: list[str]) -> int:
    results = run()
    if args == ["--update"]:
        write(results)
        print(f"wrote {len(results)} commands to {MANIFEST.name}")
        return 0
    if args:
        print(__doc__)
        return 2
    diff = differences(results, load())
    for line in diff:
        print(line)
    print(f"{len(results)} commands, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
