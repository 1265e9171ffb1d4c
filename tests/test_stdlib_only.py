"""okbody runs on the standard library alone: a `body` and a `surface`
command in an isolated interpreter load no module from outside it, and
the package declares no runtime dependency."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# modules that `site` loaded at startup (.pth hooks of installed packages)
# are not okbody's doing, so only the modules loaded afterwards count
SCRIPT = """
import contextlib, io, json, os, sys, sysconfig
startup = set(sys.modules)
sys.path.insert(0, sys.argv[1])
from okbody import cli
corpus = os.path.join(sys.argv[2], "corpus")
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [
        cli.main(["body", os.path.join(corpus, "p2_except_x2x3.json"), "-K", "4"]),
        cli.main(["surface", os.path.join(corpus, "blowup_cubic.surface.json")]),
    ]
def under(path, key):
    root = os.path.realpath(sysconfig.get_path(key))
    return os.path.realpath(path).startswith(root + os.sep)
outside = sorted(
    name
    for name, module in list(sys.modules.items())
    if name not in startup
    and getattr(module, "__file__", None)
    and name.split(".")[0] != "okbody"
    and not (
        (under(module.__file__, "stdlib") or under(module.__file__, "platstdlib"))
        and not under(module.__file__, "purelib")
        and not under(module.__file__, "platlib")
    )
)
print(json.dumps({"rcs": rcs, "outside": outside}))
"""


def test_commands_load_only_the_standard_library():
    run = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(ROOT / "src"), str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"rcs": [0, 0], "outside": []}


def test_no_runtime_dependencies_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
