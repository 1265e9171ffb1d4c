"""A body's peak memory follows its largest level, not the sum of all.

`body p3_o1_complete -K 60` reads 60 levels of P^3, the largest holding
39,711 value keys and all of them together 635,375.  One pass holds the
spans and the value key sets of the last few levels only, so a fresh
interpreter grows by about 36 MB past its resident size after import
(Python 3.11, x86-64 Linux).  Holding every level's value keys, as a value
semigroup kept for the whole run does, grows it by about 86 MB, and
holding every level's key set by about 90 MB.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GROWTH_BOUND_MB = 60

SCRIPT = """
import contextlib, io, json, os, resource, sys
sys.path.insert(0, sys.argv[1])
from okbody import cli
def status(field):
    # the resident size (VmRSS) or its peak (VmHWM) of this process image:
    # ru_maxrss would also count the parent's size at the fork
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
def peak():
    if os.path.exists("/proc/self/status"):
        return status("VmHWM")
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
# the resident size now, not the peak, which compiling the modules can raise
start = status("VmRSS") if os.path.exists("/proc/self/status") else peak()
corpus = os.path.join(sys.argv[2], "corpus")
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["body", os.path.join(corpus, "p3_o1_complete.json"), "-K", "60"])
print(json.dumps({"rc": rc, "growth_mb": (peak() - start) / 2**20}))
"""

def test_body_peak_memory_follows_the_largest_level():
    pytest.importorskip("resource")
    run = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(ROOT / "src"), str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["rc"] == 0
    assert got["growth_mb"] < GROWTH_BOUND_MB, got
