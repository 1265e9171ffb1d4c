"""Tests of the benchmark's output checks.

Each test runs okbody on one generated job, shows that the checker accepts
the real output, then breaks one field of it and shows that the checker
rejects the result.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from okbody.cli import main  # noqa: E402


def run_job(job: W.Job) -> list[dict]:
    envelopes = []
    for argv in job.argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        envelopes.append(json.loads(out.getvalue()))
    return envelopes


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Jobs and their real outputs, generated once per workload."""
    cache = {}

    def get(workload: str, index: int):
        if (workload, index) not in cache:
            jobs, _ = W.build(workload, 7, 4, tmp_path_factory.mktemp(workload))
            cache[(workload, index)] = (jobs, run_job(jobs[index]))
        jobs, envs = cache[(workload, index)]
        return jobs, json.loads(json.dumps(envs))

    return get


def verdict(workload: str, job: W.Job, envelopes: list[dict]):
    return checks.Checker(workload).check(job, [json.dumps(e) for e in envelopes])


def broken(workload, job, envs, command, edit):
    """Apply `edit` to the payload of the first command named `command`."""
    for argv, env in zip(job.argvs, envs):
        if argv[0] == command:
            edit(env["payload"])
            break
    else:
        raise AssertionError(f"no {command} in the job")
    return verdict(workload, job, envs)


def test_real_outputs_pass(outputs):
    for workload, index in (("flag_bodies", 0), ("hull_3d", 0), ("hull_3d", 1), ("plane_ops", 0)):
        jobs, envs = outputs(workload, index)
        assert verdict(workload, jobs[index], envs) is None, (workload, index)


def test_flag_bodies_rejects_a_moved_vertex(outputs):
    jobs, envs = outputs("flag_bodies", 0)
    msg = broken("flag_bodies", jobs[0], envs, "body",
                 lambda p: p["body"]["vertices"][-1].__setitem__(0, "7/1"))
    assert msg is not None


def test_flag_bodies_rejects_wrong_level_dimension(outputs):
    jobs, envs = outputs("flag_bodies", 0)
    msg = broken("flag_bodies", jobs[0], envs, "body",
                 lambda p: p["hilbert"]["dims"].__setitem__(-1, p["hilbert"]["dims"][-1] + 1))
    assert "level dimensions" in msg


def test_flag_bodies_rejects_value_count_mismatch(outputs):
    jobs, envs = outputs("flag_bodies", 0)
    msg = broken("flag_bodies", jobs[0], envs, "body",
                 lambda p: p["semigroup_level_counts"].__setitem__(0, 1))
    assert "value points per level" in msg


def test_flag_bodies_rejects_wrong_area(outputs):
    jobs, envs = outputs("flag_bodies", 0)
    msg = broken("flag_bodies", jobs[0], envs, "body", lambda p: p.__setitem__("volume", "9/1"))
    assert "shoelace" in msg


def test_hull_3d_rejects_a_dropped_vertex(outputs):
    jobs, envs = outputs("hull_3d", 0)
    msg = broken("hull_3d", jobs[0], envs, "body", lambda p: p["body"]["vertices"].pop())
    assert msg is not None


def test_hull_3d_rejects_a_dropped_facet(outputs):
    jobs, envs = outputs("hull_3d", 0)
    msg = broken("hull_3d", jobs[0], envs, "body", lambda p: p["body"]["inequalities"].pop())
    assert "facets" in msg


def test_flag_bodies_rejects_a_dropped_edge(outputs):
    jobs, envs = outputs("flag_bodies", 0)
    msg = broken("flag_bodies", jobs[0], envs, "body", lambda p: p["body"]["inequalities"].pop())
    assert "edge" in msg


def test_hull_3d_rejects_wrong_volume(outputs):
    jobs, envs = outputs("hull_3d", 0)
    msg = broken("hull_3d", jobs[0], envs, "body", lambda p: p.__setitem__("volume", "5/1"))
    assert "volume" in msg


def test_hull_3d_slice_rejects_a_flipped_verdict(outputs):
    jobs, envs = outputs("hull_3d", 1)
    assert jobs[1].argvs[0][0] == "slice"
    msg = broken("hull_3d", jobs[1], envs, "slice", lambda p: p.__setitem__("equal", not p["equal"]))
    assert "verdict" in msg


def test_hull_3d_slice_rejects_a_moved_slice_vertex(outputs):
    jobs, envs = outputs("hull_3d", 1)
    msg = broken("hull_3d", jobs[1], envs, "slice",
                 lambda p: p["direct_slice"]["vertices"][0].__setitem__(0, "3/1"))
    assert "own cut" in msg


@pytest.mark.parametrize(
    "command, edit, words",
    [
        ("slice", lambda p: p["restricted"]["body"]["vertices"].pop(), "restricted"),
        ("volume", lambda p: p.__setitem__("lattice_index", p["lattice_index"] + 1), "lattice index"),
        ("volume", lambda p: p["identity"].__setitem__("agrees", False), "index * Hilbert"),
        ("volume", lambda p: p["full_check"].__setitem__("agree", not p["full_check"]["agree"]), "agree"),
        ("fujita", lambda p: p.__setitem__("contained", False), "contained"),
        ("fujita", lambda p: p["approximation"]["vertices"].pop(), "approximation"),
        ("sheafify", lambda p: p["levels"][-1].__setitem__("sheafified_dim", 0), "saturated"),
        ("base-locus", lambda p: p.__setitem__("components", [[0]]), "components"),
        ("birational", lambda p: p.__setitem__("birational", not p["birational"]), "birationality"),
        ("filtered-dims", lambda p: p["table"][-1]["dims"].__setitem__(0, 99), "filtered"),
        ("surface", lambda p: p.__setitem__("area", "1000/1"), "area"),
        ("surface", lambda p: p["zariski_at_zero"].__setitem__("positive", ["0/1"] * len(p["divisor"])), "P + N"),
    ],
)
def test_plane_ops_rejects_a_broken_field(outputs, command, edit, words):
    jobs, envs = outputs("plane_ops", 0)
    msg = broken("plane_ops", jobs[0], envs, command, edit)
    assert msg is not None and words in msg, msg


def test_surface_laws_reject_a_non_nef_positive_part(tmp_path):
    """Moving the negative part into P breaks P . N_i = 0 or nefness."""
    rng = W.random.Random(3)
    for i in range(20):
        surface = W.blowup_surface(rng, W.PO_BLOWUP_POINTS)
        path = tmp_path / f"s{i}.surface.json"
        path.write_text(json.dumps(surface))
        (env,) = run_job(W.Job("surface", [["surface", str(path)]], {}))
        if env["payload"]["zariski_at_zero"]["negative"]:
            break
    else:
        raise AssertionError("no divisor with a negative part drawn")
    checks.check_surface(env["payload"], surface)
    env["payload"]["zariski_at_zero"]["positive"] = [f"{x}/1" for x in surface["D"]]
    env["payload"]["zariski_at_zero"]["negative"] = []
    with pytest.raises(checks.CheckError):
        checks.check_surface(env["payload"], surface)


def test_cut_and_shoelace_on_a_known_triangle():
    from fractions import Fraction as F

    tri = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2))]
    assert checks.shoelace(checks.hull_2d(tri + [(F(1), F(1)), (F(1, 2), F(1, 2))])) == 2
    assert checks.cut(tri, F(1)) == [(F(0),), (F(1),)]
