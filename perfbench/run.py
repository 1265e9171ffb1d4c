"""Benchmark of okbody: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an okbody checkout; the okbody under its src/ is the
one measured.  The run writes its inputs under perfbench/work/, starts one
long-lived job process (perfbench/worker.py) and sends it jobs in a closed
loop with one client: the next job goes out only when the previous one has
returned.  Every output is checked (perfbench/checks.py).  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced job process with --trace 1.  Lines before it, starting with "#", are
reference figures that are not metrics, among them the job times in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as W  # noqa: E402

# Seconds one job of each workload takes on the reference host (2 cores,
# Python 3.11), reference loop included.  The number of jobs is set from
# --seconds and these constants, never from the clock, so every run of a
# workload with the same --seconds does the same amount of work.
JOB_SECONDS = {"flag_bodies": 0.61, "hull_3d": 0.69, "plane_ops": 0.53}
MIN_JOBS = 40  # below forty samples a tail percentile is no tail
SETUP_RUNS = 11
# A run must end within 180 s.  Past SOFT_LIMIT_S no further job is sent and
# the metrics cover the jobs done, so a much slower okbody still reads as a
# measured (and refused) regression; a job still running at HARD_LIMIT_S is
# killed, and the run ends without a result.
SOFT_LIMIT_S = 150.0
HARD_LIMIT_S = 175.0

# reference loop: exact elimination on the 6 x 6 Hilbert matrix
REF_N = 6
REF_REPEATS = 240
REF_DET = Fraction(1, 186313420339200000)


def reference_loop() -> float:
    """Seconds taken by a fixed stdlib-Fraction workload (no okbody)."""
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        m = [[Fraction(1, i + j + 1) for j in range(REF_N)] for i in range(REF_N)]
        det = Fraction(1)
        for c in range(REF_N):
            det *= m[c][c]
            for r in range(c + 1, REF_N):
                f = m[r][c] / m[c][c]
                for j in range(c, REF_N):
                    m[r][j] -= f * m[c][j]
    elapsed = time.perf_counter() - start
    if det != REF_DET:
        raise RuntimeError("reference loop computed a wrong determinant")
    return elapsed


def tail(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten jobs beyond it, by
    nearest rank, and its value."""
    n = len(times)
    if n <= 10:
        return 100, max(times)
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(times)[math.ceil(p * n / 100) - 1]


class JobProcess:
    """The long-lived process that runs okbody commands."""

    def __init__(self, root: Path, trace_file: Path | None):
        cmd = [sys.executable, "-I", str(HERE / "worker.py"), str(root / "src")]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        self.proc = subprocess.Popen(
            cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.okbody = self._read()["okbody"]
        except RuntimeError:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job process exited")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def cold_start(root: Path, inputs: list[Path]) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), str(root / "src"), "--cold"]
        + [str(p.relative_to(root)) for p in inputs],
        cwd=root, check=True,
    )
    return time.perf_counter() - start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "okbody" / "cli.py").is_file():
        print("error: run from the root of an okbody checkout (no src/okbody)", file=sys.stderr)
        return 2
    import checks  # needs numpy, scipy and sympy

    work = HERE / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    count = max(MIN_JOBS, round(args.seconds / JOB_SECONDS[args.workload]))
    jobs, inputs = W.build(args.workload, args.seed, count, work)
    # cold starts are spread over the run, each between two jobs
    setup_at = {len(jobs) * i // SETUP_RUNS for i in range(SETUP_RUNS)}
    trace_file = None
    if args.trace:
        (HERE / "traces").mkdir(exist_ok=True)
        trace_file = HERE / "traces" / f"{args.workload}-{args.seed}.jsonl"

    checker = checks.Checker(args.workload)
    proc = JobProcess(root, trace_file)
    watchdog = threading.Timer(HARD_LIMIT_S - (time.perf_counter() - started), proc.proc.kill)
    watchdog.start()
    try:
        expected = (root / "src" / "okbody" / "__init__.py").resolve()
        if Path(proc.okbody).resolve() != expected:
            raise RuntimeError(f"job process imported {proc.okbody}, not {expected}")
        times, ratios, refs, setups, problems, wrong = [], [], [], [], [], []
        failed = 0
        after = None
        for i, job in enumerate(jobs):
            if time.perf_counter() - started > SOFT_LIMIT_S:
                break
            if i in setup_at and not args.trace:
                setups.append(cold_start(root, inputs))
                after = None
            # the reference readings just before and just after the job; the
            # one after a job is the one before the next
            before = after if after is not None else reference_loop()
            start = time.perf_counter()
            reply = proc.request({"id": len(times), "argvs": job.argvs})
            elapsed = time.perf_counter() - start
            after = reference_loop()
            times.append(elapsed)
            ratios.append(2 * elapsed / (before + after))
            refs.append(before)
            results = reply["results"]
            if any(r["rc"] != 0 for r in results):
                failed += 1
                problems.append(f"{job.key}: exit {[r['rc'] for r in results]}: "
                                f"{results[-1]['err'].strip().splitlines()[-1:]}")
                continue
            verdict = checker.check(job, [r["out"] for r in results])
            if verdict is not None:
                wrong.append(verdict)
        final = proc.request({"quit": True})
    finally:
        watchdog.cancel()
        proc.close()

    p, tail_s = tail(times)
    _, tail_ref = tail(ratios)
    print(f"# okbody: {proc.okbody}")
    print(f"# jobs: {len(times)} of {len(jobs)}; the tails are p{p}")
    # seconds follow the speed of the host, which on a shared 2-core virtual
    # machine moved by up to 1.7x within minutes; they are printed for
    # reference, and the job metrics are in ref units
    print(f"# ref_loop_s.p50: {statistics.median(refs)}")
    print(f"# job_s.p50: {statistics.median(times)}")
    print(f"# job_s.tail: {tail_s}")
    print(f"# jobs_per_s: {len(times) / sum(times)}")
    for problem in sorted(set(problems + wrong)):
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: metric(final["layers"][name], unit)
            for name, unit in tracer.metric_names()
        }
        print(f"# spans: {trace_file.relative_to(root)}")
    else:
        metrics = {
            "job_ref.p50": metric(statistics.median(ratios), "ref"),
            "job_ref.tail": metric(tail_ref, "ref"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(final["peak_rss_kb"] / 1024, "MB"),
        }
    correct = not wrong
    print(json.dumps({"correct": correct, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
