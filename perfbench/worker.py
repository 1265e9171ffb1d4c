"""Job process of the benchmark, and its cold-start probe.

    python3 -I perfbench/worker.py SRC [--trace SPANS_FILE]
        Imports okbody from SRC and serves jobs: each request line on stdin
        is {"id": n, "argvs": [[...], ...]}; each command line runs through
        okbody.cli.main with stdout captured, and the reply line carries the
        exit codes and outputs.  {"quit": true} ends the process; its reply
        holds the peak resident memory and, when traced, the per-layer sums.

    python3 -I perfbench/worker.py SRC --cold FILE...
        A cold start: import okbody, then read, parse and validate each
        input the way the CLI does.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path


def cold(files: list[str]) -> None:
    from okbody import cli

    for path in files:
        data, _ = cli.load_json(path)
        if ".surface." in path:
            cli.parse_surface(data, where=path)
        else:
            cli.parse_series(data, where=path)


def peak_rss_kb() -> int:
    """Peak resident memory of this process.  ru_maxrss is not used: it is
    kept across exec, so it would report the larger parent benchmark."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_command(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejected the command line
            rc = e.code
        except Exception:  # a crash is a failed operation, not a dead job process
            traceback.print_exc()
            rc = 1
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def serve(trace_path: str | None) -> None:
    import okbody
    from okbody import cli

    tracer = None
    main = cli.main
    if trace_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        main = tracer.wrap("cli", cli.main)
    proto = sys.stdout
    proto.write(json.dumps({"okbody": okbody.__file__}) + "\n")
    proto.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            reply = {"peak_rss_kb": peak_rss_kb()}
            if tracer is not None:
                reply["layers"] = tracer.summary()
                tracer.write(trace_path)
            proto.write(json.dumps(reply) + "\n")
            proto.flush()
            return
        if tracer is not None:
            tracer.job = request["id"]
        results = [run_command(main, argv) for argv in request["argvs"]]
        proto.write(json.dumps({"id": request["id"], "results": results}) + "\n")
        proto.flush()


if __name__ == "__main__":
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    args = sys.argv[2:]
    if args[:1] == ["--cold"]:
        cold(args[1:])
    else:
        serve(args[1] if args[:1] == ["--trace"] else None)
