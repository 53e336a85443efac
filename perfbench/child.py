"""One measurement in a fresh interpreter, started by run.py.

``child.py setup SPEC`` times importing the gsos CLI and parsing SPEC, the
cost every CLI call pays before it does any work, and prints it.

``child.py pass`` reads {"ops": [argv, ...], "trace": bool} on stdin and
runs each op through ``gsos.cli.main``, as a user's sequence of commands
would run.  For each op it prints one JSON line with the exit code, the
seconds spent in ``main`` and the captured stdout and stderr; the last
line carries the peak resident memory and, when tracing, the span data.
Output is written between ops, outside the timed calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def setup(spec_path: str) -> None:
    text = (ROOT / spec_path).read_text()
    t0 = perf_counter()
    import gsos.cli

    gsos.cli.parse_spec(text)
    print(json.dumps({"setup_s": perf_counter() - t0}))


def run_pass() -> None:
    job = json.loads(sys.stdin.read())
    import gsos.cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wall = 0.0
    out = sys.stdout
    for argv in job["ops"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = gsos.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a wrong answer, not a crash of the pass
            code, error = None, traceback.format_exc()
        seconds = perf_counter() - t0
        wall += seconds
        line = {"code": code, "seconds": seconds, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(), "error": error}
        out.write(json.dumps(line) + "\n")
    end = {
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.metrics(wall) if tracer else None,
        "missing": tracer.missing if tracer else [],
    }
    out.write(json.dumps(end) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup(sys.argv[2])
    elif sys.argv[1:2] == ["pass"]:
        run_pass()
    else:
        sys.exit("usage: child.py setup SPEC | child.py pass < job.json")
