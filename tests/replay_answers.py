"""Replay every report recorded in perfbench/answers.json and compare digests.

Each op of the four benchmark workloads is run at seeds 0..31, at both
sizes, through ``gsos.cli.main`` in this interpreter, and checked against
its known answer: exit code, verdict fields and the sha256 of its stdout.
An op whose report does not depend on the seed is run once per size.  One
line is printed per mismatch, then a summary; the exit status is 1 on any
mismatch.  perfbench/workloads.py is imported, never changed.

Run from anywhere, with the package importable::

    PYTHONPATH=src python tests/replay_answers.py [workload ...]

It is a script, not a test module (it takes about a minute), so the test
suite does not collect it.
"""

import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

from gsos.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def replay(workloads, names) -> tuple[int, list[str]]:
    """The number of recorded ops run, and one line per mismatch."""
    answers = workloads.load_answers()
    ran, problems, done = 0, [], set()
    for name in names:
        for size in workloads.SIZES:
            for seed in workloads.RECORDED_SEEDS:
                for op in workloads.WORKLOADS[name](seed, size):
                    want = workloads.recorded_digest(answers, name, size, op, seed)
                    key = (name, size, op.name, seed if op.seeded else None)
                    if want is None or key in done:
                        continue
                    done.add(key)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = main(list(op.argv))
                    ran += 1
                    for problem in workloads.check(op, code, out.getvalue(), want):
                        problems.append(f"{name}/{size} {op.name} seed {seed}: {problem}")
    return ran, problems


if __name__ == "__main__":
    os.chdir(ROOT)  # the ops name the spec by its path in the checkout
    workloads = _workloads()
    ran, problems = replay(workloads, sys.argv[1:] or list(workloads.WORKLOADS))
    for line in problems:
        print(line)
    print(f"{ran} recorded ops replayed, {len(problems)} mismatches")
    sys.exit(1 if problems else 0)
