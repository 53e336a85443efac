"""Record the stdout digests of every op into answers.json.

Run at a reference commit, from the root of its checkout:

    python3 perfbench/record.py

Each workload and size runs once per seed of ``RECORDED_SEEDS`` in a fresh
interpreter, through the same child process as the benchmark.  An op is recorded only if its
exit code and verdict fields match the known answer in workloads.py; ops
that take no seed are recorded once, under "any".  The benchmark then
fails any later build whose report bytes differ for a recorded seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import child  # noqa: E402
from workloads import ANSWERS_PATH, RECORDED_SEEDS, SIZES, WORKLOADS, check, digest  # noqa: E402


def main() -> int:
    answers: dict = {}
    for workload, make_ops in WORKLOADS.items():
        for size in SIZES:
            table = answers.setdefault(f"{workload}/{size}", {})
            for seed in RECORDED_SEEDS:
                ops = make_ops(seed, size)
                todo = [op for op in ops if op.seeded or op.name not in table]
                if not todo:
                    continue
                job = {"ops": [list(op.argv) for op in todo], "trace": False}
                proc = child("pass", stdin=json.dumps(job))
                if proc.returncode != 0:
                    sys.exit(f"{workload}/{size} seed {seed}: pass failed\n{proc.stderr}")
                for op, line in zip(todo, proc.stdout.splitlines()):
                    res = json.loads(line)
                    problems = check(op, res["code"], res["stdout"], None)
                    if problems:
                        sys.exit(f"{workload}/{size} seed {seed} {op.name}: {problems}")
                    key = str(seed) if op.seeded else "any"
                    table.setdefault(op.name, {})[key] = digest(res["stdout"])
            print(f"recorded {workload}/{size}", file=sys.stderr)
    ANSWERS_PATH.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
