"""Benchmark of the gsos workbench CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cartesian-d2 --seed 1 --seconds 30 --trace 0

Each pass runs the workload's script of ``gsos`` calls (see workloads.py)
in a fresh interpreter, because CLI users start cold on every command and
no process-wide cache may carry from one pass to the next.  Passes run
one after another, a closed loop with one client, until the next one
would overrun ``--seconds``.  Every call's exit code and report are
checked against its known answer.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (import the CLI
and parse the spec in a fresh interpreter; the median of samples taken
before every pass, so they spread over the run like the passes), ``wall_s``
(median time of one pass inside ``gsos.cli.main``), ``peak_rss_mb``
(median peak resident memory of a pass's process) and ``ok_frac`` (share
of calls answered right).  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of tracing.py, their exact
counts (which must agree between traced passes) and the tracing
overhead.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNTERS, SPAN_NAMES  # noqa: E402
from workloads import SIZES, SPEC, WORKLOADS, check, digest, load_answers, recorded_digest  # noqa: E402

SETUP_SAMPLES_PER_PASS = 2
PASS_TIMEOUT_S = 150
# The program reads only its CLI arguments (GSOS_SEED would override --seed),
# and imports the checkout's own sources, not a PYTHONPATH copy.
ENV = {k: v for k, v in os.environ.items() if k not in ("GSOS_SEED", "PYTHONPATH")}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
TRACE_EXTRA_UNITS = {
    "terms.window_keep_ratio": "ratio",
    "bisim.fragment_distinct_ratio": "ratio",
    "trace.layer_cover_ratio": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({name: "count" for name in COUNTERS})
    units.update(TRACE_EXTRA_UNITS)
    return units


def child(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=ENV,
        timeout=PASS_TIMEOUT_S,
    )


def setup_sample() -> float:
    """Seconds to import the CLI and parse the spec in a fresh interpreter."""
    proc = child("setup", SPEC)
    if proc.returncode != 0:
        raise SystemExit(f"setup failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Run:
    """Passes of one workload, with every call's answer checked."""

    def __init__(self, workload: str, seed: int, size: str):
        self.ops = WORKLOADS[workload](seed, size)
        answers = load_answers()
        self.want = [recorded_digest(answers, workload, size, op, seed) for op in self.ops]
        self.seen: list[str | None] = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes: dict[bool, list[dict]] = {False: [], True: []}
        self.setup: list[float] = []

    def run_pass(self, trace: bool) -> None:
        job = {"ops": [list(op.argv) for op in self.ops], "trace": trace}
        try:
            proc = child("pass", stdin=json.dumps(job))
            lines = proc.stdout.splitlines()
            ok = proc.returncode == 0 and len(lines) == len(self.ops) + 1
        except subprocess.TimeoutExpired:
            proc, lines, ok = None, [], False
        self.attempted += len(self.ops)
        if not ok:
            self.failed += len(self.ops)
            tail = proc.stderr[-2000:] if proc is not None else "timed out"
            self.problems.append(f"pass crashed: {tail}")
            return
        for i, (op, line) in enumerate(zip(self.ops, lines)):
            res = json.loads(line)
            problems = check(op, res["code"], res["stdout"], self.want[i])
            for stream in ("error", "stderr"):
                if problems and res[stream]:
                    problems.append(res[stream].strip().splitlines()[-1])
            d = digest(res["stdout"])
            if self.seen[i] is None:
                self.seen[i] = d
            elif self.seen[i] != d:
                problems.append("stdout differs from an earlier pass of this run")
            if problems:
                self.failed += 1
                self.problems.append(f"{op.name}: " + "; ".join(problems))
        self.passes[trace].append(json.loads(lines[-1]))

    def measure(self, seconds: float, trace: bool) -> None:
        """Alternate untraced and traced passes when tracing; stop before the
        next pass would end after ``seconds``, once the minimum is met.

        Untraced runs take set-up samples before every pass; the first sample
        of the run, which may compile bytecode, is a warm-up and is dropped.
        Traced runs report no ``setup_s`` and take none."""
        kinds = (False, True) if trace else (False,)
        need = {False: 1, True: 2 if trace else 0}
        start = perf_counter()
        if not trace:
            setup_sample()
        longest = 0.0
        i = 0
        while True:
            t = perf_counter()
            if not trace:
                self.setup += [setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
            self.run_pass(kinds[i % len(kinds)])
            longest = max(longest, perf_counter() - t)
            i += 1
            enough = all(len(self.passes[k]) >= n for k, n in need.items())
            attempts_left = i < 4 * (1 + sum(need.values()))
            if not enough and attempts_left:
                continue
            if perf_counter() - start + longest > seconds:
                break


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    passes = run.passes[False]
    return {
        "setup_s": median(run.setup),
        "wall_s": median([p["wall_s"] for p in passes]),
        "peak_rss_mb": median([p["maxrss_kb"] / 1024 for p in passes]),
        "ok_frac": 1 - run.failed / run.attempted,
    }


def per_layer(run: Run) -> tuple[dict[str, float], list[str]]:
    traced = [p["trace"] for p in run.passes[True]]
    untraced_wall = median([p["wall_s"] for p in run.passes[False]])
    traced_wall = median([p["wall_s"] for p in run.passes[True]])
    out: dict[str, float] = {}
    mismatches = []
    for name in traced[0]:
        values = [t[name] for t in traced]
        if name.endswith(".calls") or name in COUNTERS:
            out[name] = values[0]
            if len(set(values)) != 1:
                mismatches.append(f"{name} differs between traced passes: {values}")
        else:
            out[name] = median(values)
    out["terms.window_keep_ratio"] = ratio(out["terms.window_edges"], out["terms.window_proofs"])
    out["bisim.fragment_distinct_ratio"] = ratio(
        out["bisim.fragment_distinct_states"], out["bisim.fragment_states"]
    )
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out, mismatches


def ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="'small' shrinks every op, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gsos" / "cli.py").is_file():
        sys.stderr.write(f"no gsos sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if args.seed < 0:
        sys.stderr.write("--seed must be >= 0\n")
        return 2

    run = Run(args.workload, args.seed, args.size)
    run.measure(args.seconds, bool(args.trace))
    if not run.passes[False] or (args.trace and not run.passes[True]):
        sys.stderr.write("\n".join(run.problems[:10]) + "\nno pass completed\n")
        return 1

    mismatches: list[str] = []
    if args.trace:
        values, mismatches = per_layer(run)
        units = per_layer_units()
        for name in run.passes[True][0]["missing"]:
            sys.stderr.write(f"warning: {name} not found, its metrics read 0\n")
    else:
        values = end_to_end(run)
        units = END_TO_END_UNITS
    for line in (run.problems + mismatches)[:20]:
        sys.stderr.write(line + "\n")

    walls = [p["wall_s"] for p in run.passes[False]]
    traced_walls = [p["wall_s"] for p in run.passes[True]]
    side = (
        f"traced wall_s median {median(traced_walls):.4f} s over {len(traced_walls)} passes"
        if args.trace
        else f"setup_s median {median(run.setup):.4f} s over {len(run.setup)} samples"
    )
    print(
        f"{args.workload} seed={args.seed} size={args.size}: "
        f"wall_s median {median(walls):.4f} s over {len(walls)} untraced passes "
        f"(min {min(walls):.4f}, max {max(walls):.4f}), {side}, "
        f"failed_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f} ratio"
    )
    result = {
        "correct": run.failed == 0 and not mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
