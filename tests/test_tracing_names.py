"""The benchmark tracer finds every function it is told to wrap, a traced
pass of every workload still runs and answers right, untraced small passes
of every workload print the recorded reports at the first eight seeds, and
full-size cartesian, bisim and congruence passes print their recorded
reports.

perfbench/tracing.py only warns when a traced name is missing and then
reports 0 for that layer, so a rename in gsos would silently blind it; its
counter hooks read the results of the functions they wrap, so a change to
a return shape would crash a traced run.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gsos.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("tracing").TRACED


def test_every_traced_name_resolves_to_a_gsos_callable():
    traced = _traced()
    assert traced
    for mod, path in traced:
        obj = importlib.import_module(f"gsos.{mod}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{mod}.{path}"


# Counters that must be positive on a workload, because it runs their layer.
POSITIVE_COUNTERS = {
    "cartesian-d2": ("terms.window_states", "terms.derive.proofs"),
    "bisim-deep": ("bisim.fragment_states", "terms.derive.proofs"),
    "congruence-batch": ("bisim.fragment_states", "bisim.fragment_edges"),
    "suites-small": ("terms.derive.proofs",),
}


@pytest.mark.parametrize("workload", list(POSITIVE_COUNTERS))
def test_traced_small_pass_runs_and_answers(workload):
    workloads = _load("workloads")
    seed = 0
    ops = workloads.WORKLOADS[workload](seed, "small")
    job = {"ops": [list(op.argv) for op in ops], "trace": True}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "pass"],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=PERFBENCH.parent,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *results, end = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(ops)
    answers = workloads.load_answers()
    for op, res in zip(ops, results):
        assert res["error"] is None, res["error"]
        want = workloads.recorded_digest(answers, workload, "small", op, seed)
        assert want is not None
        assert workloads.check(op, res["code"], res["stdout"], want) == [], op.name
    assert end["missing"] == []
    for counter in POSITIVE_COUNTERS[workload]:
        assert end["trace"][counter] > 0, counter


def _assert_untraced_pass_prints_recorded_reports(workload, seed, size, monkeypatch):
    workloads = _load("workloads")
    answers = workloads.load_answers()
    monkeypatch.chdir(PERFBENCH.parent)
    for op in workloads.WORKLOADS[workload](seed, size):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(op.argv))
        want = workloads.recorded_digest(answers, workload, size, op, seed)
        assert want is not None
        assert workloads.check(op, code, out.getvalue(), want) == [], op.name


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "workload", ["congruence-batch", "bisim-deep", "cartesian-d2", "suites-small"]
)
def test_untraced_small_pass_prints_recorded_reports(workload, seed, monkeypatch):
    _assert_untraced_pass_prints_recorded_reports(workload, seed, "small", monkeypatch)


def test_untraced_full_cartesian_pass_prints_recorded_report(monkeypatch):
    """The full-size cartesian call (-d 2, the two-layer window of 3538
    states) prints its recorded report byte for byte."""
    _assert_untraced_pass_prints_recorded_reports("cartesian-d2", 0, "full", monkeypatch)


def test_untraced_full_congruence_pass_prints_recorded_reports(monkeypatch):
    """The full-size congruence calls (100 sampled contexts over the ten
    bundled pairs, honest and mutated, and the verify suite) print their
    recorded reports byte for byte."""
    _assert_untraced_pass_prints_recorded_reports("congruence-batch", 0, "full", monkeypatch)


def test_untraced_full_bisim_pass_prints_recorded_reports(monkeypatch):
    """The full-size bisim-deep calls (the 237-state lts carrier with its
    state order, edge order and frontier, and the 830- and 464-state bisim
    reports) print their recorded reports byte for byte."""
    _assert_untraced_pass_prints_recorded_reports("bisim-deep", 0, "full", monkeypatch)
