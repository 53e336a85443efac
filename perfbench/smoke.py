"""Quick self-check of the benchmark, about half a minute.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload once at the small size, untraced and traced, and
asserts that each metric BENCHMARK.json names is emitted with its unit,
that no call failed and that the traced counts agree between passes.  It
also checks that the answer check catches a ``--mutate`` control that
finds no violation, and a plain run that finds some.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import child  # noqa: E402
from workloads import WORKLOADS, check, congruence_batch  # noqa: E402

SEED = 3


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def expect_metrics(result: dict, declared: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: emitted {got}, declared {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def check_mutate_control() -> None:
    plain, mutated, _ = congruence_batch(SEED, "small")
    job = {"ops": [list(plain.argv), list(mutated.argv)], "trace": False}
    proc = child("pass", stdin=json.dumps(job))
    assert proc.returncode == 0, proc.stderr
    out_plain, out_mutated = (json.loads(line) for line in proc.stdout.splitlines()[:2])
    assert not check(plain, out_plain["code"], out_plain["stdout"], None)
    assert not check(mutated, out_mutated["code"], out_mutated["stdout"], None)
    # A build whose --mutate were ignored, or whose plain run found violations.
    assert check(mutated, out_plain["code"], out_plain["stdout"], None)
    assert check(plain, out_mutated["code"], out_mutated["stdout"], None)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run_bench(workload, trace)
            expect_metrics(result, declared, f"{workload} --trace {trace}")
            assert result["correct"] and result["failed"] == 0, (workload, trace, result["failed"])
            assert result["attempted"] >= 1
        print(f"ok {workload}")
    check_mutate_control()
    print("ok mutate control")
    return 0


if __name__ == "__main__":
    sys.exit(main())
