"""The four workloads: fixed scripts of ``gsos`` invocations with known answers.

Every op is one CLI call, given as the argument list ``gsos.cli.main``
receives.  Its expected answer is an exit code plus verdict fields of the
JSON report.  The verdicts come from the semantics, not from the build
under test:

- every curated pair of ``ccs_pairs.json`` is strongly bisimilar, and
  bisimilarity is a congruence for positive GSOS, so the congruence test
  finds no violation for any sample of contexts;
- ``--mutate`` switches on the premise-shortcut engine, which breaks
  congruence; 841 of the 1313 height-3 contexts expose it, and the
  100-context sample of every seed 0..99999 holds at least 44 of them, so
  it must exit 1 with violations (the 6-context sample of the small size
  misses them for 206 of those seeds; the smoke test uses seed 3);
- the ``bisim-deep`` verdicts are argued by hand next to each query, and
  every query keeps fuel >= k, the range where ``gsos bisim`` is sound;
- every ``verify`` suite checks a theorem, so it reports ``ok: true`` for
  any seed.

State, window and case counts are fixed by the spec and the truncation
conventions; they were recorded from the workbench as of the commit that
added this benchmark and pin the same definitions.  ``answers.json`` adds
the sha256 of the full stdout of every op for the recorded seeds, so the
report bytes cannot drift either.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

SPEC = "src/gsos/specs/ccs.gsos"
PAIRS = "src/gsos/specs/ccs_pairs.json"
SIZES = ("full", "small")

# x can do a and a_bar but cannot synchronise with itself (sync needs a_bar
# on the left argument), so bang(x) keeps spawning residuals a|a_bar.
X1 = "par(pref_a(nil),pref_a_bar(nil))"
X2 = "par(pref_a_bar(nil),pref_a(nil))"
LTS_TERM = (
    "par(par(bang(sum(pref_a(pref_tau(nil)),pref_a_bar(nil))),pref_a(pref_a_bar(nil))),"
    "sum(pref_a_bar(nil),pref_tau(pref_a(nil))))"
)


@dataclass(frozen=True)
class AtLeast:
    n: int

    def __call__(self, value: Any) -> bool:
        return isinstance(value, int) and value >= self.n


@dataclass(frozen=True)
class Op:
    """One CLI call and its known answer.

    ``fields`` maps a dotted path into the JSON report to the expected
    value, or to a predicate on it; a path ending in ``#`` is compared by
    the length of the list it names.
    """

    name: str
    argv: tuple[str, ...]
    code: int
    fields: dict[str, Any] = field(default_factory=dict)
    seeded: bool = False


def _lookup(doc: Any, path: str) -> Any:
    count = path.endswith("#")
    for part in path.rstrip("#").split("."):
        doc = doc[part]
    return len(doc) if count else doc


def check(op: Op, code: int, stdout: str, digest_want: str | None) -> list[str]:
    """Mismatches between one call's result and its known answer."""
    problems = []
    if code != op.code:
        problems.append(f"exit code {code}, want {op.code}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON report"]
    for path, want in op.fields.items():
        try:
            got = _lookup(report, path)
        except (KeyError, TypeError):
            problems.append(f"{path} missing")
            continue
        ok = want(got) if callable(want) else got == want
        if not ok:
            problems.append(f"{path} = {got!r}, want {want!r}")
    if digest_want is not None and digest(stdout) != digest_want:
        problems.append("stdout differs from the report recorded for this seed")
    return problems


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def _verify(suite: str, seed: int, *extra: str) -> tuple[str, ...]:
    return ("verify", SPEC, "--suite", suite, "--seed", str(seed), *extra)


def cartesian_d2(seed: int, size: str) -> list[Op]:
    """The mu/eta pullback squares over y[a]: windows only, no bisim."""
    if size == "full":
        sizes = {
            "mu.sizes.two_layer": [3538, 5588],
            "mu.sizes.one_layer": [801, 1220],
            "mu.sizes.two_layer_over_1": [673, 3015],
            "mu.sizes.one_layer_over_1": [162, 688],
            "eta.sizes.free": [801, 1220],
        }
    else:
        sizes = {
            "mu.sizes.two_layer": [36, 29],
            "mu.sizes.one_layer": [19, 15],
            "mu.sizes.two_layer_over_1": [15, 35],
            "mu.sizes.one_layer_over_1": [8, 19],
            "eta.sizes.free": [19, 15],
        }
    d = "2" if size == "full" else "1"
    return [
        Op(
            "cartesian",
            _verify("cartesian", seed, "-d", d),
            0,
            {"ok": True, "mu.ok": True, "eta.ok": True, "failures#": 0, **sizes},
            seeded=True,
        )
    ]


def bisim_deep(seed: int, size: str) -> list[Op]:
    """A few large fragments; the seed is not used, the queries are fixed.

    - ``bang-swap``: the a- and a_bar-derivatives of X1 and X2 are pairwise
      bisimilar (a|0 ~ 0|a and 0|a_bar ~ a_bar|0: no sync is possible in
      either), bang only reads those derivatives, and bisimilarity is a
      congruence, so bang(X1) ~ bang(X2): true at every k.
    - ``bang-a-vs-abar``: the left term can do a at once (rpar of pref_a);
      the right one cannot (bang only does tau, pref_a_bar only a_bar, and
      sync would need a_bar from the bang), so false at every k >= 1.
    """
    k_swap, k_other, lts_fuel = ("7", "6", "7") if size == "full" else ("4", "3", "4")
    full = size == "full"
    return [
        Op(
            "bang-swap",
            ("bisim", SPEC, "--t1", f"bang({X1})", "--t2", f"bang({X2})",
             "-k", k_swap, "--fuel", k_swap),
            0,
            {"bisimilar": True, "states": 830 if full else 58},
        ),
        Op(
            "bang-a-vs-abar",
            ("bisim", SPEC, "--t1", f"par(bang({X1}),pref_a(nil))",
             "--t2", f"par(bang({X1}),pref_a_bar(nil))", "-k", k_other, "--fuel", k_other),
            0,
            {"bisimilar": False, "states": 464 if full else 32},
        ),
        Op(
            "lts-branching",
            ("lts", SPEC, "--term", LTS_TERM, "--fuel", lts_fuel),
            0,
            {"states": 237 if full else 49, "transitions": 701 if full else 105},
        ),
    ]


def congruence_batch(seed: int, size: str) -> list[Op]:
    """Many tiny fragments: sampled and enumerated contexts over the pairs."""
    sample = "100" if size == "full" else "6"
    call = ("congruence", SPEC, "--pairs", PAIRS, "-k", "3", "--fuel", "4",
            "--sample", sample, "--seed", str(seed))
    cases = 10 * int(sample)
    return [
        Op("congruence", call, 0, {"ok": True, "violations#": 0, "cases#": cases}, seeded=True),
        Op(
            "congruence-mutate",
            call + ("--mutate",),
            1,
            {"ok": False, "mutated": True, "violations#": AtLeast(1), "cases#": cases},
            seeded=True,
        ),
        Op(
            "verify-congruence",
            _verify("congruence", seed, "-k", "3"),
            0,
            {"ok": True, "violations#": 0, "cases#": 410},
            seeded=True,
        ),
    ]


def suites_small(seed: int, size: str) -> list[Op]:
    """Many small seeded elements: the familial and cellular layers."""
    cases = 1000 if size == "full" else 50
    return [
        Op(
            suite,
            _verify(suite, seed, "--cases", str(cases), "-d", "3"),
            0,
            {"ok": True, "cases": cases, "failures#": 0},
            seeded=True,
        )
        for suite in ("laws", "familial", "cellular", "preserve")
    ]


WORKLOADS: dict[str, Callable[[int, str], list[Op]]] = {
    "cartesian-d2": cartesian_d2,
    "bisim-deep": bisim_deep,
    "congruence-batch": congruence_batch,
    "suites-small": suites_small,
}

ANSWERS_PATH = Path(__file__).with_name("answers.json")
# Seeds whose stdout digests answers.json holds; other seeds are checked by
# exit code and verdict fields only.
RECORDED_SEEDS = range(32)


def load_answers() -> dict:
    """Recorded stdout digests: {workload/size: {op: {seed | "any": sha256}}}."""
    return json.loads(ANSWERS_PATH.read_text())


def recorded_digest(answers: dict, workload: str, size: str, op: Op, seed: int) -> str | None:
    per_op = answers.get(f"{workload}/{size}", {}).get(op.name, {})
    return per_op.get(str(seed) if op.seeded else "any")
