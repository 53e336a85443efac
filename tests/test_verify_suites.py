"""The seeded suites of ``gsos verify``: what a failing case reports, that a
failing case reruns alone, and that a spec with no operation is sampled
without a crash.

Every suite passes on the bundled specs, so the failure lines are seen only
with a check forced to fail.  Case i of a seeded suite draws from
``random.Random(seed + i)``, so ``--seed <seed+i> --cases 1`` is that case.
"""

import json

import pytest

import gsos.cli
import gsos.terms
from gsos.cli import main
from gsos.errors import NonCommutingSquare
from round_trips import bundled_spec_path

CCS = str(bundled_spec_path("ccs"))
SEEDED = ("laws", "familial", "cellular", "preserve")


def _refuse_lift(f, M, R):
    raise NonCommutingSquare("forced")


# The check each suite is made to fail by: (module, name, stand-in).
FORCED = {
    "laws": (gsos.terms, "mu", lambda e: e),
    "familial": (gsos.cli, "commutes", lambda g, f, h, k=None: False),
    "cellular": (gsos.cli, "verify_certificate", lambda cert: False),
    "preserve": (gsos.cli, "preserve_bisim_lift", _refuse_lift),
}

# Full stdout of `verify <ccs> --suite <suite> --seed 5 --cases 6 -d 2` with
# the check above forced to fail; every one exits 1.
FAILING_REPORTS = {
    "laws": (
        '{"cases": 6, "failures": ["case 0: mu . T(eta) != id on var(s1)", '
        '"case 0: mu . eta_T != id on var(s1)", '
        '"case 1: mu . T(eta) != id on var(s4)", '
        '"case 1: mu . eta_T != id on var(s4)", '
        '"case 2: mu . T(eta) != id on lpar[L=a](ax(e1),term(var(s2)))", '
        '"case 2: mu . eta_T != id on lpar[L=a](ax(e1),term(var(s2)))", '
        '"case 3: mu . T(eta) != id on pref_tau(term(var(s1)))", '
        '"case 3: mu . eta_T != id on pref_tau(term(var(s1)))", '
        '"case 4: mu . T(eta) != id on var(s0)", '
        '"case 4: mu . eta_T != id on var(s0)", '
        '"case 5: mu . T(eta) != id on var(s3)", '
        '"case 5: mu . eta_T != id on var(s3)"], '
        '"ok": false, "seed": 5, "suite": "laws"}\n'
    ),
    "familial": (
        '{"cases": 6, "failures": ["case 0: filler not natural in the ambient system", '
        '"case 1: filler not natural in the ambient system", '
        '"case 2: filler not natural in the ambient system", '
        '"case 2: source filler not natural in the base", '
        '"case 2: target filler not natural in the base", '
        '"case 3: filler not natural in the ambient system", '
        '"case 3: source filler not natural in the base", '
        '"case 3: target filler not natural in the base", '
        '"case 4: filler not natural in the ambient system", '
        '"case 5: filler not natural in the ambient system"], '
        '"ok": false, "seed": 5, "suite": "familial"}\n'
    ),
    "cellular": (
        '{"cases": 6, "failures": ["case 0: certificate fails on sync(ax(a_bar),ax(a))", '
        '"case 1: certificate fails on rsync(ax(a_bar),ax(a))", '
        '"case 2: certificate fails on ax(a_bar)", '
        '"case 3: certificate fails on ax(a)", '
        '"case 4: certificate fails on pref_a_bar(term(var(*)))", '
        '"case 5: certificate fails on pref_tau(term(var(*)))"], '
        '"ok": false, "seed": 5, "suite": "cellular"}\n'
    ),
    "preserve": (
        '{"cases": 6, "failures": ["case 0: forced on pref_a(term(bang(var(s1))))", '
        '"case 1: forced on ax(e0)", '
        '"case 3: forced on pref_tau(term(par(var(s0),var(s0))))"], '
        '"ok": false, "seed": 5, "suite": "preserve"}\n'
    ),
}


def _verify(capsys, spec, suite, seed, cases):
    code = main(
        ["verify", spec, "--suite", suite, "--seed", str(seed), "--cases", str(cases), "-d", "2"]
    )
    out, _ = capsys.readouterr()
    return code, out


@pytest.fixture(params=SEEDED)
def forced(request, monkeypatch):
    module, name, stand_in = FORCED[request.param]
    monkeypatch.setattr(module, name, stand_in)
    return request.param


def test_failing_report_bytes_golden(forced, capsys):
    code, out = _verify(capsys, CCS, forced, seed=5, cases=6)
    assert (code, out) == (1, FAILING_REPORTS[forced])


def _by_case(failures):
    cases = {}
    for line in failures:
        prefix, message = line.split(": ", 1)
        cases.setdefault(int(prefix.removeprefix("case ")), []).append(message)
    return cases


def test_a_failing_case_reruns_alone(forced, capsys):
    _, out = _verify(capsys, CCS, forced, seed=5, cases=6)
    by_case = _by_case(json.loads(out)["failures"])
    assert by_case
    for case in range(6):
        _, alone = _verify(capsys, CCS, forced, seed=5 + case, cases=1)
        assert _by_case(json.loads(alone)["failures"]) == (
            {0: by_case[case]} if case in by_case else {}
        )


@pytest.mark.parametrize("suite", SEEDED)
def test_spec_without_operations_is_sampled(suite, tmp_path, capsys):
    spec = tmp_path / "labels_only.gsos"
    spec.write_text("labels a ;\n")
    for seed in range(10):
        code, out = _verify(capsys, str(spec), suite, seed=seed, cases=3)
        assert code == 0, (seed, out)
        assert json.loads(out)["ok"] is True
