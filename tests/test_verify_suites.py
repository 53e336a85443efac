"""The seeded suites of ``gsos verify``: what a failing case reports, that a
failing case reruns alone, that a spec with no operation is sampled
without a crash, and that no suite's draw raises.

Every suite passes on the bundled specs, so the failure lines are seen only
with a check forced to fail, or to raise a typed error, which fails its
case with the error's kind and message.  Case i of a seeded suite draws
from ``random.Random(seed + i)``, so ``--seed <seed+i> --cases 1`` is that
case.
"""

import ast
import inspect
import json
import random

import pytest

import gsos.cli
import gsos.terms
from gsos.cli import _CASE_CHECKS, main
from gsos.errors import CellMismatch, MalformedProof, NonCommutingSquare
from gsos.specdsl import parse_spec
from gsos.terms import Axiom, Node
from round_trips import bundled_spec_path, load_bundled_spec

CCS = str(bundled_spec_path("ccs"))
SEEDED = ("laws", "familial", "cellular", "preserve")


def _raise(error, real=None):
    """A stand-in that raises error; given the real function, it raises only
    on a proof and passes anything else on to the real function."""

    def stand_in(*args):
        if real is None or isinstance(args[-1], (Axiom, Node)):
            raise error("forced")
        return real(*args)

    return stand_in


# The check each suite is made to fail by: (suite, module, name, stand-in).
FORCED = {
    "laws": ("laws", gsos.terms, "mu", lambda e: e),
    "familial": ("familial", gsos.cli, "commutes", lambda g, f, h, k=None: False),
    "cellular": ("cellular", gsos.cli, "verify_certificate", lambda cert: False),
    "preserve": ("preserve", gsos.cli, "preserve_bisim_lift", _raise(NonCommutingSquare)),
    "laws-raises": ("laws", gsos.terms, "mu", _raise(MalformedProof, gsos.terms.mu)),
    "familial-raises": ("familial", gsos.cli, "decompose", _raise(MalformedProof)),
    "cellular-raises": ("cellular", gsos.cli, "cell_certificate", _raise(CellMismatch)),
}

# Full stdout of `verify <ccs> --suite <suite> --seed 5 --cases 6 -d 2` with
# the check above forced to fail or to raise; every one exits 1.
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
    "laws-raises": (
        '{"cases": 6, "failures": ["case 2: MalformedProof: forced", '
        '"case 3: MalformedProof: forced"], '
        '"ok": false, "seed": 5, "suite": "laws"}\n'
    ),
    "familial-raises": (
        '{"cases": 6, "failures": ["case 0: MalformedProof: forced", '
        '"case 1: MalformedProof: forced", "case 2: MalformedProof: forced", '
        '"case 3: MalformedProof: forced", "case 4: MalformedProof: forced", '
        '"case 5: MalformedProof: forced"], '
        '"ok": false, "seed": 5, "suite": "familial"}\n'
    ),
    "cellular-raises": (
        '{"cases": 6, "failures": ["case 0: CellMismatch: forced", '
        '"case 1: CellMismatch: forced", "case 2: CellMismatch: forced", '
        '"case 3: CellMismatch: forced", "case 4: CellMismatch: forced", '
        '"case 5: CellMismatch: forced"], '
        '"ok": false, "seed": 5, "suite": "cellular"}\n'
    ),
}


def _verify(capsys, spec, suite, seed, cases):
    code = main(
        ["verify", spec, "--suite", suite, "--seed", str(seed), "--cases", str(cases), "-d", "2"]
    )
    out, _ = capsys.readouterr()
    return code, out


@pytest.fixture(params=FORCED)
def forced(request, monkeypatch):
    """The name of a check in FORCED, forced."""
    _, module, name, stand_in = FORCED[request.param]
    monkeypatch.setattr(module, name, stand_in)
    return request.param


def test_failing_report_bytes_golden(forced, capsys):
    code, out = _verify(capsys, CCS, FORCED[forced][0], seed=5, cases=6)
    assert (code, out) == (1, FAILING_REPORTS[forced])


def _by_case(failures):
    cases = {}
    for line in failures:
        prefix, message = line.split(": ", 1)
        cases.setdefault(int(prefix.removeprefix("case ")), []).append(message)
    return cases


def test_a_failing_case_reruns_alone(forced, capsys):
    suite = FORCED[forced][0]
    _, out = _verify(capsys, CCS, suite, seed=5, cases=6)
    by_case = _by_case(json.loads(out)["failures"])
    assert by_case
    for case in range(6):
        _, alone = _verify(capsys, CCS, suite, seed=5 + case, cases=1)
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


# No constant, so no closed term, and an operation of arity 3.
NO_CONSTANT = """labels a, b ;
op f : 3 ;
op g : 1 ;
rule fb :
  premises x1 -[a]-> y1_1 ; x3 -[b]-> y3_1 ;
  conclusion f(x1,x2,x3) -[b]-> g(y3_1) ;
rule ga :
  premises x1 -[b]-> y1_1 ;
  conclusion g(x1) -[a]-> f(y1_1,x1,x1) ;
"""


@pytest.mark.parametrize("suite", SEEDED)
def test_no_draw_raises(suite):
    """Every suite draws over a system with a state and an edge, so a term
    always has a variable to end in and a proof an edge to fall back on:
    no draw raises, even for a spec with no constant or no operation.  The
    check is called directly, so nothing would catch a draw's error."""
    specs = [
        load_bundled_spec("ccs"),
        load_bundled_spec("toy"),
        parse_spec("labels a ;\n"),
        parse_spec(NO_CONSTANT),
    ]
    for spec in specs:
        for d in range(4):
            for seed in range(100):
                assert _CASE_CHECKS[suite](spec, random.Random(seed), d) == []


@pytest.mark.parametrize("suite", SEEDED)
def test_no_handler_wraps_a_draw(suite):
    """A typed error fails its case in ``run_cases``; no check catches one
    around a draw, so a case that cannot be drawn is never counted passed."""
    tree = ast.parse(inspect.getsource(_CASE_CHECKS[suite]))
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            called = [
                n.func.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            ]
            assert not [name for name in called if name.startswith("random_")], called
