import argparse
import json
import resource
import subprocess
import sys

import pytest

from gsos.cli import _CASE_CHECKS, _COUNT_OPTIONS, build_parser, main
from round_trips import bundled_spec_path, morphism_to_json

CCS = str(bundled_spec_path("ccs"))
TOY = str(bundled_spec_path("toy"))
PAIRS = str(bundled_spec_path("ccs").parent / "ccs_pairs.json")
NON_GSOS_SPEC = (
    "labels a ;\nop f : 1 ;\nop g : 1 ;\n"
    "rule r : premises x1 -[a]-> y1_1 ; conclusion f(g(x1)) -[a]-> x1 ;\n"
)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_check_valid(capsys):
    code, out, err = run_cli(["check", CCS], capsys)
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_check_non_gsos_source(tmp_path, capsys):
    bad = tmp_path / "bad.gsos"
    bad.write_text(NON_GSOS_SPEC)
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 1
    violations = [json.loads(line) for line in err.splitlines()]
    assert len(violations) == 1
    assert violations[0]["kind"] == "NonGsosSource"


def test_check_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.gsos"
    empty.write_text("")
    code, out, err = run_cli(["check", str(empty)], capsys)
    assert code == 1
    assert any(json.loads(l)["kind"] == "SyntaxError" for l in err.splitlines())


def test_check_arity_with_too_many_digits(tmp_path, capsys):
    """An arity longer than the interpreter's int conversion limit is a
    syntax violation at its token, not a crash; parsing resumes after it."""
    bad = tmp_path / "huge.gsos"
    bad.write_text(f"labels a ; op f : {'7' * 5000} ; op g : 1 ;\n")
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 1
    assert out == ""
    (violation,) = [json.loads(line) for line in err.splitlines()]
    assert violation["kind"] == "SyntaxError"
    assert (violation["line"], violation["col"]) == (1, 19)
    assert "too many digits" in violation["message"]


def test_lts_nil(capsys):
    code, out, _ = run_cli(["lts", CCS, "--term", "nil", "--fuel", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["states"] == 1 and doc["transitions"] == 0


def test_lts_golden_root_transitions(capsys):
    code, out, _ = run_cli(
        ["lts", CCS, "--term", "par(pref_a_bar(nil),pref_a(nil))", "--fuel", "2"],
        capsys,
    )
    doc = json.loads(out)
    root = "par(pref_a_bar(nil),pref_a(nil))"
    roots = [
        rec
        for label, recs in doc["carrier"]["edges"].items()
        for rec in recs
        if rec["src"] == root
    ]
    assert len(roots) == 3
    assert doc["definitive"] is True


def test_lts_dot_round_trips_node_count(capsys):
    code, out, _ = run_cli(
        ["lts", CCS, "--term", "par(pref_a_bar(nil),pref_a(nil))", "--fuel", "2",
         "--format", "dot"],
        capsys,
    )
    node_lines = [l for l in out.splitlines() if l.strip().endswith('";')]
    code2, out2, _ = run_cli(
        ["lts", CCS, "--term", "par(pref_a_bar(nil),pref_a(nil))", "--fuel", "2"],
        capsys,
    )
    assert len(node_lines) == json.loads(out2)["states"]


def test_lts_text_golden(capsys):
    """--format text prints the JSON report's three counts on one line."""
    args = ["lts", CCS, "--term", "bang(sum(pref_a(nil),pref_a_bar(nil)))", "--fuel", "2"]
    assert run_cli([*args, "--format", "text"], capsys) == (
        0,
        "states=3 transitions=2 frontier=1\n",
        "",
    )
    doc = json.loads(run_cli(args, capsys)[1])
    assert (doc["states"], doc["transitions"], len(doc["frontier"])) == (3, 2, 1)


def test_bisim_command(capsys):
    code, out, _ = run_cli(
        ["bisim", CCS, "--t1", "sum(pref_a(nil),pref_a(nil))", "--t2", "pref_a(nil)",
         "-k", "3", "--fuel", "4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bisimilar"] is True and doc["definitive"] is True


def test_decompose_report(capsys):
    code, out, _ = run_cli(
        ["decompose", CCS, "--proof", "rsync(ax(a_bar),ax(a))"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == "rsync(ax(a_bar),ax(a))"
    assert len(doc["arity"]["states"]) == 3


def test_certify_report(capsys):
    code, out, _ = run_cli(["certify", CCS, "--proof", "rsync(ax(a_bar),ax(a))"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert [s["label"] for s in doc["steps"]] == ["a_bar", "a"]
    assert all({"label", "at"} <= set(s) for s in doc["steps"])


def test_lift_command(tmp_path, capsys):
    from gsos.presheaf import LabelSet, make_presheaf, morphism

    L = LabelSet(("a", "a_bar", "tau"))
    X = make_presheaf(L, ("u", "v", "w"), [("a", "d1", "u", "w"), ("a", "d2", "v", "w")])
    Y = make_presheaf(L, ("p", "q"), [("a", "d", "p", "q")])
    f = morphism(X, Y, {"u": "p", "v": "p", "w": "q"}, {"a": {"d1": "d", "d2": "d"}})
    fpath = tmp_path / "f.json"
    fpath.write_text(morphism_to_json(f))
    code, out, _ = run_cli(
        ["lift", CCS, "--fbisim", str(fpath), "--term", "par(var(u),var(v))",
         "--proof", "rpar(term(var(p)),ax(d))"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["preimage"] == "rpar[L=a](term(var(u)),ax(d2))"


def test_lift_names_the_counterexample_of_a_non_bisimulation(tmp_path, capsys):
    """A map that is not a functional bisimulation is refused with the
    state, label and codomain edge where the lifting property fails."""
    from gsos.presheaf import LabelSet, make_presheaf, morphism

    spec = tmp_path / "ab.gsos"
    spec.write_text(
        "labels a, b ;\nop u : 1 ;\n"
        "rule step : premises x1 -[a]-> y1_1 ; conclusion u(x1) -[a]-> u(y1_1) ;\n"
    )
    L = LabelSet(("a", "b"))
    X = make_presheaf(L, ("v", "w"), [("a", "d1", "v", "w")])
    Y = make_presheaf(L, ("p", "q"), [("a", "d", "p", "q"), ("b", "g", "q", "p")])
    f = morphism(X, Y, {"v": "p", "w": "q"}, {"a": {"d1": "d"}})
    fpath = tmp_path / "f.json"
    fpath.write_text(morphism_to_json(f))
    code, out, err = run_cli(
        ["lift", str(spec), "--fbisim", str(fpath), "--term", "u(var(v))",
         "--proof", "step(ax(d))"],
        capsys,
    )
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    report = json.loads(line)
    assert report["kind"] == "NotAFunctionalBisim"
    # no b-edge over g starts at w, although g starts at f(w) = q
    assert report["message"] == (
        "right leg fails the lifting property: no edge over 'g' starts at 'w' (label 'b')"
    )


def test_verify_laws_suite(capsys):
    code, out, _ = run_cli(
        ["verify", CCS, "--suite", "laws", "--seed", "1", "--cases", "10", "-d", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failures"] == []


def test_verify_cellular_suite(capsys):
    code, out, _ = run_cli(
        ["verify", CCS, "--suite", "cellular", "--seed", "2", "--cases", "20", "-d", "3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_congruence_mutation_negative_control(capsys):
    code, out, _ = run_cli(
        ["verify", CCS, "--suite", "congruence", "--mutate", "-k", "3"], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert len(doc["violations"]) >= 1


def test_verify_congruence_names_the_bundled_pairs_a_spec_cannot_read(capsys):
    """The suite always reads the bundled ccs pairs; on a spec without ccs's
    operations it says so, and names the operation the spec lacks."""
    code, out, err = run_cli(["verify", TOY, "--suite", "congruence"], capsys)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["kind"] == "UnknownOperation"
    assert "bundled ccs pairs (ccs_pairs.json)" in doc["message"]
    assert "unknown operation 'sum'" in doc["message"]


SUITES = ("laws", "familial", "cellular", "preserve", "cartesian", "congruence")


def _unknown_suite_refusal(spec, capsys):
    code, out, err = run_cli(["verify", spec, "--suite", "nope"], capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["kind"] == "UsageError"
    assert doc["message"].startswith("argument --suite: invalid choice: 'nope' (choose from ")
    assert all(suite in doc["message"] for suite in SUITES)


def test_verify_unknown_suite(capsys):
    _unknown_suite_refusal(CCS, capsys)


def test_verify_unknown_suite_is_refused_before_the_spec_is_read(capsys):
    """argparse refuses the suite name, so a missing spec file is never opened."""
    _unknown_suite_refusal("/nonexistent/spec.gsos", capsys)


def test_decompose_without_element(capsys):
    code, out, err = run_cli(["decompose", CCS], capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "kind": "UsageError",
        "message": "one of the arguments --proof --term is required",
    }


def test_decompose_with_both_elements(capsys):
    """--proof and --term together are refused, not settled by precedence."""
    argv = ["decompose", CCS, "--proof", "rsync(ax(a_bar),ax(a))", "--term", "var(*)"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "kind": "UsageError",
        "message": "argument --term: not allowed with argument --proof",
    }


@pytest.mark.parametrize("option", ["--proof", "--term"])
def test_decompose_empty_element_is_malformed(option, capsys):
    """An empty element is given, so argparse takes it; the reader refuses it."""
    code, out, err = run_cli(["decompose", CCS, option, ""], capsys)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["kind"] == "MalformedProof"


def test_congruence_command(tmp_path, capsys):
    ctxs = tmp_path / "ctxs.json"
    ctxs.write_text(json.dumps(["hole", "par(hole,nil)"]))
    code, out, _ = run_cli(
        ["congruence", CCS, "--pairs", PAIRS, "--contexts", str(ctxs), "-k", "3",
         "--fuel", "4"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_congruence_exhaustive_contexts(capsys):
    """--exhaustive-contexts closes every pair under every context of height
    at most --context-height, in the order enumerate_contexts lists them."""
    from round_trips import load_bundled_spec
    from gsos.bisim import enumerate_contexts
    from gsos.terms import render

    argv = ["congruence", CCS, "--pairs", PAIRS, "--exhaustive-contexts", "--context-height", "2"]
    code, out, _ = run_cli(argv, capsys)
    report = json.loads(out)
    contexts = [render(c) for c in enumerate_contexts(load_bundled_spec("ccs"), 2)]
    assert code == 0 and report["contexts"] == len(contexts) == 41
    assert [case["context"] for case in report["cases"]] == contexts * report["pairs"]


def test_congruence_contexts_exclude_exhaustive_contexts(tmp_path, capsys):
    """--contexts and --exhaustive-contexts together are refused, not settled
    by precedence."""
    ctxs = tmp_path / "ctxs.json"
    ctxs.write_text(json.dumps(["hole"]))
    argv = ["congruence", CCS, "--pairs", PAIRS, "--contexts", str(ctxs), "--exhaustive-contexts"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "kind": "UsageError",
        "message": "argument --exhaustive-contexts: not allowed with argument --contexts",
    }


def test_congruence_violations_rerun_alone(tmp_path, capsys):
    """A printed context reads back through --contexts (its hole printed as
    var(__hole__)), so each violation reruns alone to the same record."""
    argv = ["congruence", CCS, "--pairs", PAIRS, "--mutate", "--sample", "6", "--seed", "3"]
    code, out, _ = run_cli(argv, capsys)
    violations = json.loads(out)["violations"]
    assert code == 1 and len(violations) >= 2
    pairs, ctxs = tmp_path / "pairs.json", tmp_path / "ctxs.json"
    for v in violations:
        pairs.write_text(json.dumps([v["pair"]]))
        ctxs.write_text(json.dumps([v["context"]]))
        argv = ["congruence", CCS, "--pairs", str(pairs), "--contexts", str(ctxs), "--mutate"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        assert json.loads(out)["violations"] == [v]


def test_reports_are_deterministic(capsys):
    args = ["verify", TOY, "--suite", "cartesian", "-d", "2"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_lts_output_bytes_deterministic(capsys):
    args = ["lts", CCS, "--term", "par(pref_a_bar(nil),pref_a(nil))", "--fuel", "3"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_environment_sets_no_seed(capsys, monkeypatch):
    """Only --seed seeds a report: a GSOS_SEED in the environment, an
    integer or not, changes no byte of it."""
    argv = ["verify", CCS, "--suite", "laws", "--seed", "1", "--cases", "5", "-d", "2"]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(plain)["seed"] == 1
    for value in ("77", "abc"):
        monkeypatch.setenv("GSOS_SEED", value)
        assert run_cli(argv, capsys) == (0, plain, "")


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "gsos.cli", "lts"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", CCS, "--suite", "laws", "--cases", "abc"], "argument --cases: invalid int value"),
        (["verify", CCS], "the following arguments are required: --suite"),
        (["nope"], "argument command: invalid choice: 'nope'"),
        (["lts", CCS, "--term", "nil", "--format", "xml"], "argument --format: invalid choice"),
    ],
    ids=["cases-not-an-int", "no-suite", "unknown-command", "unknown-format"],
)
def test_argparse_refusal_is_one_json_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["kind"] == "UsageError"
    assert doc["message"].startswith(message)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gsos verify")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "gsos.cli", "check", CCS], capture_output=True, text=True
    )
    assert proc.returncode == 0


SYNC = "sync(lpar(ax(a_bar),term(var(*))),ax(a))"
RSYNC = "rsync(ax(a_bar),ax(a))"
# The system and the covering map read by the last two reports below.
REPORT_FILES = {
    "ambient.json": {
        "labels": ["a", "a_bar", "tau"],
        "states": ["u", "v", "w"],
        "edges": {
            "a": [{"id": "d1", "src": "u", "tgt": "w"}, {"id": "d2", "src": "v", "tgt": "w"}],
            "a_bar": [{"id": "c", "src": "u", "tgt": "v"}],
        },
    },
    "cover.json": {
        "dom": {
            "labels": ["a", "a_bar", "tau"],
            "states": ["u", "v", "w"],
            "edges": {
                "a": [{"id": "d1", "src": "u", "tgt": "w"}, {"id": "d2", "src": "v", "tgt": "w"}]
            },
        },
        "cod": {
            "labels": ["a", "a_bar", "tau"],
            "states": ["p", "q"],
            "edges": {"a": [{"id": "d", "src": "p", "tgt": "q"}]},
        },
        "states": {"u": "p", "v": "p", "w": "q"},
        "edges": {"a": {"d1": "d", "d2": "d"}},
    },
}
# Full stdout of `decompose` and `certify`, keyed by the command and its
# arguments after the spec (a lone argument is the --proof).  The order of
# the arity's states, edges and attach steps is part of the report, and only
# whole-output comparison pins it.
ARITY_REPORTS = {
    ("decompose", SYNC): (
        '{"arity": {"edges": {"a": [{"id": "arg1/prem0/e", "src": "occ2", '
        '"tgt": "arg1/prem0/t"}], "a_bar": [{"id": "arg0/prem0/arg0/prem0/e", '
        '"src": "occ0", "tgt": "arg0/prem0/arg0/prem0/t"}], "tau": []}, '
        '"labels": ["a", "a_bar", "tau"], "states": ["occ0", '
        '"arg0/prem0/arg0/prem0/t", "occ1", "occ2", "arg1/prem0/t"]}, '
        '"filler": {"edges": {"a": {"arg1/prem0/e": "a"}, '
        '"a_bar": {"arg0/prem0/arg0/prem0/e": "a_bar"}}, '
        '"states": {"arg0/prem0/arg0/prem0/t": "*", "arg1/prem0/t": "*", '
        '"occ0": "*", "occ1": "*", "occ2": "*"}}, "generic": false, '
        '"object": "tau", '
        '"shape": "sync(lpar[L=a_bar](ax(a_bar),term(var(*))),ax(a))"}\n'
    ),
    ("certify", SYNC): (
        '{"base": {"edges": {"a": [], "a_bar": [], "tau": []}, "labels": ["a", '
        '"a_bar", "tau"], "states": ["occ0", "occ1", "occ2"]}, '
        '"codomain": {"edges": {"a": [{"id": "arg1/prem0/e", "src": "occ2", '
        '"tgt": "arg1/prem0/t"}], "a_bar": [{"id": "arg0/prem0/arg0/prem0/e", '
        '"src": "occ0", "tgt": "arg0/prem0/arg0/prem0/t"}], "tau": []}, '
        '"labels": ["a", "a_bar", "tau"], "states": ["occ0", '
        '"arg0/prem0/arg0/prem0/t", "occ1", "occ2", "arg1/prem0/t"]}, '
        '"steps": [{"at": "occ0", "edge": "arg0/prem0/arg0/prem0/e", '
        '"label": "a_bar", "tgt": "arg0/prem0/arg0/prem0/t"}, {"at": "occ2", '
        '"edge": "arg1/prem0/e", "label": "a", "tgt": "arg1/prem0/t"}], '
        '"verified": true}\n'
    ),
    ("decompose", RSYNC): (
        '{"arity": {"edges": {"a": [{"id": "arg0/prem1/e", "src": "occ0", '
        '"tgt": "arg0/prem1/t"}], "a_bar": [{"id": "arg0/prem0/e", '
        '"src": "occ0", "tgt": "arg0/prem0/t"}], "tau": []}, "labels": ["a", '
        '"a_bar", "tau"], "states": ["occ0", "arg0/prem0/t", "arg0/prem1/t"]}, '
        '"filler": {"edges": {"a": {"arg0/prem1/e": "a"}, '
        '"a_bar": {"arg0/prem0/e": "a_bar"}}, "states": {"arg0/prem0/t": "*", '
        '"arg0/prem1/t": "*", "occ0": "*"}}, "generic": false, "object": "tau", '
        '"shape": "rsync(ax(a_bar),ax(a))"}\n'
    ),
    ("certify", RSYNC): (
        '{"base": {"edges": {"a": [], "a_bar": [], "tau": []}, "labels": ["a", '
        '"a_bar", "tau"], "states": ["occ0"]}, '
        '"codomain": {"edges": {"a": [{"id": "arg0/prem1/e", "src": "occ0", '
        '"tgt": "arg0/prem1/t"}], "a_bar": [{"id": "arg0/prem0/e", '
        '"src": "occ0", "tgt": "arg0/prem0/t"}], "tau": []}, "labels": ["a", '
        '"a_bar", "tau"], "states": ["occ0", "arg0/prem0/t", "arg0/prem1/t"]}, '
        '"steps": [{"at": "occ0", "edge": "arg0/prem0/e", "label": "a_bar", '
        '"tgt": "arg0/prem0/t"}, {"at": "occ0", "edge": "arg0/prem1/e", '
        '"label": "a", "tgt": "arg0/prem1/t"}], "verified": true}\n'
    ),
    ("decompose", "--term", "par(var(*),sum(var(*),nil))"): (
        '{"arity": {"edges": {"a": [], "a_bar": [], "tau": []}, "labels": ["a", '
        '"a_bar", "tau"], "states": ["occ0", "occ1"]}, "filler": {"edges": {}, '
        '"states": {"occ0": "*", "occ1": "*"}}, "generic": false, "object": "*", '
        '"shape": "par(var(*),sum(var(*),nil))"}\n'
    ),
    (
        "decompose",
        "--proof",
        "sync(lpar(ax(c),term(var(v))),ax(d2))",
        "--presheaf",
        "ambient.json",
    ): (
        '{"arity": {"edges": {"a": [{"id": "arg1/prem0/e", "src": "occ2", '
        '"tgt": "arg1/prem0/t"}], "a_bar": [{"id": "arg0/prem0/arg0/prem0/e", '
        '"src": "occ0", "tgt": "arg0/prem0/arg0/prem0/t"}], "tau": []}, '
        '"labels": ["a", "a_bar", "tau"], "states": ["occ0", '
        '"arg0/prem0/arg0/prem0/t", "occ1", "occ2", "arg1/prem0/t"]}, '
        '"filler": {"edges": {"a": {"arg1/prem0/e": "d2"}, '
        '"a_bar": {"arg0/prem0/arg0/prem0/e": "c"}}, '
        '"states": {"arg0/prem0/arg0/prem0/t": "v", "arg1/prem0/t": "w", '
        '"occ0": "u", "occ1": "v", "occ2": "v"}}, "generic": false, '
        '"object": "tau", '
        '"shape": "sync(lpar[L=a_bar](ax(a_bar),term(var(*))),ax(a))"}\n'
    ),
    (
        "lift",
        "--fbisim",
        "cover.json",
        "--term",
        "par(var(u),var(v))",
        "--proof",
        "rpar(term(var(p)),ax(d))",
    ): (
        '{"preimage": "rpar[L=a](term(var(u)),ax(d2))", '
        '"proof": "rpar[L=a](term(var(p)),ax(d))", "term": "par(var(u),var(v))"}\n'
    ),
}


@pytest.mark.parametrize("case", list(ARITY_REPORTS), ids="-".join)
def test_arity_report_bytes_golden(case, tmp_path, capsys):
    command, *args = case
    if len(args) == 1:
        args = ["--proof", *args]
    for name, doc in REPORT_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    args = [str(tmp_path / a) if a in REPORT_FILES else a for a in args]
    code, out, _ = run_cli([command, CCS, *args], capsys)
    assert code == 0
    assert out == ARITY_REPORTS[case]


def test_bisim_refuses_fuel_below_stratum(capsys):
    t1, t2 = "pref_a(pref_a(nil))", "pref_a(pref_tau(nil))"
    code, out, err = run_cli(
        ["bisim", CCS, "--t1", t1, "--t2", t2, "-k", "3", "--fuel", "1"], capsys
    )
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "FuelTooSmall"
    code, out, _ = run_cli(
        ["bisim", CCS, "--t1", t1, "--t2", t2, "-k", "3", "--fuel", "3"], capsys
    )
    assert code == 0 and json.loads(out)["bisimilar"] is False


DEEP = 1500


@pytest.mark.parametrize(
    "argv",
    [
        ["lts", CCS, "--term", "pref_a(" * DEEP + "nil" + ")" * DEEP, "--fuel", "1"],
        ["bisim", CCS, "--t1", "pref_a(" * DEEP + "nil" + ")" * DEEP, "--t2", "nil"],
        ["decompose", CCS, "--term", "pref_a(" * DEEP + "var(*)" + ")" * DEEP],
    ],
    ids=["lts", "bisim", "decompose"],
)
def test_deep_term_refused_with_typed_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["kind"] == "NestingTooDeep"


def _limit_address_space():
    limit = 400 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_out_of_memory_refused_with_typed_error(tmp_path):
    """Listing the terms of height 1 over an operation of arity 10^8 asks
    for a list of 10^8 argument pools, which a process held to 400 MB of
    address space cannot allocate: one JSON line, exit 1, no traceback."""
    huge = tmp_path / "huge.gsos"
    huge.write_text("labels a ; op nil : 0 ; op f : 100000000 ;\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gsos.cli", "verify", str(huge), "--suite", "cartesian", "-d", "1"],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["kind"] == "OutOfMemory"


PINNED = 300
CHAIN = "pref_a(" * PINNED + "{}" + ")" * PINNED
PROOF_CHAIN = "lpar(" * PINNED + "ax(a)" + ",term(nil))" * PINNED


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", CCS, "--term", CHAIN.format("var(*)")],
        ["decompose", CCS, "--proof", PROOF_CHAIN],
        ["certify", CCS, "--proof", PROOF_CHAIN],
        ["lts", CCS, "--term", CHAIN.format("nil"), "--fuel", "1"],
        ["bisim", CCS, "--t1", CHAIN.format("nil"), "--t2", "nil"],
        ["bisim", CCS, "--t1", CHAIN.format("nil"), "--t2", CHAIN.format("nil"), "-k", "1",
         "--fuel", "1"],
    ],
    ids=["decompose-term", "decompose-proof", "certify", "lts", "bisim", "bisim-equal-sides"],
)
def test_pinned_depth_is_answered(argv, capsys):
    """A guard on the frames each nesting level takes: at the default
    recursion limit every command answers a 300-level chain (about 330 levels
    answer at the command line, 317 under pytest, where render stops first),
    so no walk, bind included, may take one more frame per level."""
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == "", err
    json.loads(out)


CCS_LABELS = ["a", "a_bar", "tau"]


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"labels": CCS_LABELS}, "'states'"),
        (
            {
                "labels": CCS_LABELS,
                "states": ["p", "q"],
                "edges": {"a": {"id": "e", "src": "p", "tgt": "q"}},
            },
            "system.edges.a",
        ),
        ({"labels": CCS_LABELS, "states": ["p)"]}, "'p)'"),
        ({"labels": CCS_LABELS, "states": ["p"], "edgse": {}}, "system.edgse is not a field"),
        (
            {
                "labels": CCS_LABELS,
                "states": ["p", "q"],
                "edges": {"a": [{"id": "e", "src": "p", "tgt": "q", "lable": "a"}]},
            },
            "system.edges.a[0].lable is not a field",
        ),
    ],
    ids=[
        "no-states",
        "edges-not-a-list",
        "id-does-not-read-back",
        "unknown-field",
        "unknown-edge-record-field",
    ],
)
def test_malformed_system_refused_at_the_loader(doc, named, tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["decompose", CCS, "--presheaf", str(path), "--term", "var(p)"], capsys
    )
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    report = json.loads(line)
    assert report["kind"] == "MalformedSystem"
    assert named in report["message"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["lts", CCS, "--term", "nil", "--fuel", "-1"], "--fuel"),
        (["bisim", CCS, "--t1", "nil", "--t2", "nil", "-k", "-1", "--fuel", "1"], "-k/--stratum"),
        (["verify", CCS, "--suite", "laws", "-d", "-2"], "-d/--depth"),
        (["verify", CCS, "--suite", "laws", "--cases", "-3"], "--cases"),
        (["congruence", CCS, "--pairs", PAIRS, "--sample", "-5"], "--sample"),
        (["congruence", CCS, "--pairs", PAIRS, "--context-height", "-1"], "--context-height"),
    ],
    ids=["fuel", "stratum", "depth", "cases", "sample", "context-height"],
)
def test_negative_count_refused_as_usage_error(argv, option, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["kind"] == "UsageError"
    assert doc["message"].startswith(f"{option} must be non-negative")


def _zero_count_cases():
    """(argv, expected report fields) pairs: each count option at 0."""
    yield ["lts", CCS, "--term", "nil", "--fuel", "0"], {
        "states": 1, "frontier": ["nil"], "definitive": False,
    }
    yield ["bisim", CCS, "--t1", "nil", "--t2", "nil", "-k", "0", "--fuel", "0"], {
        "bisimilar": True, "blocks": [["nil"]],
    }
    for suite in _CASE_CHECKS:
        yield ["verify", CCS, "--suite", suite, "--cases", "0"], {"cases": 0, "ok": True}
    for suite in ("cartesian", *_CASE_CHECKS):
        yield ["verify", CCS, "--suite", suite, "-d", "0"], {"ok": True}
    yield ["congruence", CCS, "--pairs", PAIRS, "--sample", "0"], {"contexts": 0, "cases": []}


@pytest.mark.parametrize(
    "argv, expected",
    [pytest.param(argv, doc, id=" ".join([argv[0], *argv[2:]])) for argv, doc in _zero_count_cases()],
)
def test_zero_count_is_answered(argv, expected, capsys):
    """0 is a non-negative count like any other: the command answers it."""
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert {key: doc[key] for key in expected} == expected


def test_zero_context_height_is_the_hole_alone(capsys):
    code, out, err = run_cli(["congruence", CCS, "--pairs", PAIRS, "--context-height", "0"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["contexts"] == 1 and doc["ok"]
    assert len(doc["cases"]) == 10
    assert {case["context"] for case in doc["cases"]} == {"var(__hole__)"}


def _subcommands(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _count_option_mismatches(parser, table: dict) -> list[str]:
    """Where the int options of the parser's subcommands, bar --seed, differ
    from a table of argparse destination -> option strings joined by '/'."""
    found: dict[str, set] = {}
    for command in _subcommands(parser).values():
        for option in command._actions:
            if option.type is int and option.dest != "seed":
                found.setdefault(option.dest, set()).add("/".join(option.option_strings))
    problems = [f"{dest} is not in the table" for dest in sorted(set(found) - set(table))]
    problems += [f"{dest} is not an int option" for dest in sorted(set(table) - set(found))]
    for dest in sorted(set(found) & set(table)):
        if found[dest] != {table[dest]}:
            problems.append(f"{dest} is spelled {sorted(found[dest])}, not {table[dest]!r}")
    return problems


def test_every_count_option_is_checked():
    """A guard on the hand-written table main checks for negative counts:
    it names every int option but --seed, as the parser spells it."""
    assert _count_option_mismatches(build_parser(), _COUNT_OPTIONS) == []


def test_an_unchecked_count_option_is_found():
    """Negative control: a parser with one count option more than the table."""
    parser = build_parser()
    _subcommands(parser)["lts"].add_argument("-w", "--width", type=int, default=1)
    assert _count_option_mismatches(parser, _COUNT_OPTIONS) == ["width is not in the table"]
    table = {**_COUNT_OPTIONS, "width": "--width"}
    assert _count_option_mismatches(parser, table) == [
        "width is spelled ['-w/--width'], not '--width'"
    ]


def test_check_missing_file_is_one_io_error(tmp_path, capsys):
    code, out, err = run_cli(["check", str(tmp_path / "missing.gsos")], capsys)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["kind"] == "IOError"


def _bad_spec_argv(command: str, spec: str, missing: str) -> list[str]:
    """A minimal command line of the subcommand; every other file it names
    is missing, since the spec is refused before any is read."""
    rest = {
        "check": [],
        "lts": ["--term", "nil"],
        "bisim": ["--t1", "nil", "--t2", "nil"],
        "decompose": ["--term", "nil", "--presheaf", missing],
        "certify": ["--proof", "ax(a)", "--presheaf", missing],
        "lift": ["--fbisim", missing, "--term", "nil", "--proof", "ax(a)"],
        "verify": ["--suite", "laws"],
        "congruence": ["--pairs", missing],
    }[command]
    return [command, spec, *rest]


@pytest.mark.parametrize("spec_kind", ["non-gsos", "missing"])
@pytest.mark.parametrize("command", sorted(_subcommands(build_parser())))
def test_every_subcommand_refuses_a_bad_spec_as_check_does(command, spec_kind, tmp_path, capsys):
    """main parses the spec once, before any subcommand reads its inputs:
    each refuses a non-GSOS spec or a missing spec file with check's lines."""
    spec = tmp_path / "spec.gsos"
    if spec_kind == "non-gsos":
        spec.write_text(NON_GSOS_SPEC)
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(_bad_spec_argv(command, str(spec), missing), capsys)
    assert (code, out) == (1, "")
    assert run_cli(["check", str(spec)], capsys) == (1, "", err)
    (line,) = err.splitlines()
    assert json.loads(line)["kind"] == {"non-gsos": "NonGsosSource", "missing": "IOError"}[spec_kind]


@pytest.mark.parametrize(
    "option, text, named",
    [
        ("--pairs", "not json", "--pairs is not a JSON document"),
        ("--pairs", '{"a":1}', "--pairs must be a JSON list of [t1, t2] string pairs"),
        ("--pairs", '[["nil"]]', "--pairs must be a JSON list of [t1, t2] string pairs"),
        ("--pairs", "[[1,2]]", "--pairs must be a JSON list of [t1, t2] string pairs"),
        ("--contexts", '["par(hole,nil)", 3]', "--contexts must be a JSON list of strings"),
    ],
    ids=[
        "pairs-not-json", "pairs-object", "pairs-short", "pairs-not-strings", "contexts-not-strings"
    ],
)
def test_malformed_pairs_or_contexts_refused(option, text, named, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    files = {"--pairs": PAIRS, "--contexts": None}
    files[option] = str(path)
    argv = ["congruence", CCS, "--pairs", files["--pairs"]]
    if files["--contexts"]:
        argv += ["--contexts", files["--contexts"]]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    report = json.loads(line)
    assert report["kind"] == "MalformedSystem"
    assert report["message"].startswith(named)


def _system_file(tmp_path, labels):
    from gsos.presheaf import LabelSet, make_presheaf, presheaf_doc

    label = labels[0]
    L = LabelSet(tuple(labels))
    X = make_presheaf(L, ("p", "q"), [(label, "d", "p", "q")])
    path = tmp_path / "system.json"
    path.write_text(json.dumps(presheaf_doc(X)))
    return str(path)


def _morphism_file(tmp_path, labels):
    from gsos.presheaf import LabelSet, make_presheaf, morphism

    label = labels[0]
    L = LabelSet(tuple(labels))
    X = make_presheaf(L, ("u", "w"), [(label, "d1", "u", "w")])
    Y = make_presheaf(L, ("p", "q"), [(label, "d", "p", "q")])
    f = morphism(X, Y, {"u": "p", "w": "q"}, {label: {"d1": "d"}})
    path = tmp_path / "f.json"
    path.write_text(morphism_to_json(f))
    return str(path)


@pytest.mark.parametrize("command", ["decompose", "certify", "lift"])
def test_system_over_foreign_labels_refused(command, tmp_path, capsys):
    if command == "lift":
        files = ["--fbisim", _morphism_file(tmp_path, ["zzz"]), "--term", "var(u)"]
    else:
        files = ["--presheaf", _system_file(tmp_path, ["zzz"])]
    code, out, err = run_cli([command, CCS, *files, "--proof", "ax(d)"], capsys)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    report = json.loads(line)
    assert report["kind"] == "UnknownLabel"
    assert "'zzz'" in report["message"]


def test_system_over_reordered_spec_labels_accepted(tmp_path, capsys):
    path = _system_file(tmp_path, ["tau", "a_bar", "a"])
    code, out, _ = run_cli(["decompose", CCS, "--presheaf", path, "--proof", "ax(d)"], capsys)
    assert code == 0
    assert json.loads(out)["filler"]["edges"] == {"tau": {"e": "d"}}
