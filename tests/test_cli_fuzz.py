"""Fuzz the option values of the CLI, never the shape of the command line.

Whatever the spec text, term or proof text, or system document, ``main``
must return 0, 1 or 2, and everything it writes to stderr must be JSON
lines that each name a ``kind``: a refusal is typed, never a traceback.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsos.cli import main
from gsos.presheaf import terminal
from gsos.terms import ambient_axioms, derive, parse_term, render
from round_trips import bundled_spec_path, load_bundled_spec

CCS = str(bundled_spec_path("ccs"))
CCS_TEXT = bundled_spec_path("ccs").read_text()
# Whitespace and comments are kept as they are, so a mutation touches one
# token of the spec and leaves the rest lexing as before.
TOKENS = re.findall(r"\s+|#[^\n]*|-\[|\]->|\w+|\S", CCS_TEXT)
POSITIONS = [i for i, tok in enumerate(TOKENS) if tok.strip() and not tok.startswith("#")]
POOL = sorted({TOKENS[i] for i in POSITIONS})
# Swapping one name for another keeps many mutants parsing, so that
# validation and the commands behind it are reached too.
KEYWORDS = {"labels", "class", "op", "rule", "forall", "in", "premises", "conclusion"}
SPEC_NAMES = [t for t in POOL if t.isidentifier() and t not in KEYWORDS]

_ccs = load_bundled_spec("ccs")
NAMES = sorted(
    {op for op, _ in _ccs.signature.operations}
    | {r.name for r in _ccs.rules}
    | {r.base_name for r in _ccs.rules}
    | set(_ccs.labels)
    | {"var", "ax", "term", "hole", "*", "s0", "e0"}
)
_one = terminal(_ccs.labels)
_seeds = [
    parse_term(_ccs, _one, t)
    for t in ("par(var(*),bang(var(*)))", "sum(pref_a(nil),var(*))", "par(pref_a(nil),bang(nil))")
]
# Terms and proofs over the one-state system, which the CLI reads by default.
VALID = [render(t) for t in _seeds] + [
    render(p) for t in _seeds for p, _ in derive(_ccs, t, ambient_axioms(_one))
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    for line in err.getvalue().splitlines():
        doc = json.loads(line)
        assert isinstance(doc, dict) and "kind" in doc, (argv, line)
    return code


_mutation = st.tuples(
    st.sampled_from(["delete", "replace", "insert", "rename"]),
    st.sampled_from(POSITIONS),
    st.sampled_from(POOL),
    st.integers(min_value=0),
)


@settings(max_examples=30, deadline=None)
@given(mutations=st.lists(_mutation, min_size=1, max_size=2))
def test_mutated_specs_are_refused_or_answered(workdir, mutations):
    tokens = list(TOKENS)
    for kind, pos, tok, pick in mutations:
        if kind == "delete":
            tokens[pos] = ""
        elif kind == "replace":
            tokens[pos] = tok
        elif kind == "insert":
            tokens[pos] = f"{tokens[pos]} {tok}"
        elif tokens[pos] in SPEC_NAMES:
            tokens[pos] = SPEC_NAMES[pick % len(SPEC_NAMES)]
    spec = workdir / "mutated.gsos"
    spec.write_text("".join(tokens))
    run(["check", str(spec)])
    run(["lts", str(spec), "--term=par(pref_a(nil),bang(sum(nil,nil)))", "--fuel", "1"])
    run(["verify", str(spec), "--suite", "laws", "--cases", "2", "-d", "1"])


_soup = st.lists(st.sampled_from(NAMES + list("()[],")), max_size=12).map("".join)
# Applications of names to arguments: text shaped like terms and proofs,
# of which some are well formed.
_shaped = st.recursive(
    st.sampled_from(NAMES + ["var(*)", "ax(a)", "ax(tau)", "term(nil)", "term(var(*))"]),
    lambda inner: st.tuples(st.sampled_from(NAMES), st.lists(inner, max_size=3)).map(
        lambda app: f"{app[0]}({','.join(app[1])})"
    ),
    max_leaves=6,
)


def _overwrite(text, edits):
    for pos, piece in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + piece + text[i + 1 :]
    return text


# Valid text with up to two characters overwritten by a name, a bracket or
# nothing.
_edited = st.builds(
    _overwrite,
    st.sampled_from(VALID),
    st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(NAMES + list("()[],") + [""])), max_size=2),
)


_text = _soup | _shaped | _edited


@settings(max_examples=50, deadline=None)
@given(text=_text)
def test_term_and_proof_text_is_refused_or_answered(text):
    run(["lts", CCS, f"--term={text}", "--fuel", "1"])
    run(["decompose", CCS, f"--term={text}"])
    run(["decompose", CCS, f"--proof={text}"])
    run(["certify", CCS, f"--proof={text}"])


_ids = st.sampled_from(["s0", "s1", "e0", "e1", "*", "", "(", "x)"])
_states = st.sampled_from(["s0", "s1"]) | _ids
_labels = st.sampled_from(["a", "a_bar", "tau", "b"])
_edge = st.fixed_dictionaries(
    {"id": st.sampled_from(["e0", "e1"]) | _ids, "src": _states, "tgt": _states}
)
_system = st.fixed_dictionaries(
    {
        "labels": st.sampled_from([["a", "a_bar", "tau"], ["tau", "a_bar", "a"]])
        | st.lists(_labels, max_size=4),
        "states": st.sampled_from([["s0", "s1"]]) | st.lists(_states, max_size=3),
        "edges": st.dictionaries(_labels, st.lists(_edge, max_size=2), max_size=3),
    }
)
# Systems over the spec's labels with edges between two states: some are
# well formed, the others collide on an edge id.
_ccs_system = st.fixed_dictionaries(
    {
        "labels": st.just(["a", "a_bar", "tau"]),
        "states": st.just(["s0", "s1"]),
        "edges": st.dictionaries(
            st.sampled_from(["a", "a_bar", "tau"]),
            st.lists(
                st.fixed_dictionaries(
                    {
                        "id": st.sampled_from(["e0", "e1", "e2"]),
                        "src": st.sampled_from(["s0", "s1"]),
                        "tgt": st.sampled_from(["s0", "s1"]),
                    }
                ),
                max_size=2,
            ),
        ),
    }
)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | _ids,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["labels", "states", "edges", "id", "src"]), inner, max_size=3),
    max_leaves=10,
)


@settings(max_examples=50, deadline=None)
@given(doc=_ccs_system | _system | _json)
def test_presheaf_documents_are_refused_or_answered(workdir, doc):
    system = workdir / "system.json"
    system.write_text(json.dumps(doc))
    run(["decompose", CCS, "--term=par(var(s0),nil)", "--presheaf", str(system)])
    run(["decompose", CCS, "--proof=lpar(ax(e0),term(var(s1)))", "--presheaf", str(system)])
    run(["certify", CCS, "--proof=ax(e0)", "--presheaf", str(system)])
