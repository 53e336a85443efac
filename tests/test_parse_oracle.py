"""The one-pass reader against the split-and-rescan parser it replaced.

The oracle below is the parser as it was: each nesting level scans its
body to the closing parenthesis, splits it into argument strings and
parses each again, and a multi-premise argument compares the premises'
sources by recomputing them with ``proof_source``.  Where it takes
``hole``, it also takes the hole as a report prints it, ``var(__hole__)``.
Wherever the oracle accepts a text, the reader must build the same
element; wherever it refuses one, the reader must refuse it with a
``GsosError`` (the kind may differ, because the reader meets the faults
of a text left to right).
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsos import terms
from gsos.bisim import enumerate_contexts
from gsos.errors import GsosError, MalformedProof, UnknownOperation, UnknownState
from gsos.presheaf import make_presheaf, terminal
from gsos.specdsl import parse_spec
from gsos.terms import (
    HOLE,
    App,
    Axiom,
    Node,
    Var,
    parse_proof,
    parse_term,
    proof_source,
    random_layer_element,
    random_presheaf,
    render,
)
from round_trips import load_bundled_spec

from test_cli_fuzz import _edited, _overwrite, _shaped, _soup
from test_terms import MULTI_VARIABLE_SPEC


def _scan_ident(text, i):
    j = i
    while j < len(text) and (text[j].isalnum() or text[j] == "_"):
        j += 1
    if j < len(text) and text[j] == "[":
        depth = 0
        while j < len(text):
            if text[j] == "[":
                depth += 1
            elif text[j] == "]":
                depth -= 1
                if depth == 0:
                    j += 1
                    break
            j += 1
    return text[i:j], j


def _scan_balanced(text, i):
    depth, j = 1, i
    while j < len(text):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[i:j].strip(), j
        j += 1
    raise MalformedProof(f"unbalanced parentheses in {text!r}")


def _split_args(body):
    args, depth, square, start = [], 0, 0, 0
    for i, ch in enumerate(body):
        if ch in "()":
            depth += 1 if ch == "(" else -1
        elif ch in "[]" and depth == 0:
            square += 1 if ch == "[" else -1
        elif ch == "," and depth == square == 0:
            args.append(body[start:i].strip())
            start = i + 1
    if body.strip():
        args.append(body[start:].strip())
    return args


def old_parse_term(spec, X, text, allow_hole=False):
    text = text.strip()
    head, i = _scan_ident(text, 0)
    if not head:
        raise MalformedProof(f"cannot parse term {text!r}")
    if head == "hole":
        if i != len(text) or not allow_hole:
            raise MalformedProof(f"unexpected hole in {text!r}")
        return Var(HOLE)
    if head == "var":
        if i >= len(text) or text[i] != "(":
            raise MalformedProof(f"var needs a payload in {text!r}")
        payload, j = _scan_balanced(text, i + 1)
        if j + 1 != len(text):
            raise MalformedProof(f"trailing input after {text!r}")
        if allow_hole and payload == HOLE:
            return Var(HOLE)
        if X is None:
            raise UnknownState(f"variable {payload!r} in a closed-term position")
        if payload not in X.state_set:
            raise UnknownState(f"{payload!r} is not an ambient state")
        return Var(payload)
    if head in spec.arities:
        arity = spec.arities[head]
        if i == len(text):
            args_text = []
        elif text[i] == "(":
            body, j = _scan_balanced(text, i + 1)
            if j + 1 != len(text):
                raise MalformedProof(f"trailing input after {text!r}")
            args_text = _split_args(body)
        else:
            raise MalformedProof(f"cannot parse term {text!r}")
        if len(args_text) != arity:
            raise UnknownOperation(f"{head!r} expects {arity} arguments, got {len(args_text)}")
        return App(head, tuple(old_parse_term(spec, X, a, allow_hole) for a in args_text))
    raise UnknownOperation(f"unknown operation {head!r} in {text!r}")


def old_parse_proof(spec, X, text):
    text = text.strip()
    head, i = _scan_ident(text, 0)
    if not head:
        raise MalformedProof(f"cannot parse proof {text!r}")
    if head == "ax":
        if i >= len(text) or text[i] != "(":
            raise MalformedProof(f"ax needs a payload in {text!r}")
        payload, j = _scan_balanced(text, i + 1)
        if j + 1 != len(text):
            raise MalformedProof(f"trailing input after {text!r}")
        return Axiom(payload, X.label_of(payload))
    if i == len(text):
        args_text = []
    elif text[i] == "(":
        body, j = _scan_balanced(text, i + 1)
        if j + 1 != len(text):
            raise MalformedProof(f"trailing input after {text!r}")
        args_text = _split_args(body)
    else:
        raise MalformedProof(f"cannot parse proof {text!r}")
    parsed = []
    for a in args_text:
        if a.startswith("term(") or a.startswith("term ("):
            inner, j = _scan_balanced(a, a.index("(") + 1)
            if j + 1 != len(a):
                raise MalformedProof(f"trailing input after {a!r}")
            parsed.append(("term", old_parse_term(spec, X, inner)))
        else:
            parsed.append(("proof", old_parse_proof(spec, X, a)))
    candidates = [r for r in spec.rules if r.name == head]
    if not candidates:
        candidates = [r for r in spec.rules if r.base_name == head]
    if not candidates:
        raise MalformedProof(f"unknown rule {head!r}")
    matches = []
    for rule in candidates:
        grouped = _group_args(rule, parsed)
        if grouped is not None:
            matches.append(Node(rule, grouped))
    if not matches:
        raise MalformedProof(f"no expansion of rule {head!r} matches {text!r}")
    if len(matches) > 1:
        raise MalformedProof(f"rule name {head!r} is ambiguous for {text!r}")
    node = matches[0]
    for i, arg in enumerate(node.args):
        if isinstance(arg, tuple) and len(arg) > 1 and len({proof_source(X, r) for r in arg}) > 1:
            raise MalformedProof(
                f"rule {node.rule.name!r}: premises of argument {i + 1} disagree on source"
            )
    return node


def _group_args(rule, parsed):
    groups = []
    k = 0
    for labels_i in rule.premise_labels:
        if not labels_i:
            if k >= len(parsed) or parsed[k][0] != "term":
                return None
            groups.append(parsed[k][1])
            k += 1
            continue
        chunk = []
        for want in labels_i:
            if k >= len(parsed) or parsed[k][0] != "proof":
                return None
            r = parsed[k][1]
            if r.label != want:
                return None
            chunk.append(r)
            k += 1
        groups.append(tuple(chunk))
    if k != len(parsed):
        return None
    return tuple(groups)


def assert_reads_as_oracle(read, old_read, *args):
    """The same element where the oracle accepts; a GsosError where it refuses."""
    try:
        want = old_read(*args)
    except GsosError:
        with pytest.raises(GsosError):
            read(*args)
        return
    got = read(*args)
    assert got == want, args[-1]
    assert render(got) == render(want)


def assert_all_readings_match(spec, X, text):
    assert_reads_as_oracle(parse_proof, old_parse_proof, spec, X, text)
    for Y in (X, None):
        for allow_hole in (False, True):
            assert_reads_as_oracle(parse_term, old_parse_term, spec, Y, text, allow_hole)


CCS = load_bundled_spec("ccs")
ONE = terminal(CCS.labels)
MULTI = parse_spec(MULTI_VARIABLE_SPEC)
# Ids with unbalanced square brackets, which read back as payloads.
BRACKETS = make_presheaf(CCS.labels, ("a[b", "c]"), [("a", "e]", "a[b", "c]")])
BRACKET_TEXTS = ["par(var(a[b),var(c]))", "lpar[L=a](ax(e]),term(var(c])))", "lpar(ax(e]),term(var(a[b)))"]
_blanks = st.sampled_from(["", " ", "  ", "\t", "\n"])


def _blanked(text, spots):
    """Blanks put before the characters at the given spots."""
    for pos, blank in sorted(spots, reverse=True):
        i = pos % (len(text) + 1)
        text = text[:i] + blank + text[i:]
    return text


_spots = st.lists(st.tuples(st.integers(min_value=0), _blanks), max_size=3)


@settings(max_examples=300, deadline=None)
@given(text=_soup | _shaped | _edited, spots=_spots)
def test_fuzzed_text_reads_as_the_oracle(text, spots):
    assert_all_readings_match(CCS, ONE, text)
    assert_all_readings_match(CCS, ONE, _blanked(text, spots))


_edits = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from(["(", ")", "[", "]", ",", "", " ", "nil", "var", "ax"])),
    max_size=2,
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    level=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["term", "proof"]),
    edits=_edits,
)
def test_rendered_layer_elements_read_as_the_oracle(seed, level, kind, edits):
    rng = random.Random(seed)
    X = random_presheaf(rng, CCS.labels, max_states=4)
    text = render(random_layer_element(CCS, X, rng, level, 3, kind))
    assert_all_readings_match(CCS, X, text)
    assert_all_readings_match(CCS, X, _overwrite(text, edits))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), kind=st.sampled_from(["term", "proof"]))
def test_multi_variable_rule_names_read_as_the_oracle(seed, kind):
    """Expanded names over two label variables, and their bare template
    names, which resolve only when the premise labels pick one expansion."""
    rng = random.Random(seed)
    X = random_presheaf(rng, MULTI.labels, max_states=3)
    text = render(random_layer_element(MULTI, X, rng, 1, 3, kind))
    assert_all_readings_match(MULTI, X, text)
    assert_all_readings_match(MULTI, X, re.sub(r"\[[^\]]*\]", "", text))


@settings(max_examples=60, deadline=None)
@given(text=st.sampled_from(BRACKET_TEXTS), edits=_edits)
def test_bracket_ids_read_as_the_oracle(text, edits):
    assert_all_readings_match(CCS, BRACKETS, text)
    assert_all_readings_match(CCS, BRACKETS, _overwrite(text, edits))


@pytest.mark.parametrize(
    "text",
    [
        "nil()",
        "nil( )",
        " par( nil ,\tnil ) ",
        "par (nil,nil)",
        "lpar(ax(a),term (nil))",
        "lpar(ax(a),term  (nil))",
        "lpar(ax(a),term\t(nil))",
        "lpar(ax(a),term( var( * ) ))",
        "par(var(*)],nil)",
        "par(nil[,nil)",
        "nil[",
        "lpar(ax(a),term(nil)",
        "rsync(ax(a_bar),ax(a)) x",
        "bang(hole)",
        "var(__hole__)",
        "par(var( __hole__ ),nil)",
        "lpar(ax(a),term(var(__hole__)))",
        "",
        "par(,nil)",
        "term(nil)",
    ],
)
def test_quirks_read_as_the_oracle(text):
    assert_all_readings_match(CCS, ONE, text)


def _raise(*_args):
    raise AssertionError("the reader recomputed a source")


def test_premises_are_compared_by_the_sources_their_reads_built(monkeypatch, sync_ambient):
    monkeypatch.setattr(terms, "proof_source", _raise)
    chain = "lpar[L=tau](" * 20 + "rsync(ax(a_bar),ax(a))" + ",term(var(*)))" * 20
    sync = "sync(lpar[L=a_bar](ax(a_bar),term(var(*))),rpar[L=a](term(var(*)),ax(a)))"
    for text in (chain, sync, f"lpar[L=tau]({sync},term(nil))"):
        assert render(parse_proof(CCS, ONE, text)) == text
    # e1 starts at x1 and e2 at x3: still refused, without proof_source
    with pytest.raises(MalformedProof, match="disagree on source"):
        parse_proof(CCS, sync_ambient, "rsync(ax(e1),ax(e2))")


def _chain_depth(elem):
    """How many nodes deep the first argument chain runs."""
    depth = 0
    while isinstance(elem, (App, Node)) and elem.args:
        first = elem.args[0]
        elem = first[0] if isinstance(first, tuple) else first
        depth += 1
    return depth


def test_deep_chains_are_read():
    """One frame per nesting level: the reader takes the depths the
    split-and-rescan parser took (it read 496 and 992 levels at the default
    recursion limit outside a test runner)."""
    par = "par(" * 450 + "nil" + ",nil)" * 450
    assert _chain_depth(parse_term(CCS, None, par)) == 450
    lpar = "lpar(" * 800 + "ax(a)" + ",term(nil))" * 800
    assert _chain_depth(parse_proof(CCS, ONE, lpar)) == 800


def test_printed_contexts_read_back():
    """Every context of height <= 3 reads back from its printed form, whose
    hole is var(__hole__); outside a context that form stays refused."""
    contexts = enumerate_contexts(CCS, 3)
    assert len(contexts) == 1313
    for c in contexts:
        assert parse_term(CCS, None, render(c), allow_hole=True) == c
    with pytest.raises(UnknownState, match="closed-term position"):
        parse_term(CCS, None, "par(var(__hole__),nil)")
