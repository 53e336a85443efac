"""bind, the one Kleisli extension, against the walks it replaced.

mu, map_leaves, to_terminal and T(f) are each one call to ``terms.bind``.
(Substitution into a rule target, once a fifth, is now the rule's
compiled plan, which ``test_terms.py`` checks against oracles built on
``old_substitute``.)  The recursions they were before are kept in
``tests/oracles.py``; seeded elements of levels 1-3 over random systems, for
ccs and toy, go through both sides, which must build equal elements or
refuse with the same MalformedProof.  The Kleisli laws are checked on the
same elements, and a bind that swaps the first two arguments of an
operation is caught.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsos import terms
from gsos.errors import MalformedProof
from gsos.familial import random_collapse
from gsos.presheaf import STAR
from gsos.terms import (
    App,
    Axiom,
    Node,
    T_on_element,
    Var,
    map_leaves,
    mu,
    random_layer_element,
    random_presheaf,
    to_terminal,
)
from oracles import old_map_leaves, old_mu
from round_trips import load_bundled_spec

SPECS = {name: load_bundled_spec(name) for name in ("ccs", "toy")}


def _outcome(f, *args):
    """What f returns, or the message of the MalformedProof it raises."""
    try:
        return f(*args)
    except MalformedProof as exc:
        return ("MalformedProof", str(exc))


def _kleisli_maps(spec):
    """Two leaf maps that build real structure: a variable becomes the widest
    operation over distinct fresh variables, an axiom a node of a rule with
    premises over fresh axioms and variables."""
    op, n = max(spec.operations, key=lambda o: o[1])
    rule = next(r for r in spec.rules if any(r.premise_counts))
    on_var = lambda x: App(op, tuple(Var((x, i)) for i in range(n)))

    def on_ax(p, a):
        args = []
        for i, labels in enumerate(rule.premise_labels):
            if labels:
                args.append(tuple(Axiom((p, a, i, j), b) for j, b in enumerate(labels)))
            else:
                args.append(Var((p, a, i)))
        return Node(rule, tuple(args))

    return on_var, on_ax


def _mismatches(name: str, seed: int, level: int, kind: str) -> list[str]:
    """The checks that fail on the elements drawn from the seed: each
    bind-backed map against its oracle, then the Kleisli laws."""
    spec = SPECS[name]
    rng = random.Random(seed)
    X = random_presheaf(rng, spec.labels, max_states=4)
    elem = random_layer_element(spec, X, rng, level, 2, kind)
    _Y, f = random_collapse(X, rng)
    labels = list(spec.labels)
    shift = dict(zip(labels, labels[1:] + labels[:1]))
    mislabelled = terms.bind(elem, Var, lambda e, a: Axiom(e, shift[a]))
    T_f = lambda z: T_on_element(f, z)
    T_f_old = lambda z: old_map_leaves(z, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e])
    for _ in range(level - 1):  # T(f) one layer up moves each payload along T(f)
        T_f = lambda z, inner=T_f: map_leaves(z, inner, lambda p, _a: inner(p))
        T_f_old = lambda z, inner=T_f_old: old_map_leaves(z, inner, lambda p, _a: inner(p))

    pairs = {
        "mu": (mu, old_mu, elem),
        "mu of a mislabelled element": (mu, old_mu, mislabelled),
        "to_terminal": (
            to_terminal,
            lambda z: old_map_leaves(z, lambda _x: STAR, lambda _e, a: a),
            elem,
        ),
        "T(eta)": (
            lambda z: map_leaves(z, Var, Axiom),
            lambda z: old_map_leaves(z, Var, Axiom),
            elem,
        ),
        "T(f)": (T_f, T_f_old, elem),
    }
    failed = [what for what, (new, old, z) in pairs.items() if _outcome(new, z) != _outcome(old, z)]

    bind = terms.bind
    f1, g1 = _kleisli_maps(spec)
    f2, g2 = (lambda x: Var(("f2", x))), (lambda p, a: Axiom(("g2", p), a))
    if bind(elem, Var, Axiom) != elem:
        failed.append("right unit")
    if bind(Var(elem), f1, g1) != f1(elem) or bind(Axiom(elem, "a"), f1, g1) != g1(elem, "a"):
        failed.append("left unit")
    lhs = bind(bind(elem, f1, g1), f2, g2)
    rhs = bind(elem, lambda x: bind(f1(x), f2, g2), lambda p, a: bind(g1(p, a), f2, g2))
    if lhs != rhs:
        failed.append("associativity")
    return failed


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    level=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["term", "proof"]),
)
def test_bind_agrees_with_the_old_walks_and_keeps_the_kleisli_laws(name, seed, level, kind):
    assert _mismatches(name, seed, level, kind) == []


def test_a_bind_that_swaps_arguments_is_caught(monkeypatch):
    """Negative control: a bind that swaps the first two arguments of every
    operation node fails each oracle comparison and the unit law."""
    real = terms.bind

    def swapping(elem, on_var, on_ax):
        if isinstance(elem, App) and len(elem.args) >= 2:
            elem = App(elem.op, (elem.args[1], elem.args[0], *elem.args[2:]))
        return real(elem, on_var, on_ax)

    monkeypatch.setattr(terms, "bind", swapping)
    found = set()
    for seed in range(40):
        for level in (1, 2):
            for kind in ("term", "proof"):
                found.update(_mismatches("ccs", seed, level, kind))
    assert {
        "mu",
        "to_terminal",
        "T(eta)",
        "T(f)",
        "right unit",
    } <= found
