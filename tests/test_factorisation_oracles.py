"""Factorisations read off one walk, and composites compared cell by cell,
against the code they replace.

A decomposition keeps the walk that named its arity's cells; its arity
morphisms, its generic edges and the certificate of its shape are read off
that record.  The oracle is the old path, which walked ``to_terminal(elem)``
again for each of them and glued a fresh arity each time; it is copied
here with its own walk, so a slip in the shared walk shows too.  Systems are
compared through ``presheaf_doc``, which keeps declaration order, because
the certificate report prints the arity in that order.

``commutes(g, f, h, k)`` answers ``compose(g, f) == compose(h, k)`` without
building either composite; ``compose`` is its oracle.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsos.cellular
import gsos.familial
from gsos.cellular import cell_certificate, preserve_bisim_lift, random_functional_bisim
from gsos.errors import NonCommutingSquare
from gsos.familial import (
    arity_label,
    arity_tgt_morphism,
    decompose,
    generic_decomposition,
    generic_edges,
    random_collapse,
    recompose,
)
from gsos.presheaf import _map, _system, commutes, compose, identity, presheaf_doc, terminal
from gsos.terms import (
    App,
    Axiom,
    T_on_element,
    Var,
    ambient_axioms,
    derive,
    proof_depth,
    proof_target,
    random_layer_element,
    random_presheaf,
    random_term,
    rule_binding,
    term_vars,
    to_terminal,
    truncated_free,
)

# ---------------------------------------------------------------------------
# The old path: one fresh walk of the shape per reader.


def _old_walk(elem):
    leaves = []

    def go(e, prefix, offset):
        if isinstance(e, Var):
            leaves.append((e, (f"occ{offset}",)))
            return 1, []
        if isinstance(e, Axiom):
            leaves.append((e, (f"occ{offset}", prefix + "e", prefix + "t")))
            return 1, [prefix + "t"]
        n = 0
        if isinstance(e, App):
            for child in e.args:
                n += go(child, prefix, offset + n)[0]
            return n, []
        xs, ys = [], []
        for i, arg in enumerate(e.args):
            if isinstance(arg, tuple):
                prems = [
                    go(prem, f"{prefix}arg{i}/prem{j}/", offset + n) for j, prem in enumerate(arg)
                ]
                ys.append([route for _n, route in prems])
                n_i = prems[0][0]
            else:
                ys.append([])
                n_i = go(arg, prefix, offset + n)[0]
            xs.append([f"occ{offset + n + k}" for k in range(n_i)])
            n += n_i
        bound = rule_binding(xs, ys)
        return n, [c for v in term_vars(e.rule.target) for c in bound[v]]

    n, route = go(elem, "", 0)
    return leaves, n, route


def _old_points(labels, n):
    return _system(labels, [f"occ{k}" for k in range(n)], ())


def _old_carrier(labels, leaves):
    states, arrows = {}, []
    for leaf, cells in leaves:
        states[cells[0]] = None
        if isinstance(leaf, Axiom):
            occ, e, t = cells
            states[t] = None
            arrows.append((leaf.label, e, occ, t))
    return _system(labels, states, arrows)


def _old_arity_label(labels, r):
    leaves, n, _route = _old_walk(r)
    dom = _old_points(labels, n)
    return _map(dom, _old_carrier(labels, leaves), {x: x for x in dom.states})


def _old_arity_tgt_morphism(labels, r):
    leaves, _n, route = _old_walk(r)
    dom = _old_points(labels, len(term_vars(proof_target(terminal(labels), r))))
    assert len(route) == len(dom.states)
    return _map(dom, _old_carrier(labels, leaves), {f"occ{k}": c for k, c in enumerate(route)})


def _old_generic_edges(r):
    return [(leaf.label, *cells) for leaf, cells in _old_walk(r)[0] if isinstance(leaf, Axiom)]


def _old_arity(labels, elem):
    return _old_carrier(labels, _old_walk(elem)[0])


def _same_map(new, old):
    """Equal as maps, with both end systems equal in declaration order."""
    assert presheaf_doc(new.dom) == presheaf_doc(old.dom)
    assert presheaf_doc(new.cod) == presheaf_doc(old.cod)
    for o in old.dom.labels.objects:
        assert {c: new.at(o)[c] for c in new.dom.cells(o)} == {
            c: old.at(o)[c] for c in old.dom.cells(o)
        }


# ---------------------------------------------------------------------------
# Readers of a decomposition against the old re-walk.


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["term", "proof"]), depth=st.integers(1, 3))
def test_decomposition_readers_match_the_rewalk(ccs, seed, kind, depth):
    rng = random.Random(seed)
    X = random_presheaf(rng, ccs.labels, max_states=4)
    elem = random_layer_element(ccs, X, rng, 1, depth, kind)
    dec = decompose(X, elem)
    shape = to_terminal(elem)
    assert presheaf_doc(dec.arity) == presheaf_doc(_old_arity(ccs.labels, shape))
    assert recompose(dec, X) == elem
    if kind == "term":
        return
    _same_map(dec.source_morphism(), _old_arity_label(ccs.labels, shape))
    _same_map(dec.target_morphism(), _old_arity_tgt_morphism(ccs.labels, shape))
    assert dec.generic_edges() == _old_generic_edges(shape)
    # the public readers of a bare shape read one walk of it, the same way
    _same_map(arity_label(ccs.labels, shape), _old_arity_label(ccs.labels, shape))
    _same_map(arity_tgt_morphism(ccs.labels, shape), _old_arity_tgt_morphism(ccs.labels, shape))
    assert generic_edges(shape) == _old_generic_edges(shape)
    cert = cell_certificate(ccs.labels, shape)
    assert [s.to_dict() for s in cert.steps] == [
        dict(zip(("label", "at", "edge", "tgt"), step)) for step in _old_generic_edges(shape)
    ]
    _same_map(cert.claimed_composite, _old_arity_label(ccs.labels, shape))
    generic = generic_decomposition(ccs.labels, shape)
    assert generic.filler.is_iso() and generic.shape == shape


def test_readers_match_the_rewalk_on_every_shape_of_depth_two(ccs):
    """Every proof shape of the depth-2 window over 1, so shapes with
    several generic edges (rare in random draws) are all met."""
    one = terminal(ccs.labels)
    shapes = truncated_free(ccs, one, 2)[2].values()
    for shape in shapes:
        dec = decompose(one, shape)
        assert presheaf_doc(dec.arity) == presheaf_doc(_old_arity(ccs.labels, shape))
        _same_map(dec.source_morphism(), _old_arity_label(ccs.labels, shape))
        _same_map(dec.target_morphism(), _old_arity_tgt_morphism(ccs.labels, shape))
        assert dec.generic_edges() == _old_generic_edges(shape)
        steps = [s.to_dict() for s in cell_certificate(ccs.labels, shape).steps]
        assert steps == [
            dict(zip(("label", "at", "edge", "tgt"), step)) for step in _old_generic_edges(shape)
        ]
    assert sum(len(_old_generic_edges(shape)) > 1 for shape in shapes) > 50


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_certificate_from_a_decomposition_matches_the_rewalk(ccs, seed):
    """The certificate preserve_bisim_lift builds from dec_r, against the
    one cell_certificate built from a fresh walk of its shape."""
    rng = random.Random(seed)
    f = random_functional_bisim(rng, ccs.labels)
    M = random_term(ccs, rng, f.dom.states, 2)
    for R, _ in derive(ccs, T_on_element(f, M), ambient_axioms(f.cod)):
        if proof_depth(R) > 2:
            continue
        dec_r = decompose(f.cod, R)
        cert = gsos.cellular._certificate(dec_r)
        assert cert.to_dict() == cell_certificate(ccs.labels, dec_r.shape).to_dict()
        _same_map(cert.claimed_composite, _old_arity_label(ccs.labels, dec_r.shape))


# ---------------------------------------------------------------------------
# commutes against compose.


def _alter_one_cell(rng, m):
    """m with one cell sent elsewhere in the codomain, if it has a choice."""
    spots = [
        (o, c)
        for o in m.dom.labels.objects
        for c in m.dom.cells(o)
        if len(m.cod.cells(o)) > 1
    ]
    if not spots:
        return None
    o, c = rng.choice(spots)
    other = rng.choice([x for x in m.cod.cells(o) if x != m.at(o)[c]])
    components = {p: dict(m.at(p)) for p in m.dom.labels.objects}
    components[o][c] = other
    return _map(m.dom, m.cod, components["*"], components)


def _compare_by_compose(g, f, h, k=None):
    left = compose(g, f)
    return left == (h if k is None else compose(h, k))


def _outcome(check, *maps):
    try:
        return check(*maps)
    except NonCommutingSquare as exc:
        return ("raised", str(exc))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_commutes_agrees_with_compose(ccs, seed):
    rng = random.Random(seed)
    X = random_presheaf(rng, ccs.labels, max_states=4)
    B, u = random_collapse(X, rng)
    C, v = random_collapse(B, rng)
    vu = compose(v, u)
    cases = [
        # commuting
        (v, u, vu),
        (v, u, v, u),
        (vu, identity(X), v, u),
        # mismatched endpoints, on the left, on the right, on both sides
        (u, v, vu),
        (v, u, u, v),
        (u, v, u, v),
        (u, v, u),
        # sides that start or end in different systems
        (v, u, v),
        (v, u, u),
        (vu, identity(X), u, identity(X)),
    ]
    # not commuting: one cell of a map sent elsewhere
    for bad in (_alter_one_cell(rng, vu), _alter_one_cell(rng, u)):
        if bad is not None and bad.dom is X and bad.cod is C:
            cases += [(v, u, bad), (bad, identity(X), v, u)]
        elif bad is not None:
            cases += [(v, bad, v, u), (v, bad, vu)]
    for case in cases:
        assert _outcome(commutes, *case) == _outcome(_compare_by_compose, *case)


def test_commutes_refuses_mismatched_endpoints_as_compose_does(ccs):
    X = _system(ccs.labels, ("p", "q"), ())
    Y = _system(ccs.labels, ("r",), ())
    to_y = _map(X, Y, {"p": "r", "q": "r"})
    swap = _map(X, X, {"p": "q", "q": "p"})
    for maps in [(to_y, to_y, to_y), (to_y, swap, to_y, to_y), (to_y, to_y, swap, swap)]:
        with pytest.raises(NonCommutingSquare, match="^composition endpoints do not match$"):
            _compare_by_compose(*maps)
        with pytest.raises(NonCommutingSquare, match="^composition endpoints do not match$"):
            commutes(*maps)
    assert commutes(swap, swap, identity(X)) and commutes(to_y, swap, to_y)
    # equal cell by cell, but the two sides end in different systems
    Y2 = _system(ccs.labels, ("r", "s"), ())
    to_y2 = _map(X, Y2, {"p": "r", "q": "r"})
    assert not _compare_by_compose(identity(Y), to_y, to_y2)
    assert not commutes(identity(Y), to_y, to_y2)
    assert not commutes(identity(Y), to_y, to_y2, identity(X))
    assert not commutes(swap, identity(X), identity(X))
    assert not commutes(identity(X), swap, identity(X), identity(X))


# ---------------------------------------------------------------------------
# The arities a preserve case compares are shared, and nothing re-walks.


def _preserve_problems(spec, seed, d=3):
    rng = random.Random(seed)
    f = random_functional_bisim(rng, spec.labels)
    M = random_term(spec, rng, f.dom.states, d)
    problems = [
        R for R, _ in derive(spec, T_on_element(f, M), ambient_axioms(f.cod)) if proof_depth(R) <= d
    ]
    return f, M, problems


def test_preserve_compares_shared_arities_and_walks_each_element_once(ccs, monkeypatch):
    squares = []
    real_lift = gsos.cellular.lift_against

    def spy_lift(cert, fb, top, bottom):
        squares.append((cert, top, bottom))
        return real_lift(cert, fb, top, bottom)

    walks = []
    real_walk = gsos.familial._walk

    def counted_walk(elem):
        walks.append(elem)
        return real_walk(elem)

    monkeypatch.setattr(gsos.cellular, "lift_against", spy_lift)
    monkeypatch.setattr(gsos.familial, "_walk", counted_walk)
    lifted = 0
    for seed in range(5, 25):
        f, M, problems = _preserve_problems(ccs, seed)
        for R in problems:
            del walks[:]
            r0 = preserve_bisim_lift(f, M, R)
            assert T_on_element(f, r0) == R
            # dec_m and dec_r: one walk each, none for the certificate or recompose
            assert walks == [M, R]
            cert, top, bottom = squares[-1]
            assert top.dom is cert.claimed_composite.dom  # dec_m.filler.dom
            assert bottom.dom is cert.claimed_composite.cod  # dec_r.filler.dom
            lifted += 1
    assert lifted == len(squares) >= 20


def test_recompose_reads_the_kept_walk(ccs, monkeypatch):
    rng = random.Random(3)
    for _ in range(30):
        X = random_presheaf(rng, ccs.labels, max_states=4)
        elem = random_layer_element(ccs, X, rng, 1, 3, rng.choice(["term", "proof"]))
        dec = decompose(X, elem)
        walks = []
        monkeypatch.setattr(gsos.familial, "_walk", lambda e: walks.append(e))
        assert recompose(dec, X) == elem
        assert recompose(replace(dec, filler=dec.filler), X) == elem
        assert walks == []
        monkeypatch.undo()
