import random

import pytest

from gsos.errors import CellMismatch, MalformedProof
from gsos.familial import (
    arity_label,
    arity_tgt_morphism,
    decompose,
    generic_decomposition,
    random_collapse,
    recompose,
)
from gsos.presheaf import (
    STAR,
    LabelSet,
    make_presheaf,
    morphism,
    terminal,
)
from gsos.terms import (
    T_on_element,
    Var,
    map_leaves,
    parse_proof,
    parse_term,
    proof_source,
    proof_target,
    random_layer_element,
    random_presheaf,
    render,
    to_terminal,
)

from oracles import all_morphisms, arity_star, compose


def is_generic(X, elem):
    """Decide genericness by the filler-is-iso criterion."""
    return decompose(X, elem).filler.is_iso()


def test_strip_variable(ccs, rsync_ambient):
    t = parse_term(ccs, rsync_ambient, "var(x)")
    assert to_terminal(t) == Var(STAR)


def test_strip_sync_golden(ccs, sync_ambient):
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    sh = to_terminal(p)
    assert sh.label == "tau"
    assert render(sh) == "sync(lpar[L=a_bar](ax(a_bar),term(var(*))),ax(a))"
    # idempotent on shapes
    assert to_terminal(sh) == sh


def test_arity_star_counts(ccs):
    one = terminal(ccs.labels)
    single = to_terminal(parse_term(ccs, one, "var(*)"))
    assert arity_star(ccs.labels, single).size() == (1, 0)
    triple = to_terminal(parse_term(ccs, one, "par(par(var(*),var(*)),var(*))"))
    car = arity_star(ccs.labels, triple)
    assert car.size() == (3, 0)
    assert car.states == ("occ0", "occ1", "occ2")
    empty = to_terminal(parse_term(ccs, None, "nil"))
    assert arity_star(ccs.labels, empty).size() == (0, 0)


def test_arity_label_axiom_base_case(ccs):
    one = terminal(ccs.labels)
    sh = to_terminal(parse_proof(ccs, one, "ax(a)"))
    smor = arity_label(ccs.labels, sh)
    assert smor.cod.size() == (2, 1)
    assert smor.cod.src["a"]["e"] == "occ0" and smor.cod.tgt["a"]["e"] == "t"
    assert smor.state_map == {"occ0": "occ0"}
    tmor = arity_tgt_morphism(ccs.labels, sh)
    assert tmor.state_map == {"occ0": "t"}


def test_arity_label_sync_golden(ccs, sync_ambient):
    """Synchronisation shape: the arity is a sum of two generic edges and a
    point, the source morphism picks the two edge sources and the middle
    point, the target morphism the two edge targets and the middle point."""
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    sh = to_terminal(p)
    smor = arity_label(ccs.labels, sh)
    assert smor.cod.size() == (5, 2)
    assert set(smor.cod.states) == {
        "occ0",
        "occ1",
        "occ2",
        "arg0/prem0/arg0/prem0/t",
        "arg1/prem0/t",
    }
    e_bar = "arg0/prem0/arg0/prem0/e"
    e_in = "arg1/prem0/e"
    assert smor.cod.edges["a_bar"] == (e_bar,)
    assert smor.cod.edges["a"] == (e_in,)
    # source morphism = s^a_bar + point + s^a under the cell naming
    assert smor.state_map == {"occ0": "occ0", "occ1": "occ1", "occ2": "occ2"}
    assert smor.cod.src["a_bar"][e_bar] == "occ0"
    assert smor.cod.src["a"][e_in] == "occ2"
    # target morphism = t^a_bar + point + t^a
    tmor = arity_tgt_morphism(ccs.labels, sh)
    assert tmor.state_map == {
        "occ0": "arg0/prem0/arg0/prem0/t",
        "occ1": "occ1",
        "occ2": "arg1/prem0/t",
    }


def test_arity_label_rsync_golden(ccs, rsync_ambient):
    """Replication shape: pushout of the two source inclusions; the
    source morphism is the diagonal, the target routes the replicated
    argument through the shared source."""
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    sh = to_terminal(p)
    smor = arity_label(ccs.labels, sh)
    assert smor.cod.size() == (3, 2)
    assert smor.cod.src["a_bar"]["arg0/prem0/e"] == "occ0"
    assert smor.cod.src["a"]["arg0/prem1/e"] == "occ0"  # shared source vertex
    assert smor.state_map == {"occ0": "occ0"}
    tmor = arity_tgt_morphism(ccs.labels, sh)
    assert tmor.state_map == {
        "occ0": "occ0",
        "occ1": "arg0/prem0/t",
        "occ2": "arg0/prem1/t",
    }


def test_arity_premise_free_node_reduces_to_source_arity(ccs):
    """A rule node whose arguments all lack premises contributes exactly the
    occurrence cells of its source."""
    one = terminal(ccs.labels)
    p = parse_proof(ccs, one, "pref_a(term(var(*)))")
    sh = to_terminal(p)
    smor = arity_label(ccs.labels, sh)
    src_ar = arity_star(ccs.labels, proof_source(one, p))
    assert smor.cod == src_ar
    assert smor.state_map == {"occ0": "occ0"}


def test_decompose_variable(ccs, rsync_ambient):
    dec = decompose(rsync_ambient, parse_term(ccs, rsync_ambient, "var(x)"))
    assert dec.shape == Var(STAR)
    assert dec.filler.state_map == {"occ0": "x"}


def test_decompose_sync_filler_golden(ccs, sync_ambient):
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    dec = decompose(sync_ambient, p)
    assert dec.filler.state_map == {
        "occ0": "x1",
        "occ1": "x2",
        "occ2": "x3",
        "arg0/prem0/arg0/prem0/t": "y1",
        "arg1/prem0/t": "y2",
    }
    assert dec.filler.edge_maps["a_bar"] == {"arg0/prem0/arg0/prem0/e": "e1"}
    assert dec.filler.edge_maps["a"] == {"arg1/prem0/e": "e2"}
    assert recompose(dec, sync_ambient) == p


def test_decompose_rsync_shared_vertex(ccs, rsync_ambient):
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    dec = decompose(rsync_ambient, p)
    assert dec.filler.state_map["occ0"] == "x"  # the common source
    assert recompose(dec, rsync_ambient) == p


def test_recompose_identity_filler_gives_generic_element(ccs, rsync_ambient):
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    sh = to_terminal(p)
    gen = generic_decomposition(ccs.labels, sh)
    ar = gen.arity
    generic = recompose(gen, ar)
    assert is_generic(ar, generic)
    assert decompose(ar, generic).filler.is_iso()


def test_round_trip_random(ccs):
    rng = random.Random(13)
    for _ in range(200):
        X = random_presheaf(rng, ccs.labels, max_states=4)
        kind = rng.choice(["term", "proof"])
        elem = random_layer_element(ccs, X, rng, 1, 3, kind)
        dec = decompose(X, elem)
        assert recompose(dec, X) == elem


def test_naturality_in_ambient_system(ccs):
    """Relabelling leaves keeps the shape and post-composes the filler."""
    rng = random.Random(17)
    for _ in range(60):
        X = random_presheaf(rng, ccs.labels, max_states=4)
        elem = random_layer_element(ccs, X, rng, 1, 3, rng.choice(["term", "proof"]))
        dec = decompose(X, elem)
        B, u = random_collapse(X, rng)
        moved = map_leaves(elem, lambda x: u.state_map[x], lambda e, a: u.edge_maps[a][e])
        dec2 = decompose(B, moved)
        assert dec2.shape == dec.shape
        assert dec2.filler == compose(u, dec.filler)


def test_naturality_in_base_object(ccs):
    """Sources/targets decompose through the arity morphisms."""
    rng = random.Random(19)
    for _ in range(60):
        X = random_presheaf(rng, ccs.labels, max_states=4)
        p = random_layer_element(ccs, X, rng, 1, 3, "proof")
        dec = decompose(X, p)
        smor = arity_label(ccs.labels, dec.shape)
        src_dec = decompose(X, proof_source(X, p))
        assert src_dec.shape == to_terminal(proof_source(X, p))
        assert src_dec.filler == compose(dec.filler, smor)
        tmor = arity_tgt_morphism(ccs.labels, dec.shape)
        tgt_dec = decompose(X, proof_target(X, p))
        assert tgt_dec.filler == compose(dec.filler, tmor)


def test_is_generic_cases(ccs, rsync_ambient):
    two = make_presheaf(ccs.labels, ("u", "v"), ())
    # a variable into a 2-state system: filler not surjective
    assert not is_generic(two, Var("u"))
    # a collapsing filler: two occurrences sent to the same state
    collapsed = parse_term(ccs, two, "par(var(u),var(u))")
    assert not is_generic(two, collapsed)
    # generic representative, checked against the definition: every
    # strong-lifting square out of it has exactly one solution
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    sh = to_terminal(p)
    gen = generic_decomposition(ccs.labels, sh)
    ar = gen.arity
    generic = recompose(gen, ar)
    assert is_generic(ar, generic)
    rng = random.Random(23)
    for _ in range(10):
        B, u = random_collapse(ar, rng)
        chi = T_on_element(u, generic)
        _, h = random_collapse(B, rng)
        k = compose(h, u)
        liftings = [
            lift
            for lift in all_morphisms(ar, B)
            if T_on_element(lift, generic) == chi and compose(h, lift) == k
        ]
        assert len(liftings) == 1


def test_non_generic_has_ambiguous_strong_lifting():
    """Hand-built square with two distinct strong liftings for a non-generic
    element: par(var(u),var(u)) over a 2-state system collapsed to 1 state."""
    L = LabelSet(("a",))
    two = make_presheaf(L, ("u", "v"), ())
    one_pt = make_presheaf(L, ("w",), ())
    spec_text = """
labels a ;
op par : 2 ;
rule lpar : premises x1 -[a]-> y1_1 ; conclusion par(x1,x2) -[a]-> par(y1_1,x2) ;
"""
    from gsos.specdsl import parse_spec

    spec = parse_spec(spec_text)
    elem = parse_term(spec, two, "par(var(u),var(u))")
    u_map = morphism(two, one_pt, {"u": "w", "v": "w"})
    chi = map_leaves(elem, lambda x: u_map.state_map[x], lambda e, a: e)
    # both candidate liftings agree on the image of the filler but differ on v
    solutions = []
    for l in all_morphisms(two, two):
        image = map_leaves(elem, lambda x: l.state_map[x], lambda e, a: e)
        if image == elem and compose(u_map, l) == u_map:
            solutions.append(l)
    assert len(solutions) > 1


def test_recompose_wrong_codomain_rejected(ccs, rsync_ambient, sync_ambient):
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    dec = decompose(rsync_ambient, p)
    with pytest.raises(CellMismatch):
        recompose(dec, sync_ambient)


def test_arity_rejects_wrong_sort(ccs, rsync_ambient):
    term_shape = to_terminal(parse_term(ccs, rsync_ambient, "var(x)"))
    with pytest.raises(MalformedProof):
        arity_label(ccs.labels, term_shape)
    proof_shape = to_terminal(parse_proof(ccs, rsync_ambient, "ax(e1)"))
    with pytest.raises(MalformedProof):
        arity_star(ccs.labels, proof_shape)
