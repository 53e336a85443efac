import random

import pytest

from gsos.cellular import (
    AttachStep,
    CellCertificate,
    cell_certificate,
    check_eta_cartesian,
    check_mu_cartesian,
    lift_against,
    preserve_bisim_lift,
    random_functional_bisim,
    replay_certificate,
    unique_M0,
    unique_R0,
    verify_certificate,
    window_bang,
)
from gsos.errors import IncompatiblePair, NotAFunctionalBisim, ReplayMismatch
from gsos.familial import arity_label, decompose
from gsos.presheaf import (
    identity,
    is_functional_bisimulation,
    make_presheaf,
    morphism,
    representable,
    source_inclusion,
    terminal,
)
from gsos.terms import (
    App,
    Axiom,
    Node,
    Var,
    ambient_axioms,
    derive,
    map_leaves,
    mu,
    parse_proof,
    parse_term,
    proof_depth,
    proof_source,
    random_layer_element,
    render,
    to_terminal,
    truncated_free_squared,
)


def test_s_class_generators(ccs):
    generators = [source_inclusion(ccs.labels, a) for a in ccs.labels]
    assert len(generators) == 3
    g = source_inclusion(ccs.labels, "a")
    assert g.dom.size() == (1, 0) and g.cod.size() == (2, 1)


def test_certificate_axiom_base_case(ccs):
    one = terminal(ccs.labels)
    cert = cell_certificate(ccs.labels, to_terminal(parse_proof(ccs, one, "ax(a)")))
    assert cert.claimed_composite.dom.size() == (1, 0)
    assert [s.to_dict() for s in cert.steps] == [
        {"label": "a", "at": "occ0", "edge": "e", "tgt": "t"}
    ]
    assert verify_certificate(cert)


def test_certificate_rsync_attaches_twice_at_same_vertex(ccs, rsync_ambient):
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    cert = cell_certificate(ccs.labels, to_terminal(p))
    assert cert.claimed_composite.dom.size() == (1, 0)
    assert [(s.label, s.at) for s in cert.steps] == [("a_bar", "occ0"), ("a", "occ0")]
    assert verify_certificate(cert)


def test_certificate_sync_leaves_middle_untouched(ccs, sync_ambient):
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    cert = cell_certificate(ccs.labels, to_terminal(p))
    assert cert.claimed_composite.dom.size() == (3, 0)
    assert [(s.label, s.at) for s in cert.steps] == [("a_bar", "occ0"), ("a", "occ2")]
    touched = {s.at for s in cert.steps}
    assert "occ1" not in touched
    assert verify_certificate(cert)


def test_certificate_replay_matches_arity(ccs):
    """Property over random shapes: the replay equals the source arity
    morphism on the nose."""
    one = terminal(ccs.labels)
    rng = random.Random(29)
    for _ in range(60):
        p = random_layer_element(ccs, one, rng, 1, 3, "proof")
        sh = to_terminal(p)
        cert = cell_certificate(ccs.labels, sh)
        assert verify_certificate(cert)
        smor = arity_label(ccs.labels, sh)
        assert cert.claimed_composite == smor


def test_certificate_with_deleted_step_fails(ccs, rsync_ambient):
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    cert = cell_certificate(ccs.labels, to_terminal(p))
    broken = CellCertificate(cert.steps[:-1], cert.claimed_composite)
    assert not verify_certificate(broken)


def test_certificate_with_swapped_independent_steps_still_verifies(ccs, sync_ambient):
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    cert = cell_certificate(ccs.labels, to_terminal(p))
    swapped = CellCertificate((cert.steps[1], cert.steps[0]), cert.claimed_composite)
    assert verify_certificate(swapped)


def test_certificate_replay_rejects_bad_attach_state(ccs):
    one = terminal(ccs.labels)
    cert = cell_certificate(ccs.labels, to_terminal(parse_proof(ccs, one, "ax(a)")))
    bad = CellCertificate(
        (AttachStep("a", "nowhere", "e", "t"),),
        cert.claimed_composite,
    )
    with pytest.raises(ReplayMismatch):
        replay_certificate(bad)
    assert not verify_certificate(bad)


def _covering_fixture():
    """u,v cover p; both map to p, w covers q; two lifts of the base edge."""
    from gsos.presheaf import labelset

    L = labelset("a", "a_bar", "tau")
    X = make_presheaf(
        L,
        ("u", "v", "w"),
        {"a": ("d1", "d2")},
        {"a": {"d1": "u", "d2": "v"}},
        {"a": {"d1": "w", "d2": "w"}},
    )
    Y = make_presheaf(L, ("p", "q"), {"a": ("d",)}, {"a": {"d": "p"}}, {"a": {"d": "q"}})
    f = morphism(X, Y, {"u": "p", "v": "p", "w": "q"}, {"a": {"d1": "d", "d2": "d"}})
    return L, X, Y, f


def test_lift_against_empty_certificate_returns_top(ccs):
    """A premise-free shape certifies with no steps; the lifting is the top."""
    one = terminal(ccs.labels)
    p = parse_proof(ccs, one, "pref_a(term(var(*)))")
    sh = to_terminal(p)
    cert = cell_certificate(ccs.labels, sh)
    assert cert.steps == ()
    L, X, Y, f = _covering_fixture()
    top = morphism(cert.claimed_composite.dom, X, {"occ0": "u"})
    bottom = morphism(cert.claimed_composite.cod, Y, {"occ0": "p"})
    k = lift_against(cert, f, top, bottom)
    assert k.state_map == {"occ0": "u"}


def test_lift_against_single_generator(ccs):
    """Certifying the bare axiom shape makes lift_against the defining
    lifting of a functional bisimulation."""
    one = terminal(ccs.labels)
    cert = cell_certificate(ccs.labels, to_terminal(parse_proof(ccs, one, "ax(a)")))
    L, X, Y, f = _covering_fixture()
    top = morphism(cert.claimed_composite.dom, X, {"occ0": "v"})
    bottom = morphism(
        cert.claimed_composite.cod, Y, {"occ0": "p", "t": "q"}, {"a": {"e": "d"}}
    )
    k = lift_against(cert, f, top, bottom)
    assert k.edge_maps["a"]["e"] == "d2"  # the lift starting at v
    assert k.state_map["t"] == "w"


def test_lift_against_rsync_certificate_on_relation_projection(ccs):
    """4-state relation instance: lift the glued double-edge shape."""
    L = ccs.labels
    X = make_presheaf(
        L,
        ("m", "n", "m2", "n2"),
        {"a_bar": ("b1", "b2"), "a": ("c1", "c2")},
        {"a_bar": {"b1": "m", "b2": "m2"}, "a": {"c1": "m", "c2": "m2"}},
        {"a_bar": {"b1": "n", "b2": "n2"}, "a": {"c1": "n", "c2": "n2"}},
    )
    Y = make_presheaf(
        L,
        ("p", "q"),
        {"a_bar": ("b",), "a": ("c",)},
        {"a_bar": {"b": "p"}, "a": {"c": "p"}},
        {"a_bar": {"b": "q"}, "a": {"c": "q"}},
    )
    f = morphism(
        X,
        Y,
        {"m": "p", "n": "q", "m2": "p", "n2": "q"},
        {"a_bar": {"b1": "b", "b2": "b"}, "a": {"c1": "c", "c2": "c"}},
    )
    assert is_functional_bisimulation(f) is True
    p = parse_proof(ccs, Y, "rsync(ax(b),ax(c))")
    dec = decompose(Y, p)
    cert = cell_certificate(L, dec.shape)
    top = morphism(cert.claimed_composite.dom, X, {"occ0": "m2"})
    k = lift_against(cert, f, top, dec.filler)
    assert k.state_map["occ0"] == "m2"
    assert k.edge_maps["a_bar"]["arg0/prem0/e"] == "b2"
    assert k.edge_maps["a"]["arg0/prem1/e"] == "c2"


def test_lift_against_requires_functional_bisim(ccs):
    one = terminal(ccs.labels)
    cert = cell_certificate(ccs.labels, to_terminal(parse_proof(ccs, one, "ax(a)")))
    L, X, Y, f = _covering_fixture()
    # g forgets the edge over d from u: not a functional bisimulation
    X2 = make_presheaf(X.labels, X.states, {"a": ("d1",)}, {"a": {"d1": "u"}}, {"a": {"d1": "w"}})
    g = morphism(X2, Y, {"u": "p", "v": "p", "w": "q"}, {"a": {"d1": "d"}})
    top = morphism(cert.claimed_composite.dom, X2, {"occ0": "v"})
    bottom = morphism(
        cert.claimed_composite.cod, Y, {"occ0": "p", "t": "q"}, {"a": {"e": "d"}}
    )
    with pytest.raises(NotAFunctionalBisim):
        lift_against(cert, g, top, bottom)


def test_preserve_bisim_lift_identity(ccs, rsync_ambient):
    X = rsync_ambient
    p = parse_proof(ccs, X, "rsync(ax(e1),ax(e2))")
    m = proof_source(X, p)
    r0 = preserve_bisim_lift(identity(X), m, p)
    assert r0 == p


def test_preserve_bisim_lift_collapse_instance(ccs):
    """Collapsing two branch-equivalent states still lets every transition
    of the image be traced back; postconditions are checked inside."""
    L, X, Y, f = _covering_fixture()
    M = parse_term(ccs, X, "par(var(u),var(v))")
    fM = map_leaves(M, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e])
    problems = [R for R, _ in derive(ccs, fM, ambient_axioms(Y))]
    assert problems
    for R in problems:
        r0 = preserve_bisim_lift(f, M, R)
        assert proof_source(X, r0) == M


def test_preserve_bisim_lift_matches_brute_force(ccs):
    """Oracle: enumerate every proof out of M over X and keep those mapping
    onto R; the constructed preimage must be among them."""
    rng = random.Random(31)
    for _ in range(10):
        f = random_functional_bisim(rng, ccs.labels)
        X, Y = f.dom, f.cod
        from gsos.terms import random_term

        M = random_term(ccs, rng, X.states, 2)
        fM = map_leaves(M, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e])
        for R, _ in derive(ccs, fM, ambient_axioms(Y)):
            if proof_depth(R) > 2:
                continue
            r0 = preserve_bisim_lift(f, M, R)
            oracle = [
                p
                for p, _ in derive(ccs, M, ambient_axioms(X))
                if map_leaves(p, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e]) == R
                and proof_source(X, p) == M
            ]
            assert r0 in oracle


def test_T_preserves_functional_bisims_on_truncations(ccs):
    """The relabelling of a covering is again a covering on the depth-1
    windows (the lifting problems are exactly the preserve problems)."""
    from gsos.terms import T_on_morphism

    rng = random.Random(37)
    for _ in range(5):
        f = random_functional_bisim(rng, ccs.labels)
        Tf = T_on_morphism(ccs, f, 1)
        assert is_functional_bisimulation(Tf) is True


def test_eta_cartesian_random_systems(ccs):
    rng = random.Random(41)
    from gsos.terms import random_presheaf

    for _ in range(3):
        X = random_presheaf(rng, ccs.labels, max_states=3)
        rep = check_eta_cartesian(X, 2, window_bang(ccs, X, 2))
        assert rep["ok"], rep


def test_mu_cartesian_toy_and_ccs(toy, ccs):
    X_toy = representable(toy.labels, "a")
    rep = check_mu_cartesian(toy, X_toy, 2, window_bang(toy, X_toy, 2))
    assert rep["ok"], rep
    X = representable(ccs.labels, "a")
    rep = check_mu_cartesian(ccs, X, 1, window_bang(ccs, X, 1))
    assert rep["ok"], rep


def _nested_replication_instance(ccs):
    """bang(par(u1,u2)) where the two replication premises are themselves
    parallel-composition proofs over the same two-cell source."""
    X = make_presheaf(
        ccs.labels,
        ("u1", "u2", "w1", "w2"),
        {"a_bar": ("eb",), "a": ("ea",)},
        {"a_bar": {"eb": "u1"}, "a": {"ea": "u2"}},
        {"a_bar": {"eb": "w1"}, "a": {"ea": "w2"}},
    )
    p = parse_proof(
        ccs,
        X,
        "rsync(lpar(ax(eb),term(var(u2))),rpar(term(var(u1)),ax(ea)))",
    )
    return X, p


def test_nested_replication_arity_and_certificate(ccs):
    """Wide pushout over a two-cell apex: the premise arities glue along
    both occurrence cells; the certificate replays on the nose."""
    X, p = _nested_replication_instance(ccs)
    sh = to_terminal(p)
    smor = arity_label(ccs.labels, sh)
    # two shared occurrence cells plus one created target per premise
    assert smor.cod.size() == (4, 2)
    assert smor.state_map == {"occ0": "occ0", "occ1": "occ1"}
    assert smor.cod.src["a_bar"][smor.cod.edges["a_bar"][0]] == "occ0"
    assert smor.cod.src["a"][smor.cod.edges["a"][0]] == "occ1"
    cert = cell_certificate(ccs.labels, sh)
    assert [(s.label, s.at) for s in cert.steps] == [("a_bar", "occ0"), ("a", "occ1")]
    assert verify_certificate(cert)
    dec = decompose(X, p)
    assert dec.filler.state_map["occ0"] == "u1" and dec.filler.state_map["occ1"] == "u2"
    from gsos.familial import recompose, Decomposition

    assert recompose(dec, X) == p


def test_nested_replication_preservation(ccs):
    """Trace the nested replication transition back through a covering that
    duplicates every state."""
    X, p = _nested_replication_instance(ccs)
    from gsos.terms import proof_target

    # covering: two copies of every state, every edge lifted from each copy
    states = tuple(f"{x}.{i}" for x in X.states for i in range(2))
    edges = {a: [] for a in ccs.labels}
    src = {a: {} for a in ccs.labels}
    tgt = {a: {} for a in ccs.labels}
    emap = {a: {} for a in ccs.labels}
    for a in ccs.labels:
        for e in X.edges[a]:
            for i in range(2):
                name = f"{e}.{i}"
                edges[a].append(name)
                src[a][name] = f"{X.src[a][e]}.{i}"
                tgt[a][name] = f"{X.tgt[a][e]}.{(i + 1) % 2}"
                emap[a][name] = e
    C = make_presheaf(ccs.labels, states, {a: tuple(v) for a, v in edges.items()}, src, tgt)
    f = morphism(C, X, {f"{x}.{i}": x for x in X.states for i in range(2)}, emap)
    assert is_functional_bisimulation(f) is True
    M = parse_term(ccs, C, "bang(par(var(u1.1),var(u2.0)))")
    r0 = preserve_bisim_lift(f, M, p)
    assert proof_source(C, r0) == M
    assert map_leaves(r0, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e]) == p


def test_unique_R0_base_case(ccs, rsync_ambient):
    X = rsync_ambient
    one = terminal(ccs.labels)
    RR = Axiom(parse_proof(ccs, one, "ax(a_bar)"), "a_bar")
    R = parse_proof(ccs, X, "ax(e1)")
    out = unique_R0(RR, R)
    assert out == Axiom(Axiom("e1", "a_bar"), "a_bar")
    assert render(out) == "ax(ax(e1))"


def test_unique_R0_node_case(ccs, rsync_ambient):
    X = rsync_ambient
    one = terminal(ccs.labels)
    RR = Node(
        ccs.rule_named("lpar[L=a_bar]"),
        ((Axiom(parse_proof(ccs, one, "ax(a_bar)"), "a_bar"),), Var(Var("*"))),
    )
    assert render(RR) == "lpar[L=a_bar](ax(ax(a_bar)),term(var(var(*))))"
    R = parse_proof(ccs, X, "lpar(ax(e1),term(var(x)))")
    out = unique_R0(RR, R)
    assert render(out) == "lpar[L=a_bar](ax(ax(e1)),term(var(var(x))))"
    # the two defining equations hold exactly
    assert mu(out) == R
    assert map_leaves(out, to_terminal, lambda e, a: to_terminal(e)) == RR


def test_unique_R0_incompatible_pair(ccs, rsync_ambient):
    X = rsync_ambient
    one = terminal(ccs.labels)
    RR = Axiom(parse_proof(ccs, one, "ax(a)"), "a")
    R = parse_proof(ccs, X, "ax(e1)")  # an a_bar axiom: labels disagree
    with pytest.raises(IncompatiblePair):
        unique_R0(RR, R)


def test_unique_R0_uniqueness_brute_force(toy):
    """Brute force at depth <= 2: group the two-layer window's edges by
    (flattening, strip); every class must be a singleton, and every
    compatible pair must be hit."""
    X = representable(toy.labels, "a")
    TT, terms2, proofs2 = truncated_free_squared(toy, X, 2)
    seen = {}
    for a in toy.labels:
        for key in TT.edges[a]:
            p2 = proofs2[key]
            flat = render(mu(p2))
            stripped = render(map_leaves(p2, to_terminal, lambda e, lab: to_terminal(e)))
            pair = (flat, stripped)
            assert pair not in seen, f"two witnesses for {pair}"
            seen[pair] = key
    # and unique_M0 agrees on the term sort
    MM = App("u", (Var(Var("*")),))
    assert render(MM) == "u(var(var(*)))"
    M = parse_term(toy, X, "u(var(s))")
    assert render(unique_M0(MM, M)) == "u(var(var(s)))"
