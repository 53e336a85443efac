import gc
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError, dataclass
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsos.cellular import preserve_bisim_lift
from gsos.cli import run_cases
from gsos.errors import GsosError, MalformedProof, UnknownLabel, UnknownOperation
from gsos.familial import decompose, generic_decomposition
from gsos.presheaf import (
    LabelSet,
    identity,
    is_functional_bisimulation,
    make_presheaf,
    morphism,
    representable,
    terminal,
)
from gsos.specdsl import parse_spec
from gsos.terms import (
    HOLE,
    App,
    Arena,
    Axiom,
    Node,
    Var,
    _layer_axioms,
    _rule_instances,
    ambient_axioms,
    derive,
    eta,
    map_leaves,
    monad_law_failures,
    mu,
    parse_proof,
    parse_term,
    proof_source,
    proof_target,
    random_layer_element,
    random_presheaf,
    random_term,
    render,
    term_vars,
    terms_upto,
    truncated_free,
    truncated_free_squared,
    two_layer_terms,
)

from oracles import (
    T_on_morphism,
    _old_element_depth,
    _old_rule_instances,
    _old_shortcut_premise,
    arena_fragment,
    compose,
    empty_presheaf,
    lift_mu,
    old_derive,
    old_proof_target,
    old_steps,
    old_substitute,
    rule_named,
    term_steps,
)
from round_trips import bundled_spec_path, load_bundled_spec


def test_axiom_src_tgt(paper_lts):
    p = Axiom("e", "a_bar")
    assert proof_source(paper_lts, p) == Var("y")
    assert proof_target(paper_lts, p) == Var("x")


def test_sync_proof_src_tgt(ccs, sync_ambient):
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    assert render(proof_source(sync_ambient, p)) == "par(par(var(x1),var(x2)),var(x3))"
    assert render(proof_target(sync_ambient, p)) == "par(par(var(y1),var(x2)),var(y2))"
    assert _old_element_depth(p) == 2


def test_rsync_proof_src_tgt(ccs, rsync_ambient):
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    assert render(proof_source(rsync_ambient, p)) == "bang(var(x))"
    assert render(proof_target(rsync_ambient, p)) == "par(bang(var(x)),par(var(y1),var(y2)))"


def test_rsync_premises_must_share_source(ccs, sync_ambient):
    # e1 starts at x1, e2 at x3: not a legal replication proof
    with pytest.raises(MalformedProof):
        parse_proof(ccs, sync_ambient, "rsync(ax(e1),ax(e2))")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_rsync_parses_exactly_when_premises_share_source(ccs, seed):
    """The parser's source check, at the top and as the premise of a rule."""
    X = random_presheaf(random.Random(seed), ccs.labels, max_states=3, max_edges=8)
    for e1, e2 in product(X.edges["a_bar"], X.edges["a"]):
        shared = X.src["a_bar"][e1] == X.src["a"][e2]
        rsync = f"rsync(ax({e1}),ax({e2}))"
        for text in (rsync, f"lpar[L=tau]({rsync},term(var({X.states[0]})))"):
            try:
                parse_proof(ccs, X, text)
                parsed = True
            except MalformedProof:
                parsed = False
            assert parsed == shared, text


def test_occurrences(ccs):
    one = terminal(ccs.labels)
    star = parse_term(ccs, one, "var(*)")
    assert len(term_vars(star)) == 1
    t = parse_term(ccs, one, "par(par(var(*),var(*)),var(*))")
    assert len(term_vars(t)) == 3
    assert len(term_vars(parse_term(ccs, None, "nil"))) == 0


def test_one_step_nil_empty(ccs):
    assert tuple(p for p, _ in derive(ccs, parse_term(ccs, None, "nil"), None)) == ()


def test_one_step_parallel_pair(ccs):
    """Hand enumeration: lpar over the a_bar prefix, rpar over the a prefix,
    and one synchronisation; nothing else matches."""
    t = parse_term(ccs, None, "par(pref_a_bar(nil),pref_a(nil))")
    proofs = tuple(p for p, _ in derive(ccs, t, None))
    assert len(proofs) == 3
    assert sorted(p.label for p in proofs) == ["a", "a_bar", "tau"]


def test_one_step_bang_without_both_actions(ccs):
    t = parse_term(ccs, None, "bang(pref_a(nil))")
    # replication needs both an output and an input
    assert tuple(p for p, _ in derive(ccs, t, None)) == ()


def test_one_step_bang_with_both(ccs):
    t = parse_term(ccs, None, "bang(sum(pref_a(nil),pref_a_bar(nil)))")
    proofs = tuple(p for p, _ in derive(ccs, t, None))
    assert [p.label for p in proofs] == ["tau"]


def test_one_step_unknown_operation(ccs):
    with pytest.raises(UnknownOperation):
        derive(ccs, App("mystery", ()), None)


def test_terms_upto_counts(toy):
    # toy signature: one unary op over 2 variables
    ts = terms_upto(toy, ("v", "w"), 2)
    assert [render(t) for t in ts] == ["var(v)", "var(w)", "u(var(v))", "u(var(w))",
                                       "u(u(var(v)))", "u(u(var(w)))"]


def test_T_of_depth_zero(ccs, paper_lts):
    X = representable(ccs.labels, "a")
    T0 = truncated_free(ccs, X, 0)[0]
    assert set(T0.states) == {"var(s)", "var(t)"}
    assert T0.edges["a"] == ("ax(e)",)


def test_T_of_depth_one_contains_lpar(ccs):
    X = representable(ccs.labels, "a")
    T1 = truncated_free(ccs, X, 1)[0]
    assert "lpar[L=a](ax(e),term(var(s)))" in T1.edges["a"]


def test_T_of_monotone(ccs):
    X = representable(ccs.labels, "a")
    T1, T2 = truncated_free(ccs, X, 1)[0], truncated_free(ccs, X, 2)[0]
    assert set(T1.states) <= set(T2.states)
    for a in ccs.labels:
        assert set(T1.edges[a]) <= set(T2.edges[a])


def test_one_step_agrees_with_truncation_edges(ccs):
    """For closed M, the closed derive enumerates exactly the out-edges of
    the window at any depth large enough to contain them."""
    zero = empty_presheaf(ccs.labels)
    m = parse_term(ccs, None, "par(pref_a_bar(nil),pref_a(nil))")
    proofs = tuple(p for p, _ in derive(ccs, m, None))
    d = max(
        max(_old_element_depth(p) for p in proofs),
        _old_element_depth(m),
        max(_old_element_depth(proof_target(zero, p)) for p in proofs),
    )
    T = truncated_free(ccs, zero, d)[0]
    out = {
        e
        for a in ccs.labels
        for e in T.edges[a]
        if T.src[a][e] == render(m)
    }
    assert out == {render(p) for p in proofs}


def test_T_on_morphism_identity_and_collapse(ccs):
    L = ccs.labels
    X = make_presheaf(L, ("u", "v"), ())
    Y = make_presheaf(L, ("w",), ())
    f = morphism(X, Y, {"u": "w", "v": "w"})
    Tf = T_on_morphism(ccs, f, 1)
    assert Tf.state_map["var(u)"] == "var(w)" == Tf.state_map["var(v)"]
    collapsed = {Tf.state_map[s] for s in Tf.dom.states}
    assert collapsed == set(Tf.cod.states)  # surjective here: every term is hit
    from gsos.presheaf import identity as id_mor

    Ti = T_on_morphism(ccs, id_mor(X), 1)
    assert all(Ti.state_map[s] == s for s in Ti.dom.states)


def test_T_functoriality_on_random_elements(ccs):
    rng = random.Random(7)
    L = ccs.labels
    for _ in range(20):
        X = random_presheaf(rng, L, max_states=3)
        B, f = _random_quotient(rng, X)
        C, g = _random_quotient(rng, B)
        elem = random_layer_element(ccs, X, rng, 1, 3, rng.choice(["term", "proof"]))
        via_f = map_leaves(elem, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e])
        lhs = map_leaves(via_f, lambda x: g.state_map[x], lambda e, a: g.edge_maps[a][e])
        gf = compose(g, f)
        rhs = map_leaves(elem, lambda x: gf.state_map[x], lambda e, a: gf.edge_maps[a][e])
        assert lhs == rhs


def _random_quotient(rng, X):
    from gsos.familial import random_collapse

    return random_collapse(X, rng)


def test_eta_wraps_and_is_functional_bisim(ccs, rsync_ambient):
    f = eta(rsync_ambient, truncated_free(ccs, rsync_ambient, 1)[0])
    assert f.state_map["x"] == "var(x)"
    assert f.edge_maps["a_bar"]["e1"] == "ax(e1)"
    assert is_functional_bisimulation(f) is True


def test_mu_on_wrapped_term(ccs, rsync_ambient):
    X = rsync_ambient
    z = Var(parse_term(ccs, X, "par(var(x),nil)"))
    assert render(z) == "var(par(var(x),nil))"
    assert render(mu(z)) == "par(var(x),nil)"


def test_mu_second_clause(ccs, rsync_ambient):
    X = rsync_ambient
    z = App("par", (Var(Var("x")), Var(App("nil", ()))))
    assert render(z) == "par(var(var(x)),var(nil))"
    assert render(mu(z)) == "par(var(x),nil)"


def test_mu_nested_proof(ccs, rsync_ambient):
    X = rsync_ambient
    inner = parse_proof(ccs, X, "lpar(ax(e1),term(var(x)))")
    z = Node(rule_named(ccs, "lpar[L=a_bar]"), ((Axiom(inner, "a_bar"),), Var(Var("y1"))))
    assert render(z) == "lpar[L=a_bar](ax(lpar[L=a_bar](ax(e1),term(var(x)))),term(var(var(y1))))"
    out = mu(z)
    assert render(out) == "lpar[L=a_bar](lpar[L=a_bar](ax(e1),term(var(x))),term(var(y1)))"


def test_monad_laws_smoke(ccs):
    rep = run_cases(monad_law_failures, ccs, seed=3, cases=40, d=3)
    assert rep["ok"], rep["failures"]


def test_unit_laws_on_double_wrapped_variable(ccs, rsync_ambient):
    """Both unit laws route var(x) through the double wrap var(var(x))."""
    X = rsync_ambient
    v = parse_term(ccs, X, "var(x)")
    via_t_eta = map_leaves(v, Var, Axiom)
    assert via_t_eta == Var(Var("x")) and render(via_t_eta) == "var(var(x))"
    assert mu(via_t_eta) == v
    via_eta_t = Var(v)
    assert via_eta_t == via_t_eta  # both unit paths meet in the same element here
    assert mu(via_eta_t) == v


def test_associativity_on_sync_proof_double_wrapped(ccs, sync_ambient):
    """The synchronisation proof wrapped twice: both flattening orders agree."""
    X = sync_ambient
    p = parse_proof(ccs, X, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    inner = Axiom(p, p.label)          # second layer
    z3 = Axiom(inner, inner.label)     # third layer
    t_mu = map_leaves(z3, mu, lambda e, a: mu(e))
    lhs = mu(t_mu)
    rhs = mu(mu(z3))
    assert lhs == rhs == p


def test_mu_naturality_on_random_elements(ccs):
    """Relabelling commutes with flattening: T(u)(mu z) = mu(T^2(u) z)."""
    rng = random.Random(43)
    for _ in range(30):
        X = random_presheaf(rng, ccs.labels, max_states=4)
        z = random_layer_element(ccs, X, rng, 2, 3, rng.choice(["term", "proof"]))
        B, u = _random_quotient(rng, X)
        flat_then_move = map_leaves(
            mu(z), lambda x: u.state_map[x], lambda e, a: u.edge_maps[a][e]
        )
        move_leaf_state = lambda t: map_leaves(
            t, lambda x: u.state_map[x], lambda e, a: u.edge_maps[a][e]
        )
        move_leaf_edge = lambda p, a: map_leaves(
            p, lambda x: u.state_map[x], lambda e, a2: u.edge_maps[a2][e]
        )
        moved = map_leaves(z, move_leaf_state, move_leaf_edge)
        assert mu(moved) == flat_then_move


def test_lift_mu_exhaustive_small(ccs):
    """Every transition of every flattened two-layer term lifts through mu.

    Oracle: exhaustive enumeration; postconditions checked exactly.
    """
    L = ccs.labels
    X = representable(L, "a")
    ax = ambient_axioms(X)
    memo = {}
    for MM in two_layer_terms(ccs, X, 1):
        M = mu(MM)
        for R, _ in derive(ccs, M, ax, _memo=memo):
            RR = lift_mu(MM, R)
            assert mu(RR) == R
            assert proof_source(X, RR) == MM


def test_check_proof_rejects_label_mismatch(ccs, sync_ambient):
    # lpar[L=a] needs an a-premise; e1 is an a_bar edge
    with pytest.raises(MalformedProof):
        parse_proof(ccs, sync_ambient, "lpar[L=a](ax(e1),term(var(x2)))")


def test_parse_render_round_trip_random(ccs):
    rng = random.Random(21)
    for _ in range(25):
        X = random_presheaf(rng, ccs.labels, max_states=4)
        kind = rng.choice(["term", "proof"])
        elem = random_layer_element(ccs, X, rng, 1, 3, kind)
        text = render(elem)
        back = (
            parse_term(ccs, X, text)
            if kind == "term"
            else parse_proof(ccs, X, text)
        )
        assert back == elem
    # flattened layer-2 and layer-3 elements: parsing (which checks proofs
    # against X) is the oracle that mu builds well-formed elements over X
    for _ in range(25):
        X = random_presheaf(rng, ccs.labels, max_states=4)
        kind = rng.choice(["term", "proof"])
        parse = parse_term if kind == "term" else parse_proof
        z = random_layer_element(ccs, X, rng, 2, 3, kind)
        z3 = random_layer_element(ccs, X, rng, 3, 3, kind)
        for flat in (mu(z), mu(mu(z3))):
            assert parse(ccs, X, render(flat)) == flat
    # expanded rule names over two label variables, as arguments of a rule
    multi = parse_spec(MULTI_VARIABLE_SPEC)
    texts = []
    for _ in range(40):
        X = random_presheaf(rng, multi.labels, max_states=3)
        kind = rng.choice(["term", "proof"])
        elem = random_layer_element(multi, X, rng, 1, 3, kind)
        texts.append(render(elem))
        parse = parse_term if kind == "term" else parse_proof
        assert parse(multi, X, texts[-1]) == elem
    assert any("(base[P=" in t for t in texts)
    # payload ids with unbalanced brackets
    X = make_presheaf(ccs.labels, ("a[b", "c]"), [("a", "e]", "a[b", "c]")])
    for text in ("par(var(a[b),var(c]))", "lpar[L=a](ax(e]),term(var(c])))"):
        parse = parse_term if text.startswith("par") else parse_proof
        assert render(parse(ccs, X, text)) == text


MULTI_VARIABLE_SPEC = """
labels a, b ;
class L = { a, b } ;
op nil : 0 ;
op f : 1 ;
op g : 2 ;
rule base [forall P in L, Q in L] : premises x1 -[P]-> y1_1 ; conclusion f(x1) -[Q]-> y1_1 ;
rule wrap [forall P in L] : premises x1 -[P]-> y1_1 ; conclusion g(x1,x2) -[P]-> g(y1_1,x2) ;
"""


def test_mu_refuses_one_layer_elements(ccs, rsync_ambient):
    one_layer = parse_proof(ccs, rsync_ambient, "lpar(ax(e1),term(var(x)))")
    for elem in (Var("x"), Axiom("e1", "a_bar"), one_layer):
        with pytest.raises(GsosError):
            mu(elem)


def test_parse_accepts_base_rule_names(ccs, sync_ambient):
    """The expanded name is canonical, but children disambiguate the base name."""
    p1 = parse_proof(ccs, sync_ambient, "lpar(ax(e1),term(var(x2)))")
    p2 = parse_proof(ccs, sync_ambient, "lpar[L=a_bar](ax(e1),term(var(x2)))")
    assert p1 == p2


def test_truncated_free_well_formed(ccs):
    X = representable(ccs.labels, "a")
    T, term_decode, proof_decode = truncated_free(ccs, X, 2)
    # every edge's endpoints decode consistently with src/tgt of its proof
    for a in ccs.labels:
        for e in T.edges[a]:
            p = proof_decode[e]
            assert render(proof_source(X, p)) == T.src[a][e]
            assert render(proof_target(X, p)) == T.tgt[a][e]
            assert _old_element_depth(p) <= 2


@pytest.mark.parametrize("window", [truncated_free, truncated_free_squared])
def test_window_refuses_a_system_missing_spec_labels(ccs, window):
    X = make_presheaf(LabelSet(("a",)), ("x",), ())
    with pytest.raises(UnknownLabel, match="a_bar"):
        window(ccs, X, 1)


# ---------------------------------------------------------------------------
# Cached hashes and renderings against the uncached frozen-dataclass nodes
# they replace: same text, same equality, same hash values.


@dataclass(frozen=True)
class _OldVar:
    name: object


@dataclass(frozen=True)
class _OldApp:
    op: str
    args: tuple


@dataclass(frozen=True)
class _OldAxiom:
    edge: object
    label: str


@dataclass(frozen=True)
class _OldNode:
    rule: object
    args: tuple


def _old(elem):
    """The same element built from the uncached dataclasses (payloads too)."""
    if isinstance(elem, str):
        return elem
    if isinstance(elem, tuple):
        return tuple(_old(x) for x in elem)
    if isinstance(elem, Var):
        return _OldVar(_old(elem.name))
    if isinstance(elem, App):
        return _OldApp(elem.op, _old(elem.args))
    if isinstance(elem, Axiom):
        return _OldAxiom(_old(elem.edge), elem.label)
    return _OldNode(elem.rule, _old(elem.args))


def _old_render(elem) -> str:
    """render as it was: recursive, nothing cached."""
    if isinstance(elem, _OldVar):
        name = elem.name
        return f"var({name if isinstance(name, str) else _old_render(name)})"
    if isinstance(elem, _OldApp):
        if not elem.args:
            return elem.op
        return f"{elem.op}({','.join(_old_render(t) for t in elem.args)})"
    if isinstance(elem, _OldAxiom):
        edge = elem.edge
        return f"ax({edge if isinstance(edge, str) else _old_render(edge)})"
    parts = []
    for arg in elem.args:
        if isinstance(arg, tuple):
            parts.extend(_old_render(r) for r in arg)
        else:
            parts.append(f"term({_old_render(arg)})")
    if not parts:
        return elem.rule.name
    return f"{elem.rule.name}({','.join(parts)})"


def _layer_element(spec, seed, level, kind):
    rng = random.Random(seed)
    X = random_presheaf(rng, spec.labels, max_states=4)
    return random_layer_element(spec, X, rng, level, 3, kind)


def _small_term(spec, seed, index):
    X = random_presheaf(random.Random(seed), spec.labels, max_states=3)
    pool = terms_upto(spec, X.states, 2)
    return pool[index % len(pool)]


_LEVELS = st.integers(min_value=1, max_value=3)
_KINDS = st.sampled_from(["term", "proof"])
_SEEDS = st.integers(min_value=0, max_value=10**6)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, level=_LEVELS, kind=_KINDS, index=st.integers(min_value=0, max_value=10**4))
def test_render_matches_uncached_oracle(ccs, seed, level, kind, index):
    for build in (
        lambda: _layer_element(ccs, seed, level, kind),
        lambda: _small_term(ccs, seed, index),
    ):
        elem = build()
        want = _old_render(_old(elem))
        assert render(elem) == want
        assert render(elem) == want
        keyed = build()
        table = {keyed: want}
        assert render(keyed) == want
        assert table[elem] == want


@settings(max_examples=60, deadline=None)
@given(seeds=st.tuples(_SEEDS, _SEEDS), level=_LEVELS, kind=_KINDS, index=st.integers(0, 10**4))
def test_equality_and_hash_match_dataclass_oracle(ccs, seeds, level, kind, index):
    def compare(elems):
        for x, y in product(elems, repeat=2):
            assert (x == y) == (_old(x) == _old(y))
            assert (x != y) == (_old(x) != _old(y))

    a = _layer_element(ccs, seeds[0], level, kind)
    b = _layer_element(ccs, seeds[1], level, kind)
    # small terms over few states are often equal without being the same object
    c = _small_term(ccs, seeds[0], index)
    d = _small_term(ccs, seeds[1], index)
    elems = (a, _layer_element(ccs, seeds[0], level, kind), b, c, d, _small_term(ccs, seeds[0], index))
    compare(elems)  # no hash cached yet
    hash(a)
    hash(c)
    compare(elems)  # some cached
    for x in elems:
        assert hash(x) == hash(_old(x))
    compare(elems)  # all cached
    for x, y in product(elems, repeat=2):
        if x == y:
            assert hash(x) == hash(y)


def test_nodes_are_immutable_and_print_like_dataclasses(ccs, sync_ambient):
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    for node in (Var("x"), App("nil", ()), Axiom("e1", "a_bar"), p):
        with pytest.raises(FrozenInstanceError):
            node._hash = 0
        assert not hasattr(node, "__dict__")
        assert pickle.loads(pickle.dumps(node)) == node
        assert repr(node) == repr(_old(node)).replace("_Old", "")
    assert p.label == p.rule.label == "tau" and Axiom("e1", "a_bar").label == "a_bar"
    assert Var("x") != "x" and Var("x") != App("x", ())
    assert repr(Var(Var("x"))) == "Var(name=Var(name='x'))"


def test_proofs_pickle_after_their_rules_are_used(ccs, sync_ambient):
    """A proof whose rules have compiled their plans (by derive and by
    proof_target) pickles without the plans, unpickles equal with the same
    repr, and still derives and gives the same target; a fresh parse's
    rules, which have compiled nothing, pickle to the same bytes."""
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    source = proof_source(sync_ambient, p)
    derived = derive(ccs, source, ambient_axioms(sync_ambient))
    target = proof_target(sync_ambient, p)
    assert (p, target) in derived
    assert "plan" in p.rule.__dict__ and "plan" in p.args[0][0].rule.__dict__
    fresh = load_bundled_spec("ccs")
    fresh_rule = rule_named(fresh, p.rule.name)
    assert "plan" not in fresh_rule.__dict__
    assert fresh_rule == p.rule and repr(fresh_rule) == repr(p.rule)
    assert pickle.dumps(fresh_rule) == pickle.dumps(p.rule)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and repr(q) == repr(p) and "plan" not in q.rule.__dict__
    assert proof_target(sync_ambient, q) == target == old_proof_target(sync_ambient, q)
    assert derive(ccs, source, ambient_axioms(sync_ambient)) == derived
    assert (q, target) in derive(fresh, source, ambient_axioms(sync_ambient))


# ---------------------------------------------------------------------------
# derive's (proof, target) pairs against derive as it was, with every target
# re-derived from its proof by proof_target as it was (old_proof_target,
# which substitutes into the rule's target and never reads its plan).


def _derive(spec, m, axioms_of, drop, memo):
    """derive, or with drop the same loop with the premise shortcut that the
    arena takes for the mutated congruence test (derive itself has no switch
    for it), here the shortcut as it was, over terms."""
    if not drop or isinstance(m, Var):
        return derive(spec, m, axioms_of, _memo=memo)

    def premises(u, want):
        return [r for r in _derive(spec, u, axioms_of, drop, memo) if r[0].label == want]

    out = []
    instances = _rule_instances(spec, m.op, m.args, premises, App, _shortcut(spec))
    for rule, choice, n in instances:
        proofs = iter([r for r, _ in choice])
        groups = zip(m.args, rule.premise_counts)
        args = tuple(tuple(next(proofs) for _ in range(k)) if k else a for a, k in groups)
        out.append((Node(rule, args), n))
    return tuple(out)


def _shortcut(spec):
    """The premise shortcut as it was, for ``_rule_instances`` over terms."""
    return lambda u, want: _old_shortcut_premise(spec, u, want)


def _old_layer_axioms(spec, X, level):
    if level == 1:
        return X.out_edges
    inner = _old_layer_axioms(spec, X, level - 1)
    memo = {}
    return lambda m, a: [p for p in old_derive(spec, m, inner, _memo=memo) if p.label == a]


def _leaf_payloads(t):
    if isinstance(t, Var):
        return [t.name]
    return [x for a in t.args for x in _leaf_payloads(a)]


def _assert_pairs_match_oracle(spec, X, terms, axioms_of, old_axioms_of, drop):
    """derive with one shared memo gives the old proofs in the old order,
    each with the target old_proof_target re-derives, which proof_target
    gives too; so does a fresh memo."""
    memo, old_memo = {}, {}
    for m in terms:
        pairs = _derive(spec, m, axioms_of, drop, memo)
        want = old_derive(spec, m, old_axioms_of, drop, _memo=old_memo)
        assert tuple(p for p, _ in pairs) == want
        assert _derive(spec, m, axioms_of, drop, {}) == pairs
        for p, n in pairs:
            assert old_proof_target(X, p) == n == proof_target(X, p)


@pytest.mark.parametrize("drop", [False, True])
@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, level=_LEVELS)
def test_derive_pairs_match_proof_target_oracle(ccs, drop, seed, level):
    rng = random.Random(seed)
    X = random_presheaf(rng, ccs.labels, max_states=4)
    terms = [random_layer_element(ccs, X, rng, level, 3, "term") for _ in range(3)]
    ax, old_ax = _layer_axioms(ccs, X, level), _old_layer_axioms(ccs, X, level)
    _assert_pairs_match_oracle(ccs, X, terms, ax, old_ax, drop)
    # the resolver hands up each axiom payload with its target
    for m in terms:
        for x in _leaf_payloads(m):
            for a in ccs.labels:
                got = ax(x, a)
                assert [e for e, _ in got] == list(old_ax(x, a))
                for e, n in got:
                    assert n == (X.tgt[a][e] if level == 1 else old_proof_target(X, e))


def _closed_terms_and_successors(spec, terms, drop):
    """The terms and their targets one step on, as a fragment derives them."""
    return terms + [n for t in terms for _, n in _derive(spec, t, None, drop, {})]


@pytest.mark.parametrize("drop", [False, True])
@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS)
def test_closed_derive_pairs_match_proof_target_oracle(ccs, drop, seed):
    rng = random.Random(seed)
    seeds = [random_term(ccs, rng, (), rng.randint(0, 4)) for _ in range(3)]
    closed = make_presheaf(ccs.labels, (), ())
    terms = _closed_terms_and_successors(ccs, seeds, drop)
    _assert_pairs_match_oracle(ccs, closed, terms, None, None, drop)


@pytest.mark.parametrize("drop", [False, True])
def test_closed_derive_pairs_match_oracle_on_every_small_term(ccs, drop):
    """Every closed term of height <= 3, so that each rule and each premise
    shortcut of the mutated engine is exercised, and the terms that tell
    rsync's two premise targets apart."""
    closed = make_presheaf(ccs.labels, (), ())
    terms = _closed_terms_and_successors(ccs, terms_upto(ccs, (), 3) + _rsync_apart(ccs), drop)
    _assert_pairs_match_oracle(ccs, closed, terms, None, None, drop)


@pytest.mark.parametrize("two_layer", [False, True])
@pytest.mark.parametrize("ambient", ["y_a", "rsync"])
def test_window_matches_proof_target_oracle(ccs, rsync_ambient, ambient, two_layer):
    """Each window edge, its source and target, in order, as the window was
    built before: every target re-derived from its (flattened) proof.  Over
    rsync_ambient, whose state has both a and a_bar edges, rsync targets
    outgrow their sources, so the target height check drops proofs."""
    X, d = (representable(ccs.labels, "a"), 2) if ambient == "y_a" else (rsync_ambient, 1)
    if two_layer:
        P = truncated_free_squared(ccs, X, d)[0]
        states, ax, flat = two_layer_terms(ccs, X, d), _old_layer_axioms(ccs, X, 2), mu
    else:
        P = truncated_free(ccs, X, d)[0]
        states, ax, flat = terms_upto(ccs, X.states, d), X.out_edges, lambda z: z
    want = {a: [] for a in ccs.labels}
    too_tall = 0
    for m in states:
        for p in old_derive(ccs, m, ax):
            if _old_element_depth(flat(p)) > d:
                continue
            if _old_element_depth(old_proof_target(X, flat(p))) > d:
                too_tall += 1
                continue
            want[p.label].append((render(p), render(m), render(old_proof_target(X, p))))
    for a in ccs.labels:
        assert [(e, P.src[a][e], P.tgt[a][e]) for e in P.edges[a]] == want[a]
    assert sum(len(v) for v in want.values()) > 20
    assert too_tall > 0 or ambient == "y_a"


# ---------------------------------------------------------------------------
# The rule engine, which fills each rule's compiled plan, against the engine
# as it was, which bound each instance's variables in a dict and rebuilt
# the target through substitute.

# A closed constant in targets (c, f(c)), a repeated variable (x1, y2_1),
# an operation of arity 3, and a rule with three premises on two arguments.
ENGINE_SPEC = """
labels a, b ;
op nil : 0 ;
op c : 0 ;
op f : 1 ;
op g : 3 ;
rule cb : conclusion c -[b]-> f(nil) ;
rule fa : conclusion f(x1) -[a]-> g(x1,c,x1) ;
rule fb :
  premises x1 -[b]-> y1_1 ;
  conclusion f(x1) -[b]-> f(c) ;
rule ga :
  premises x2 -[b]-> y2_1 ;
  conclusion g(x1,x2,x3) -[a]-> f(g(y2_1,y2_1,x3)) ;
rule gb :
  premises x1 -[a]-> y1_1 ; x3 -[a]-> y3_1 ; x3 -[b]-> y3_2 ;
  conclusion g(x1,x2,x3) -[b]-> g(y3_2,f(c),y1_1) ;
"""


def _engine_spec(name, ccs, toy):
    return {"ccs": ccs, "toy": toy, "inline": parse_spec(ENGINE_SPEC)}[name]


def _rsync_apart(ccs):
    """Every bang(sum(pref_a_bar(p),pref_a(q))) with p != q of height <= 2:
    bang's operand steps by a_bar to p and by a to q, so the two premise
    targets of rsync differ."""
    small = terms_upto(ccs, (), 2)
    return [
        App("bang", (App("sum", (App("pref_a_bar", (p,)), App("pref_a", (q,)))),))
        for p in small
        for q in small
        if p != q
    ]


def _closed_start_levels(spec, seeds, extra):
    """Four closed terms drawn from each seed, each draw one start level,
    then the terms ``extra`` as one more level if there are any."""
    for seed in seeds:
        rng = random.Random(seed)
        yield [random_term(spec, rng, (), rng.randint(1, 4)) for _ in range(4)]
    if extra:
        yield extra


def _arena_steps(arena, t):
    """The arena's steps of a closed term, with each target as its text."""
    return [(a, arena.text(n)) for a, n in arena.steps(arena.intern(t))]


def _closed_steps_mismatches(spec, start_levels, drop):
    """Closed terms, from each start level and reached from it in three
    steps, whose steps differ from the old engine's in order or in a
    target, over one arena per start level or a fresh one; and how many
    terms were compared."""
    bad, compared = [], 0
    for level in start_levels:
        arena, old_memo, seen = Arena(spec, drop), {}, set()
        for _ in range(4):
            next_level = []
            for t in set(level) - seen:
                seen.add(t)
                want = old_steps(spec, t, drop, old_memo)
                texts = [(a, render(n)) for a, n in want]
                fresh = _arena_steps(Arena(spec, drop), t)
                if _arena_steps(arena, t) != texts or fresh != texts:
                    bad.append(t)
                next_level.extend(n for _, n in want)
            level = next_level
        compared += len(seen)
    return bad, compared


@pytest.mark.parametrize("spec_name", ["ccs", "inline"])
@pytest.mark.parametrize("drop", [False, True])
def test_steps_match_old_engine_on_closed_terms(ccs, toy, spec_name, drop):
    """toy has no constant, so no closed term; its rule instances are
    compared over ambient systems below.  Drawn ccs terms almost never tell
    rsync's premises apart, so the terms of :func:`_rsync_apart` join them."""
    spec = _engine_spec(spec_name, ccs, toy)
    extra = _rsync_apart(ccs) if spec_name == "ccs" else []
    levels = _closed_start_levels(spec, range(32), extra)
    bad, compared = _closed_steps_mismatches(spec, levels, drop)
    assert bad == [] and compared > 200


def _closed_terms(spec):
    """Closed terms over the spec's signature, of up to 12 nodes."""
    ops = spec.operations
    leaves = st.sampled_from([App(op, ()) for op, n in ops if n == 0])
    nodes = lambda args: st.one_of(
        [st.tuples(*[args] * n).map(lambda xs, op=op: App(op, xs)) for op, n in ops if n]
    )
    return st.recursive(leaves, nodes, max_leaves=12)


def _paths(t, path=()):
    """The places of t's subterms, as paths of argument indices, in preorder."""
    yield path
    for i, a in enumerate(t.args):
        yield from _paths(a, (*path, i))


def _with_hole(t, path):
    """t with the hole at the place ``path``."""
    if not path:
        return Var(HOLE)
    i = path[0]
    return App(t.op, (*t.args[:i], _with_hole(t.args[i], path[1:]), *t.args[i + 1 :]))


@pytest.mark.parametrize("spec_name", ["ccs", "inline"])
@pytest.mark.parametrize("drop", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arena_matches_the_term_engine(ccs, toy, spec_name, drop, data):
    """On drawn closed terms, and the terms two steps on, the arena's steps
    give the term engine's in order, with each target's text; an id's text
    is its term's rendering; a context interned around an id renders as the
    substitution into its hole; and equal terms built apart get one id.
    (toy has no constant, so no closed term: the inline spec, whose rule
    targets hold closed subterms, stands in for it.)"""
    spec = _engine_spec(spec_name, ccs, toy)
    t, u = data.draw(_closed_terms(spec)), data.draw(_closed_terms(spec))
    arena, memo, canon = Arena(spec, drop), {}, {}
    level = [t, u]
    for _ in range(3):
        for m in level:
            want = [(a, render(n)) for a, n in term_steps(spec, m, drop, memo, canon)]
            assert _arena_steps(arena, m) == want
            assert arena.text(arena.intern(m)) == render(m)
        level = [n for m in level for _, n in term_steps(spec, m, drop, memo, canon)][:20]
    c = _with_hole(t, data.draw(st.sampled_from(list(_paths(t)))))
    plugged = arena.intern(c, arena.intern(u))
    assert arena.text(plugged) == render(old_substitute(c, {HOLE: u}))
    again = parse_term(spec, None, render(u))
    assert again is not u and arena.intern(again) == arena.intern(u)
    assert (arena.intern(t) == arena.intern(u)) == (render(t) == render(u))


def _subterms(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _subterms(a)


def _instance_mismatches(spec, seeds, drop):
    """Operation nodes of random terms over a random ambient system, drawn
    from each seed, whose rule instances (rule, choice and target, in order,
    over the proofs derive gives the premises) differ from the old
    engine's, whose choice, grouped by argument, is flattened to one pair
    per premise; and how many instances were compared."""
    bad, instances = [], 0
    for seed in seeds:
        rng = random.Random(seed)
        X = random_presheaf(rng, spec.labels, max_states=4)
        axioms_of, memo = ambient_axioms(X), {}
        premises = lambda u, want: [
            r for r in derive(spec, u, axioms_of, _memo=memo) if r[0].label == want
        ]
        for t in {u for _ in range(4) for u in _subterms(random_term(spec, rng, X.states, 3))}:
            if isinstance(t, App):
                want = [
                    (rule, tuple(r for c in combo if isinstance(c, tuple) for r in c), n)
                    for rule, combo, n in _old_rule_instances(spec, t, premises, drop)
                ]
                shortcut = _shortcut(spec) if drop else None
                if list(_rule_instances(spec, t.op, t.args, premises, App, shortcut)) != want:
                    bad.append(t)
                instances += len(want)
    return bad, instances


@pytest.mark.parametrize("spec_name", ["ccs", "toy", "inline"])
@pytest.mark.parametrize("drop", [False, True])
def test_rule_instances_match_old_engine(ccs, toy, spec_name, drop):
    bad, instances = _instance_mismatches(_engine_spec(spec_name, ccs, toy), range(32), drop)
    assert bad == [] and instances > 50


def test_rule_engine_oracle_catches_swapped_premise_slots(ccs, monkeypatch):
    """Negative control: an rsync plan that reads y1_2 for y1_1 and y1_1 for
    y1_2 is caught by the closed-term comparison of steps, on the terms
    that tell rsync's premises apart, by the derive-target comparison with
    old_proof_target on the same terms, and over ambient systems, where a
    state often has a_bar and a edges to distinct targets.  (The mutated
    engine never fires rsync: its shortcut for the a premise matches only a
    unary operand, which has no a_bar step.)"""
    rsync = rule_named(ccs, "rsync")
    fill = rsync.plan.fill
    swapped = lambda vals, mk: fill((vals[0], vals[2], vals[1]), mk)
    monkeypatch.setitem(rsync.__dict__, "plan", rsync.plan._replace(fill=swapped))
    levels = _closed_start_levels(ccs, range(32), _rsync_apart(ccs))
    bad, _ = _closed_steps_mismatches(ccs, levels, False)
    assert len(bad) >= len(_rsync_apart(ccs))
    closed = make_presheaf(ccs.labels, (), ())
    with pytest.raises(AssertionError):
        _assert_pairs_match_oracle(ccs, closed, _rsync_apart(ccs), None, None, False)
    assert _instance_mismatches(ccs, range(32), False)[0]


def test_rule_plans_compile_once_per_rule(ccs):
    """Each rule compiles its plan on first use and keeps it; a slot list
    reads each target variable's slot (x1..xn, then the premises in order);
    the premise list gives each premise's argument and label in slot order;
    the drop_last_premise cut is the last premise of a rule with two or
    more, and only there does the mutated engine take the shortcut."""
    for rule in ccs.rules:
        plan = rule.plan
        assert rule.plan is plan and rule.__dict__["plan"] is plan
    names = ("pref_a", "lpar[L=a]", "sync", "rsync")
    plans = {name: rule_named(ccs, name).plan for name in names}
    assert {name: plan.slots for name, plan in plans.items()} == {
        "pref_a": (0,),
        "lpar[L=a]": (2, 1),
        "sync": (2, 3),
        "rsync": (0, 1, 2),
    }
    assert {name: plan.premises for name, plan in plans.items()} == {
        "pref_a": (),
        "lpar[L=a]": ((0, "a"),),
        "sync": ((0, "a_bar"), (1, "a")),
        "rsync": ((0, "a_bar"), (0, "a")),
    }
    cut = {name: _shortcut_premises(ccs, rule_named(ccs, name)) for name in names}
    assert cut == {"pref_a": [], "lpar[L=a]": [], "sync": [(1, "a")], "rsync": [(0, "a")]}


def _shortcut_premises(spec, rule):
    """The premises of ``rule``, as (argument index, label), that the
    mutated engine matches by the premise shortcut instead of deriving,
    read off its one instance over a source of distinct variables whose
    every premise has one step."""
    source = App(rule.op, tuple(Var(f"v{i}") for i in range(len(rule.premise_labels))))
    calls = {"derived": [], "shortcut": []}

    def step(kind, u, a):
        calls[kind].append((source.args.index(u), a))
        return [(Axiom("e", a), u)]

    derived = lambda u, a: step("derived", u, a)
    shortcut = lambda u, a: step("shortcut", u, a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(spec.__dict__, "rules_by_op", {rule.op: (rule,)})
        instances = _rule_instances(spec, source.op, source.args, derived, App, shortcut)
        assert len(list(instances)) == 1
    assert calls["derived"] + calls["shortcut"] == list(rule.plan.premises)
    return calls["shortcut"]


def _used_rule_ref(text):
    """Parse a spec, run derive, the arena's steps (both engines),
    proof_target and decompose with it, and return a weak reference to its
    rsync rule."""
    spec = parse_spec(text)
    t = parse_term(spec, None, "bang(sum(pref_a_bar(nil),pref_a(pref_a(nil))))")
    closed = make_presheaf(spec.labels, (), ())
    for p, n in derive(spec, t):
        assert proof_target(closed, p) == n
        decompose(closed, p)
    u = parse_term(spec, None, "par(pref_a_bar(nil),pref_a(nil))")
    for drop in (False, True):  # the mutated engine reads pref_a's plan in its shortcut
        _arena_steps(Arena(spec, drop), t)
        assert ("tau", "par(nil,nil)") in _arena_steps(Arena(spec, drop), u)
    rsync = rule_named(spec, "rsync")
    assert "plan" in rsync.__dict__
    return weakref.ref(rsync)


def test_parsed_rules_are_freed_without_cyclic_gc(ccs):
    """A rule that has compiled its plan is freed with its spec, not by the
    cyclic garbage collector: nothing outside the spec keeps the rule, and
    its plan holds no reference back to it."""
    text = bundled_spec_path("ccs").read_text()
    _used_rule_ref(text)
    gc.collect()
    gc.disable()
    try:
        assert _used_rule_ref(text)() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "build",
    [
        "derive",
        "reachable_fragment",
        "truncated_free_squared",
        "decompose",
        "generic_decomposition",
        "preserve_bisim_lift",
    ],
)
def test_derive_memo_freed_without_cyclic_gc(ccs, build):
    """The derive memo and the arity walk are freed when the call returns,
    not by the cyclic garbage collector."""
    t = parse_term(ccs, None, "bang(par(pref_a(nil),pref_a_bar(nil)))")
    X = representable(ccs.labels, "a")
    one = terminal(ccs.labels)
    p = parse_proof(ccs, one, "lpar[L=tau](rsync(ax(a_bar),ax(a)),term(var(*)))")
    run = {
        "derive": lambda: derive(ccs, t),
        "reachable_fragment": lambda: arena_fragment(ccs, [t], 4),
        "truncated_free_squared": lambda: truncated_free_squared(ccs, X, 1),
        "decompose": lambda: decompose(one, p),
        "generic_decomposition": lambda: generic_decomposition(ccs.labels, p),
        "preserve_bisim_lift": lambda: preserve_bisim_lift(
            identity(one), proof_source(one, p), p
        ),
    }[build]
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
