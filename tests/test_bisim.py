import importlib.util
import json
import random
from itertools import product, zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsos.bisim as bisim_mod
from gsos.bisim import (
    RelationOnStates,
    check_bisimulation_relation,
    congruence_test,
    enumerate_contexts,
    proof_successors,
    reachable_fragment,
    refinement_fixpoint,
    relation_presheaf,
    sample_contexts,
    stratified_partition,
)
from gsos.cli import main
from gsos.errors import DuplicateId, FuelTooSmall, UnknownState
from gsos.presheaf import STAR, LabelSet, Presheaf, _pair_system, make_presheaf
from gsos.specdsl import parse_spec
from gsos.terms import (
    HOLE,
    App,
    Arena,
    Var,
    parse_term,
    random_presheaf,
    random_term,
    render,
    term_vars,
    terms_upto,
    two_layer_terms,
)

from oracles import (
    _old_element_depth,
    arena_fragment,
    k_bisimilar,
    old_congruence_test,
    old_derive,
    old_enumerate_contexts,
    old_proof_target,
    old_relation_presheaf,
    old_strata,
    old_substitute,
    plug,
)
from round_trips import bundled_spec_path


def T(ccs, text):
    return parse_term(ccs, None, text)


def test_fragment_nil(ccs):
    frag = arena_fragment(ccs, [T(ccs, "nil")], 5)
    assert frag.carrier.size() == (1, 0)
    assert frag.definitive


def test_fragment_parallel_pair_golden(ccs):
    """Hand run: one a_bar, one a and one tau move from the root, then the
    two residues each make their remaining move into par(nil,nil)."""
    frag = arena_fragment(ccs, [T(ccs, "par(pref_a_bar(nil),pref_a(nil))")], 2)
    assert len(frag.carrier.states) == 4
    assert frag.carrier.size()[1] == 5
    root = "par(pref_a_bar(nil),pref_a(nil))"
    root_edges = [
        e for a in ccs.labels for e in frag.carrier.edges[a]
        if frag.carrier.src[a][e] == root
    ]
    assert len(root_edges) == 3
    assert frag.definitive is True


def test_fragment_monotone_in_fuel(ccs):
    t = T(ccs, "par(pref_a_bar(nil),pref_a(nil))")
    prev = set()
    for fuel in range(4):
        frag = arena_fragment(ccs, [t], fuel)
        states = frag.carrier.state_set
        assert prev <= states
        prev = states


def test_fragment_rejects_open_terms(ccs):
    with pytest.raises(UnknownState):
        arena_fragment(ccs, [Var("x")], 2)


def test_k_bisimilar_reflexive(ccs):
    frag = arena_fragment(ccs, [T(ccs, "pref_a(nil)")], 3)
    for k in range(4):
        assert k_bisimilar(frag.carrier, "pref_a(nil)", "pref_a(nil)", k)


def test_sum_idempotent_pair(ccs):
    u, v = T(ccs, "sum(pref_a(nil),pref_a(nil))"), T(ccs, "pref_a(nil)")
    frag = arena_fragment(ccs, [u, v], 4)
    for k in range(5):
        assert k_bisimilar(frag.carrier, render(u), render(v), k)


def test_label_mismatch_at_stratum_one(ccs):
    u, v = T(ccs, "pref_a(nil)"), T(ccs, "pref_a_bar(nil)")
    frag = arena_fragment(ccs, [u, v], 2)
    assert k_bisimilar(frag.carrier, render(u), render(v), 0)
    assert not k_bisimilar(frag.carrier, render(u), render(v), 1)


def test_unknown_state_rejected(ccs):
    frag = arena_fragment(ccs, [T(ccs, "nil")], 1)
    with pytest.raises(UnknownState):
        k_bisimilar(frag.carrier, "nil", "missing", 1)


@st.composite
def small_systems(draw):
    L = LabelSet(("a", "b"))
    n = draw(st.integers(min_value=1, max_value=5))
    states = tuple(f"s{i}" for i in range(n))
    m = draw(st.integers(min_value=0, max_value=6))
    arrows = []
    for i in range(m):
        lab = draw(st.sampled_from(["a", "b"]))
        s = draw(st.sampled_from(states))
        t = draw(st.sampled_from(states))
        arrows.append((lab, f"e{i}", s, t))
    return make_presheaf(L, states, arrows)


@settings(max_examples=50, deadline=None)
@given(small_systems(), st.integers(min_value=0, max_value=4))
def test_stratified_is_equivalence(X, k):
    part = _padded(stratified_partition(X, k), k)[k]
    # block structure is an equivalence relation by construction; check
    # symmetry/transitivity via the k_bisimilar interface on all pairs
    for x in X.states:
        assert k_bisimilar(X, x, x, k)
        for y in X.states:
            assert k_bisimilar(X, x, y, k) == k_bisimilar(X, y, x, k)
            assert (part[x] == part[y]) == k_bisimilar(X, x, y, k)


@settings(max_examples=50, deadline=None)
@given(small_systems(), st.integers(min_value=0, max_value=3))
def test_strata_antimonotone(X, k):
    for x in X.states:
        for y in X.states:
            if k_bisimilar(X, x, y, k + 1):
                assert k_bisimilar(X, x, y, k)


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(min_value=0, max_value=4))
def test_edge_multiplicity_invariance(X, k):
    """Duplicating an edge never changes any stratified answer."""
    for a in X.labels:
        if not X.edges[a]:
            continue
        e = X.edges[a][0]
        Y = make_presheaf(
            X.labels,
            X.states,
            [(b, d, X.src[b][d], X.tgt[b][d]) for b, d in X.all_edges()]
            + [(a, e + "_copy", X.src[a][e], X.tgt[a][e])],
        )
        for x in X.states:
            for y in X.states:
                assert k_bisimilar(X, x, y, k) == k_bisimilar(Y, x, y, k)
        break


def test_diagonal_relation_is_bisimulation(paper_lts):
    diag = RelationOnStates(paper_lts, frozenset((x, x) for x in paper_lts.states))
    assert check_bisimulation_relation(diag)


def test_total_relation_fails_when_moves_differ(ccs):
    X = make_presheaf(ccs.labels, ("p", "q"), [("a", "e", "p", "q")])
    total = RelationOnStates(X, frozenset((x, y) for x in X.states for y in X.states))
    assert not check_bisimulation_relation(total)


def test_refinement_fixpoint_classes_form_a_bisimulation(ccs):
    """On a frontier-free fragment the stable blocks pass the relational
    characterisation: consistency of the two definitions."""
    frag = arena_fragment(
        ccs,
        [T(ccs, "par(pref_a_bar(nil),pref_a(nil))"), T(ccs, "sum(pref_a(nil),pref_a(nil))")],
        5,
    )
    assert frag.definitive
    block = refinement_fixpoint(frag.carrier)
    pairs = frozenset(
        (x, y)
        for x in frag.carrier.states
        for y in frag.carrier.states
        if block[x] == block[y]
    )
    assert check_bisimulation_relation(RelationOnStates(frag.carrier, pairs))


def test_relation_presheaf_projections(paper_lts):
    diag = RelationOnStates(paper_lts, frozenset((x, x) for x in paper_lts.states))
    R, p1, p2 = relation_presheaf(diag)
    assert len(R.states) == 3
    assert R.edges["b"] and len(R.edges["b"]) == 4  # f,f2 pair up both ways


def test_relation_presheaf_refuses_pair_names_that_collide():
    X = make_presheaf(LabelSet(("a",)), ("a", "b,c", "a,b", "c"), ())
    r = RelationOnStates(X, frozenset({("a", "b,c"), ("a,b", "c")}))
    with pytest.raises(DuplicateId):
        relation_presheaf(r)  # both pairs would be the state (a,b,c)


def _seeded_relations(ccs):
    """Relations on seeded systems over ccs's labels: the identity, the
    fixpoint blocks and a random relation, each on a random system."""
    for seed in range(60):
        rng = random.Random(seed)
        X = random_presheaf(rng, ccs.labels, max_states=6, max_edges=14)
        block = refinement_fixpoint(X)
        yield RelationOnStates(X, frozenset((x, x) for x in X.states))
        yield RelationOnStates(
            X, frozenset((x, y) for x in X.states for y in X.states if block[x] == block[y])
        )
        yield RelationOnStates(
            X, frozenset((x, y) for x in X.states for y in X.states if rng.random() < 0.4)
        )


def _same_span(build, r):
    R, p1, p2 = build(r)
    S, q1, q2 = old_relation_presheaf(r)
    return R == S and p1 == q1 and p2 == q2


def test_relation_presheaf_matches_the_all_pairs_oracle(ccs):
    """Pairing the out-edges of related states gives the system and the
    projections that pairing every two edges gave."""
    assert all(_same_span(relation_presheaf, r) for r in _seeded_relations(ccs))


def test_relation_oracle_catches_a_dropped_target_filter(ccs):
    """Negative control: out-edge pairing that keeps edge pairs with
    unrelated targets differs from the oracle on some seeded relation."""

    def unfiltered(r):
        X = r.carrier
        related = sorted(r.pairs)
        pairs = {
            a: [
                (e1, e2)
                for x, y in related
                for e1 in X.out_edges(x, a)
                for e2 in X.out_edges(y, a)
            ]
            for a in X.labels
        }
        pairs[STAR] = related
        return _pair_system(X, X, pairs)

    assert not all(_same_span(unfiltered, r) for r in _seeded_relations(ccs))


def test_plug_and_contexts(ccs):
    ctxs = enumerate_contexts(ccs, 2)
    assert render(Var("__hole__")) in {render(c) for c in ctxs}
    hole_only = [c for c in ctxs if render(c) == "var(__hole__)"]
    t = T(ccs, "pref_a(nil)")
    assert old_substitute(hole_only[0], {HOLE: t}) == t
    # all contexts have exactly one hole and height <= 2
    for c in ctxs:
        assert term_vars(c).count(HOLE) == 1
        assert _old_element_depth(c) <= 2


def _contexts_by_filtering(spec, max_height):
    """Reference enumerator: every combination over all closed terms of
    height <= max_height, kept when its height is exactly h."""
    closed_terms = [t for level in old_strata(spec, [], max_height) for t in level]
    ctxs = [[Var(HOLE)]]
    for h in range(1, max_height + 1):
        level = []
        hole_below = [c for lvl in ctxs for c in lvl]
        for op, arity in spec.operations:
            if arity == 0:
                continue
            for slot in range(arity):
                others = [hole_below if pos == slot else closed_terms for pos in range(arity)]
                for combo in product(*others):
                    if 1 + max(_old_element_depth(t) for t in combo) == h:
                        level.append(App(op, tuple(combo)))
        ctxs.append(level)
    return [c for lvl in ctxs for c in lvl]


@pytest.mark.parametrize("name", ["ccs", "toy"])
@pytest.mark.parametrize("height", [0, 1, 2, 3])
def test_enumerate_contexts_matches_filtering_oracle(name, height, request):
    """Same contexts in the same order, so seeded context samples are pinned."""
    spec = request.getfixturevalue(name)
    assert enumerate_contexts(spec, height) == _contexts_by_filtering(spec, height)


# Three hole slots, which no bundled spec has; no rules are needed to list
# terms and contexts.
TERNARY = "labels a ; op c : 0 ; op g : 1 ; op f : 3 ;"


@pytest.fixture(scope="module")
def ternary():
    return parse_spec(TERNARY)


@pytest.mark.parametrize("name", ["ccs", "toy", "ternary"])
@pytest.mark.parametrize("height", [0, 1, 2, 3])
def test_contexts_and_terms_match_the_parent_loops(name, height, request):
    """The one stratum builder lists the contexts and terms, in the order,
    that the two loops it replaced listed; on the ternary spec each hole
    slot of f gets its own run of contexts, in slot order."""
    spec = request.getfixturevalue(name)
    ctxs = enumerate_contexts(spec, height)
    assert ctxs == old_enumerate_contexts(spec, height) == _contexts_by_filtering(spec, height)
    # Two variables give millions of ternary terms at height 3.
    for variables in [()] if height == 3 else [(), ("x", "y")]:
        leaves = [[Var(v) for v in variables]]
        want = [t for level in old_strata(spec, leaves, height) for t in level]
        assert terms_upto(spec, variables, height) == want


@pytest.mark.parametrize("name", ["ccs", "toy"])
def test_two_layer_terms_match_the_parent_loop(name, request):
    spec = request.getfixturevalue(name)
    X = make_presheaf(spec.labels, ("s0",), ())
    for d in range(3):
        inner = old_strata(spec, [[Var(x) for x in X.states]], d)
        outer = old_strata(spec, [[Var(m) for m in level] for level in inner], d)
        assert two_layer_terms(spec, X, d) == [t for level in outer for t in level]


def _tuple_first_apps(spec, k, pools_of):
    """A builder with its two inner loops swapped: the first argument tuple
    of every pool list, then the second of every pool list, and so on."""
    nodes = []
    for op, arity in spec.operations:
        for combos in zip_longest(*(product(*pools) for pools in pools_of(arity))):
            for combo in combos:
                if combo is not None and 1 + max((h for h, _ in combo), default=0) == k:
                    nodes.append(App(op, tuple(t for _, t in combo)))
    return nodes


def test_tuple_first_builder_is_caught(ccs, ternary, monkeypatch):
    """Negative control: a builder that loops over the argument tuples
    outside the slots lists the same contexts in another order, and fails
    the oracles on ccs at height 2; with one pool list it lists the same
    terms in the same order."""
    monkeypatch.setattr(bisim_mod, "_apps", _tuple_first_apps)
    ctxs = enumerate_contexts(ccs, 2)
    assert sorted(map(render, ctxs)) == sorted(map(render, old_enumerate_contexts(ccs, 2)))
    assert ctxs != old_enumerate_contexts(ccs, 2)
    assert ctxs != _contexts_by_filtering(ccs, 2)
    for spec in (ccs, ternary):
        below = tuple((h, t) for h, level in enumerate(old_strata(spec, [], 1)) for t in level)
        nodes = _tuple_first_apps(spec, 2, lambda n: [[below] * n])
        assert nodes == old_strata(spec, [], 2)[2]


def test_congruence_hole_context_trivial(ccs):
    u, v = T(ccs, "sum(pref_a(nil),pref_a(nil))"), T(ccs, "pref_a(nil)")
    rep = congruence_test(ccs, [(u, v)], [Var("__hole__")], 3, 4)
    assert rep["ok"]


def test_congruence_parallel_context(ccs):
    u, v = T(ccs, "sum(pref_a(nil),pref_a(nil))"), T(ccs, "pref_a(nil)")
    c = parse_term(ccs, None, "par(hole,pref_a_bar(nil))", allow_hole=True)
    rep = congruence_test(ccs, [(u, v)], [c], 3, 4)
    assert rep["ok"]


def test_congruence_fuel_gate(ccs):
    u, v = T(ccs, "nil"), T(ccs, "nil")
    with pytest.raises(FuelTooSmall):
        congruence_test(ccs, [(u, v)], [Var("__hole__")], 3, 2)


def test_congruence_mutation_has_teeth(ccs):
    """Negative control: the premise-shortcut bug distinguishes a sum-shaped
    input partner from a prefix-shaped one."""
    u = T(ccs, "par(pref_a_bar(nil),sum(pref_a(nil),pref_a(nil)))")
    v = T(ccs, "par(pref_a_bar(nil),pref_a(nil))")
    honest = congruence_test(ccs, [(u, v)], [Var("__hole__")], 3, 4)
    assert honest["ok"]
    mutated = congruence_test(
        ccs, [(u, v)], [Var("__hole__")], 3, 4, drop_last_premise=True
    )
    assert not mutated["ok"]
    assert len(mutated["violations"]) >= 1


def test_congruence_curated_pairs_quick(ccs):
    """All ten curated pairs stay equivalent under a sample of contexts."""
    ctxs = enumerate_contexts(ccs, 1)
    rep = congruence_test(ccs, _bundled_pairs(ccs), ctxs, 3, 4)
    assert rep["ok"], rep["violations"]


def _fragment_oracle(spec, seeds, fuel, drop_last_premise):
    """reachable_fragment as it was: a fresh derive memo for every state."""
    labels = spec.labels
    states, known, level = [], set(), []
    for t in seeds:
        key = render(t)
        if key not in known:
            known.add(key)
            states.append(key)
            level.append(t)
    edges = {a: [] for a in labels}
    src = {a: {} for a in labels}
    tgt = {a: {} for a in labels}
    closed = make_presheaf(labels, (), ())
    for _ in range(fuel):
        next_level = []
        for m in level:
            for p in old_derive(spec, m, None, drop_last_premise):
                n = old_proof_target(closed, p)
                nk = render(n)
                if nk not in known:
                    known.add(nk)
                    states.append(nk)
                    next_level.append(n)
                a = p.label
                pk = render(p)
                edges[a].append(pk)
                src[a][pk] = render(m)
                tgt[a][pk] = nk
        level = next_level
        if not level:
            break
    return states, edges, src, tgt, {render(t) for t in level}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    count=st.integers(min_value=1, max_value=3),
    fuel=st.integers(min_value=0, max_value=3),
)
def test_reachable_fragment_matches_per_state_oracle(ccs, seed, count, fuel):
    rng = random.Random(seed)
    seeds = [random_term(ccs, rng, (), rng.randint(0, 4)) for _ in range(count)]
    _assert_fragment_matches_oracle(ccs, seeds, fuel)


@pytest.mark.parametrize(
    "seeds, fuel",
    [
        (["bang(par(pref_a(nil),pref_a_bar(nil)))", "bang(par(pref_a_bar(nil),pref_a(nil)))"], 6),
        (
            [
                "par(par(bang(sum(pref_a(pref_tau(nil)),pref_a_bar(nil))),pref_a(pref_a_bar(nil))),"
                "sum(pref_a_bar(nil),pref_tau(pref_a(nil))))"
            ],
            5,
        ),
    ],
)
def test_reachable_fragment_matches_oracle_on_shared_subterms(ccs, seeds, fuel):
    """Fragments of up to a few hundred states that share most subterms."""
    _assert_fragment_matches_oracle(ccs, [T(ccs, s) for s in seeds], fuel)


def _assert_fragment_matches_oracle(ccs, seeds, fuel):
    frag = reachable_fragment(ccs, seeds, fuel, proof_successors(ccs))
    states, edges, src, tgt, frontier = _fragment_oracle(ccs, seeds, fuel, False)
    X = frag.carrier
    assert list(X.states) == states
    for a in ccs.labels:
        assert list(X.edges[a]) == edges[a]
        assert dict(X.src[a]) == src[a]
        assert dict(X.tgt[a]) == tgt[a]
    assert frag.frontier == frontier


def _stratified_partition_oracle(X, k):
    """stratified_partition as it was: every round reads the out-edges again."""
    block = {x: 0 for x in X.states}
    history = [dict(block)]
    for _ in range(k):
        sig = {}
        for x in X.states:
            sig[x] = frozenset(
                (a, block[X.tgt[a][e]]) for a in X.labels for e in X.out_edges(x, a)
            )
        canon = {}
        new_block = {}
        for x in X.states:
            key = (block[x], sig[x])
            if key not in canon:
                canon[key] = len(canon)
            new_block[x] = canon[key]
        if new_block == block:
            history.append(dict(new_block))
            block = new_block
            break
        block = new_block
        history.append(dict(block))
    while len(history) <= k:
        history.append(dict(block))
    return history


def _padded(history, k):
    """A history padded as the refiner padded it before it stopped at the
    first repeat: the last stratum repeated up to stratum k.  Only the last
    stratum may equal the one before it, and a history shorter than k + 1
    must end with such a repeat."""
    assert 1 <= len(history) <= k + 1
    assert all(history[n] != history[n - 1] for n in range(1, len(history) - 1))
    if len(history) < k + 1:
        assert len(history) >= 2 and history[-1] == history[-2]
    return history + [history[-1]] * (k + 1 - len(history))


def _random_seeds(ccs, seed, count):
    rng = random.Random(seed)
    return [random_term(ccs, rng, (), rng.randint(0, 4)) for _ in range(count)]


def _oracle_carrier(spec, seeds, fuel, drop):
    states, edges, src, tgt, frontier = _fragment_oracle(spec, seeds, fuel, drop)
    arrows = [(a, e, src[a][e], tgt[a][e]) for a in edges for e in edges[a]]
    return make_presheaf(spec.labels, tuple(states), arrows), frontier


def _triples(X: Presheaf):
    return [(X.src[a][e], a, X.tgt[a][e]) for a in X.labels for e in X.edges[a]]


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(min_value=0, max_value=6))
def test_stratified_partition_matches_per_round_oracle(X, k):
    assert _padded(stratified_partition(X, k), k) == _stratified_partition_oracle(X, k)


@pytest.mark.parametrize("drop", [False, True])
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    count=st.integers(min_value=1, max_value=3),
    fuel=st.integers(min_value=0, max_value=4),
)
def test_lean_fragment_matches_proof_oracle(ccs, drop, seed, count, fuel):
    _assert_lean_matches_oracle(ccs, _random_seeds(ccs, seed, count), fuel, drop)


@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize(
    "seeds, fuel",
    [
        (["bang(par(pref_a(nil),pref_a_bar(nil)))", "bang(par(pref_a_bar(nil),pref_a(nil)))"], 5),
        (
            [
                "par(par(bang(sum(pref_a(pref_tau(nil)),pref_a_bar(nil))),pref_a(pref_a_bar(nil))),"
                "sum(pref_a_bar(nil),pref_tau(pref_a(nil))))"
            ],
            4,
        ),
    ],
)
def test_lean_fragment_matches_proof_oracle_on_shared_subterms(ccs, drop, seeds, fuel):
    _assert_lean_matches_oracle(ccs, [T(ccs, s) for s in seeds], fuel, drop)


def _assert_lean_matches_oracle(ccs, seeds, fuel, drop):
    """Lean fragments hold the oracle's states in order, its frontier, each
    of its distinct (src, label, tgt) triples exactly once, and refine to
    the same strata, before and after the refiner reads successors once."""
    frag = arena_fragment(ccs, seeds, fuel, drop)
    Y, frontier = _oracle_carrier(ccs, seeds, fuel, drop)
    X = frag.carrier
    assert X.states == Y.states
    assert frag.frontier == frontier
    lean = _triples(X)
    assert len(lean) == len(set(lean))
    assert set(lean) == set(_triples(Y))
    for k in range(fuel + 1):
        want = _stratified_partition_oracle(Y, k)
        assert _padded(stratified_partition(X, k), k) == want
        assert _padded(stratified_partition(Y, k), k) == want


def test_stratified_partition_matches_oracle_on_bang_swap(ccs):
    """The 830-state fragment of the benchmark's largest bisim query."""
    t1 = T(ccs, "bang(par(pref_a(nil),pref_a_bar(nil)))")
    t2 = T(ccs, "bang(par(pref_a_bar(nil),pref_a(nil)))")
    X = arena_fragment(ccs, [t1, t2], 7).carrier
    assert len(X.states) == 830
    for k in range(8):
        assert _padded(stratified_partition(X, k), k) == _stratified_partition_oracle(X, k)


def _congruence_oracle_cases(spec, pairs, contexts, k, fuel, drop):
    """Each case decided on its own proof-named fragment, as before steps."""
    cases = []
    for u, v in pairs:
        for c in contexts:
            cu, cv = old_substitute(c, {HOLE: u}), old_substitute(c, {HOLE: v})
            Y, frontier = _oracle_carrier(spec, [cu, cv], fuel, drop)
            cases.append(
                {
                    "pair": [render(u), render(v)],
                    "context": render(c),
                    "preserved": k_bisimilar(Y, render(cu), render(cv), k),
                    "definitive": not frontier,
                    "states": len(Y.states),
                }
            )
    return cases


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_congruence_per_pair_memo_matches_fresh_memo_per_case(ccs, seed):
    """The honest and the mutated run back to back on the same pairs each
    give the cases of a fresh memo per case and of the proof oracle."""
    rng = random.Random(seed)
    pairs = [
        (
            T(ccs, "par(pref_a_bar(nil),sum(pref_a(nil),pref_a(nil)))"),
            T(ccs, "par(pref_a_bar(nil),pref_a(nil))"),
        ),
        (T(ccs, "sum(pref_a(nil),pref_a(nil))"), T(ccs, "pref_a(nil)")),
    ]
    contexts = sample_contexts(ccs, 2, 12, rng)
    reports = []
    for drop in (False, True):
        rep = congruence_test(ccs, pairs, contexts, 3, 4, drop_last_premise=drop)
        fresh = [
            case
            for u, v in pairs
            for c in contexts
            for case in congruence_test(ccs, [(u, v)], [c], 3, 4, drop_last_premise=drop)["cases"]
        ]
        assert rep["cases"] == fresh
        assert rep["violations"] == [case for case in fresh if not case["preserved"]]
        assert rep["cases"] == _congruence_oracle_cases(ccs, pairs, contexts, 3, 4, drop)
        reports.append(rep)
    assert reports[0]["ok"] and not reports[1]["ok"]


def _bundled_pairs(ccs):
    pairs_text = (bundled_spec_path("ccs").parent / "ccs_pairs.json").read_text()
    return [(T(ccs, a), T(ccs, b)) for a, b in json.loads(pairs_text)]


@pytest.mark.parametrize("seed", range(32))
def test_congruence_matches_per_case_oracle(ccs, seed):
    """One refinement per pair answers as one per (pair, context) case did,
    on the bundled pairs and 12 sampled height-3 contexts, in both modes."""
    contexts = sample_contexts(ccs, 3, 12, random.Random(seed))
    for drop in (False, True):
        want = old_congruence_test(ccs, _bundled_pairs(ccs), contexts, 3, 4, drop)
        assert congruence_test(ccs, _bundled_pairs(ccs), contexts, 3, 4, drop) == want


@pytest.mark.parametrize("drop", [False, True])
def test_congruence_matches_per_case_oracle_on_every_height_3_context(ccs, drop):
    contexts = enumerate_contexts(ccs, 3)
    assert len(contexts) == 1313
    want = old_congruence_test(ccs, _bundled_pairs(ccs), contexts, 3, 4, drop)
    assert congruence_test(ccs, _bundled_pairs(ccs), contexts, 3, 4, drop) == want


def test_congruence_refines_once_per_pair(ccs, monkeypatch):
    calls = []

    def counted(X, k):
        calls.append(k)
        return stratified_partition(X, k)

    monkeypatch.setattr(bisim_mod, "stratified_partition", counted)
    rep = congruence_test(ccs, _bundled_pairs(ccs), enumerate_contexts(ccs, 2), 3, 4)
    assert rep["ok"] and rep["contexts"] > 1
    assert calls == [3] * 10


def test_congruence_builds_one_fragment_per_pair(ccs, monkeypatch):
    """One arena, one fragment and one system per pair; each case's states
    and frontier are read off the pair's graph (the per-case fragments made
    420 fragments and systems here).  One arena per run was measured at
    twice the peak memory, and no faster."""
    calls = {"Arena": 0, "reachable_fragment": 0, "_system": 0}

    def counted(name):
        real = getattr(bisim_mod, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(bisim_mod, name, counted(name))
    contexts = enumerate_contexts(ccs, 2)
    rep = congruence_test(ccs, _bundled_pairs(ccs), contexts, 3, 4)
    assert rep["ok"] and len(rep["cases"]) == 10 * len(contexts) == 410
    assert calls == {"Arena": 10, "reachable_fragment": 10, "_system": 10}


def test_plug_fills_the_hole_and_keeps_the_context_subterms(ccs):
    """The composites equal the substitution of the pair into the hole, as
    the term engine's plug built them; the context's own subterms are one
    id in every composite, as they are ids of the one arena."""
    u = T(ccs, "sum(pref_a(nil),pref_a(nil))")
    arena = Arena(ccs)
    iu = arena.intern(u)
    for c in enumerate_contexts(ccs, 3):
        want = old_substitute(c, {HOLE: u})
        assert arena.text(arena.intern(c, iu)) == render(want) == render(plug(c, u))
        assert arena.intern(c, iu) == arena.intern(want)


def test_intern_refuses_every_variable_but_the_hole(ccs):
    """A closed term has no variable, and a context only its hole: var(x)
    is refused alone, in a term and inside a context, and so is the hole
    when no id is given for it."""
    arena = Arena(ccs)
    nil = arena.intern(T(ccs, "nil"))
    ctx = App("par", (Var(HOLE), T(ccs, "nil")))
    for t, hole in [
        (Var("x"), None),
        (Var("x"), nil),
        (App("par", (T(ccs, "nil"), Var("x"))), None),
        (App("par", (Var(HOLE), Var("x"))), nil),
        (Var(HOLE), None),
        (ctx, None),
    ]:
        with pytest.raises(UnknownState):
            arena.intern(t, hole)
    assert arena.intern(Var(HOLE), nil) == nil
    assert arena.intern(ctx, nil) == arena.intern(T(ccs, "par(nil,nil)"))


def test_congruence_refuses_a_context_with_another_variable(ccs):
    """A context with one hole and another variable has no closed
    composite, so the check refuses it."""
    u, v = T(ccs, "sum(pref_a(nil),pref_a(nil))"), T(ccs, "pref_a(nil)")
    with pytest.raises(UnknownState):
        congruence_test(ccs, [(u, v)], [App("par", (Var(HOLE), Var("x")))], 3, 4)


def _edge_inputs(ccs):
    hole = Var(HOLE)
    pairs = _bundled_pairs(ccs)
    same = [(T(ccs, "par(pref_a(nil),nil)"), T(ccs, "par(pref_a(nil),nil)"))]
    return {
        "k0-fuel0": (pairs, enumerate_contexts(ccs, 2), 0, 0),
        "k0-fuel1": (pairs, enumerate_contexts(ccs, 1), 0, 1),
        "equal-composites": (same, enumerate_contexts(ccs, 2), 2, 2),
        "bare-hole": (pairs, [hole], 3, 4),
        "bare-hole-fuel0": (pairs, [hole, hole], 0, 0),
        "repeated-context": (pairs, [hole, *enumerate_contexts(ccs, 1), hole], 2, 3),
    }


EDGE_CASES = [
    "k0-fuel0",
    "k0-fuel1",
    "equal-composites",
    "bare-hole",
    "bare-hole-fuel0",
    "repeated-context",
]


@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_congruence_edges_match_per_case_oracle(ccs, case, drop):
    """The pair's graph gives each case the states and frontier of its own
    fragment at the edges too: fuel 0 (never definitive), a pair whose
    composites render equal (one root), the bare hole and a context given
    twice, honest and mutated."""
    pairs, contexts, k, fuel = _edge_inputs(ccs)[case]
    want = old_congruence_test(ccs, pairs, contexts, k, fuel, drop)
    assert congruence_test(ccs, pairs, contexts, k, fuel, drop) == want
    if fuel == 0:
        assert not any(c["definitive"] for c in want["cases"])


@pytest.mark.parametrize("mutant", ["one-level-short", "empty-frontier"])
def test_case_walk_oracle_catches_a_wrong_walk(ccs, monkeypatch, mutant):
    """Negative control: a shared walk that stops one level short (the pair
    fragments and the case walks both lose their last level), or that
    always reports an empty frontier (every case claims to be definitive),
    disagrees with the per-case oracle, whose fragments have their own level
    loop, on seeded inputs."""
    bfs = bisim_mod._bfs
    wrong = {
        "one-level-short": lambda roots, fuel, successors: bfs(roots, fuel - 1, successors),
        "empty-frontier": lambda roots, fuel, successors: (bfs(roots, fuel, successors)[0], []),
    }[mutant]
    monkeypatch.setattr(bisim_mod, "_bfs", wrong)
    contexts = sample_contexts(ccs, 3, 12, random.Random(0))
    new = congruence_test(ccs, _bundled_pairs(ccs), contexts, 3, 4)
    old = old_congruence_test(ccs, _bundled_pairs(ccs), contexts, 3, 4)
    assert new["cases"] != old["cases"]


def _walk_mismatches(walk, succ, roots, fuel):
    """How ``walk(roots, fuel, successors)`` differs on the integer graph
    ``succ`` from a plain full breadth-first search: it must return the
    nodes at distance <= fuel in discovery order and the frontier at
    distance exactly fuel, and expand the nodes nearer than fuel, in order."""
    dist = dict.fromkeys(roots, 0)
    order = list(dist)
    for x in order:
        for y in succ[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                order.append(y)
    expanded = []

    def successors(x):
        expanded.append(x)
        return succ[x]

    nodes, frontier = walk(roots, fuel, successors)
    want = (
        [x for x in order if dist[x] <= fuel],
        [x for x in order if dist[x] == fuel],
        [x for x in order if dist[x] < fuel],
    )
    got = (list(nodes), list(frontier), expanded)
    return [name for name, a, b in zip(("nodes", "frontier", "expanded"), got, want) if a != b]


@st.composite
def _walk_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    node = st.integers(min_value=0, max_value=n - 1)
    succ = draw(st.lists(st.lists(node, max_size=4), min_size=n, max_size=n))
    roots = draw(st.lists(node, max_size=3))
    return succ, roots, draw(st.integers(min_value=0, max_value=n + 1))


@settings(max_examples=200, deadline=None)
@given(_walk_inputs())
def test_bfs_matches_full_breadth_first_distances(inputs):
    assert _walk_mismatches(bisim_mod._bfs, *inputs) == []


def test_bfs_oracle_catches_a_walk_one_level_short():
    """Negative control: on a path 0 -> 1 -> 2 -> 3 with fuel 2, a walk one
    level short misses node 2 and reports node 1 as its frontier."""
    short = lambda roots, fuel, successors: bisim_mod._bfs(roots, fuel - 1, successors)
    succ = [[1], [2], [3], []]
    assert _walk_mismatches(bisim_mod._bfs, succ, [0], 2) == []
    assert _walk_mismatches(short, succ, [0], 2) == ["nodes", "frontier", "expanded"]


@pytest.mark.parametrize("k, fuel, drop, seed", [(3, 2, True, 0), (2, 1, False, 26)])
def test_shared_fragment_needs_fuel_at_least_k(ccs, monkeypatch, k, fuel, drop, seed):
    """Negative control: below the fuel gate a state that one case leaves
    at its frontier can be expanded in the pair's shared fragment, and the
    case then answers otherwise than on its own fragment.  Over all 1313
    height-3 contexts, 360 of 13,130 cases disagree at k = 3, fuel = 2
    with the mutated engine, and 8 at k = 2, fuel = 1 with the honest one;
    each seeded sample of 12 here holds some."""
    monkeypatch.setattr(bisim_mod, "require_fuel", lambda fuel, k: None)
    contexts = sample_contexts(ccs, 3, 12, random.Random(seed))
    new = congruence_test(ccs, _bundled_pairs(ccs), contexts, k, fuel, drop)
    old = old_congruence_test(ccs, _bundled_pairs(ccs), contexts, k, fuel, drop)
    assert any(a != b for a, b in zip(new["cases"], old["cases"]))


def _bisim_report(capsys, k):
    spec = str(bundled_spec_path("ccs"))
    argv = ["bisim", spec, "--t1", "pref_a(nil)", "--t2", "pref_a(nil)", "-k", k, "--fuel", k]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report.pop("k"), report.pop("fuel")) == (int(k), int(k))
    return report


def test_bisim_at_a_huge_stratum_builds_only_the_distinct_strata(capsys, monkeypatch):
    lengths = []

    def recorded(X, k):
        history = stratified_partition(X, k)
        lengths.append(len(history))
        return history

    monkeypatch.setattr(bisim_mod, "stratified_partition", recorded)
    assert _bisim_report(capsys, "1000000") == _bisim_report(capsys, "10")
    assert len(lengths) == 2 and max(lengths) <= 3


def _refine_rounds():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.refine_rounds


REFINE_ROUNDS = _refine_rounds()


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(min_value=0, max_value=6))
def test_tracer_refine_rounds_keeps_its_value(X, k):
    """The benchmark's refine_rounds counter reads the same from the
    history that stops at its first repeat as from the padded one."""
    want = REFINE_ROUNDS(_stratified_partition_oracle(X, k))
    assert REFINE_ROUNDS(stratified_partition(X, k)) == want


@pytest.mark.parametrize("seed", range(8))
def test_tracer_refine_rounds_keeps_its_value_on_fragments(ccs, seed):
    seeds = _random_seeds(ccs, seed, 2)
    X = arena_fragment(ccs, seeds, 4).carrier
    for k in range(6):
        want = REFINE_ROUNDS(_stratified_partition_oracle(X, k))
        assert REFINE_ROUNDS(stratified_partition(X, k)) == want
