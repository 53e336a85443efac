import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsos.bisim import RelationOnStates, proof_successors, reachable_fragment, relation_presheaf
from gsos.cellular import cell_certificate, random_functional_bisim, replay_certificate
from gsos.errors import (
    DanglingEdge,
    DuplicateId,
    GsosError,
    MalformedSystem,
    NonCommutingSquare,
    ShapeUnsupported,
    UnknownLabel,
)
from gsos.familial import (
    arity_label,
    arity_tgt_morphism,
    decompose,
    random_collapse,
)
from gsos.presheaf import (
    STAR,
    LabelSet,
    LiftingSquare,
    PresheafMorphism,
    _map,
    _system,
    bang,
    colimit,
    commutes,
    identity,
    is_functional_bisimulation,
    make_presheaf,
    morphism,
    morphism_from_json,
    presheaf_doc,
    presheaf_from_json,
    presheaf_to_dot,
    pullback_report,
    representable,
    source_inclusion,
    terminal,
)
from gsos.terms import Axiom, Var, parse_proof, parse_term, render
from gsos.terms import (
    MU_LEAVES,
    eta,
    proof_source,
    random_layer_element,
    random_presheaf,
    random_term,
    to_terminal,
    truncated_free,
    truncated_free_squared,
    window_map,
)

from oracles import all_morphisms, compose, coproduct, empty_presheaf, pullback
from round_trips import bundled_spec_path, morphism_to_json

AB = LabelSet(("a", "b"))
CCS = str(bundled_spec_path("ccs"))


def test_empty_presheaf_is_initial():
    zero = empty_presheaf(AB)
    assert zero.states == ()
    assert all(zero.edges[a] == () for a in AB)


def test_paper_example_builds(paper_lts):
    assert set(paper_lts.states) == {"x", "y", "z"}
    assert paper_lts.src["b"]["f"] == "y" and paper_lts.tgt["b"]["f2"] == "z"
    assert paper_lts.src["a"]["g"] == "z" and paper_lts.tgt["a"]["g"] == "z"


def test_state_set_is_built_once(paper_lts):
    """The reader asks for the state set at every var(...), so each system
    builds it once."""
    assert paper_lts.state_set is paper_lts.state_set
    assert paper_lts.state_set == frozenset(("x", "y", "z"))


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdge):
        make_presheaf(AB, ("x",), [("a", "e", "x", "nowhere")])


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateId):
        make_presheaf(AB, ("x", "x"), ())
    with pytest.raises(DuplicateId):
        make_presheaf(AB, ("x",), [("a", "e", "x", "x"), ("b", "e", "x", "x")])


def test_star_is_not_a_label():
    """``*`` names the state object, so a label set refuses it as it refuses
    a repeated label, whether built directly or read from JSON."""
    with pytest.raises(DuplicateId):
        LabelSet(("a", STAR))
    with pytest.raises(DuplicateId):
        presheaf_from_json(json.dumps({"labels": [STAR], "states": ["x"]}))
    assert AB.objects == (STAR, "a", "b")


def test_representables():
    star = representable(AB, "*")
    assert star.size() == (1, 0)
    ya = representable(AB, "a")
    assert ya.size() == (2, 1)
    assert ya.src["a"]["e"] == "s" and ya.tgt["a"]["e"] == "t"
    with pytest.raises(UnknownLabel):
        representable(AB, "c")


def test_coproduct_of_representables():
    ya, star, yb = representable(AB, "a"), representable(AB, "*"), representable(AB, "b")
    colim, injs = colimit(*coproduct((ya, star, yb)))
    assert colim.size() == (5, 2)
    assert len(injs) == 3
    # injections jointly surjective and componentwise injective
    hit = {injs[i].state_map[x] for i, p in enumerate((ya, star, yb)) for x in p.states}
    assert hit == colim.state_set


def test_pushout_shares_source():
    sa, sb = source_inclusion(AB, "a"), source_inclusion(AB, "b")
    colim, (ia, ib) = colimit(sa.dom, (sa, sb))
    assert colim.size() == (3, 2)
    ea = ia.edge_maps["a"]["e"]
    eb = ib.edge_maps["b"]["e"]
    assert colim.src["a"][ea] == colim.src["b"][eb]
    # the legs really commute with the injections
    assert compose(ia, sa) == compose(ib, sb)


def test_coproduct_with_initial_is_iso():
    zero = empty_presheaf(AB)
    ya = representable(AB, "a")
    colim, (i0, i1) = colimit(*coproduct((zero, ya)))
    assert colim.size() == ya.size()
    assert i1.is_iso()


def test_colimit_rejects_other_shapes():
    with pytest.raises(ShapeUnsupported):
        colimit(representable(AB, "*"), ())


def find_lifting(square):
    """Solve for k : B -> X with k∘left = top and right∘k = bottom.

    Exhaustive search over the finitely many candidates.  Returns the
    lexicographically least solution (free states in sorted id order, each
    assigned the least admissible candidate first, then edges likewise), or
    None when no lifting exists.  The oracle for the lifting
    characterisation that is_functional_bisimulation checks edge by edge.
    """
    A, B = square.left.dom, square.left.cod
    X = square.right.dom
    left, top, right, bottom = square.left, square.top, square.right, square.bottom

    forced = {}
    for o in A.labels.objects:
        forced[o] = {}
        for c in A.cells(o):
            want = top.at(o)[c]
            if forced[o].setdefault(left.at(o)[c], want) != want:
                return None
    forced_state = forced[STAR]

    free_states = sorted(b for b in B.states if b not in forced_state)
    cand = []
    for b in free_states:
        cs = sorted(x for x in X.states if right.state_map[x] == bottom.state_map[b])
        if not cs:
            return None
        cand.append(cs)

    for choice in product(*cand) if free_states else [()]:
        k_state = dict(forced_state)
        k_state.update(zip(free_states, choice))
        k_edges = {}
        ok = True
        for lab in B.labels:
            k_edges[lab] = dict(forced[lab])
            for be in B.edges[lab]:
                if be in k_edges[lab]:
                    ex = k_edges[lab][be]
                    if (
                        X.src[lab][ex] != k_state[B.src[lab][be]]
                        or X.tgt[lab][ex] != k_state[B.tgt[lab][be]]
                    ):
                        ok = False
                        break
                    continue
                picks = sorted(
                    ex
                    for ex in X.out_edges(k_state[B.src[lab][be]], lab)
                    if right.edge_maps[lab][ex] == bottom.edge_maps[lab][be]
                    and X.tgt[lab][ex] == k_state[B.tgt[lab][be]]
                )
                if not picks:
                    ok = False
                    break
                k_edges[lab][be] = picks[0]
            if not ok:
                break
        if not ok:
            continue
        k = _map(B, X, k_state, k_edges)
        assert commutes(k, left, top) and commutes(right, k, bottom)
        return k
    return None


def test_find_lifting_identity_left():
    ya = representable(AB, "a")
    f = identity(ya)
    sq = LiftingSquare(left=identity(ya), top=f, right=f, bottom=f)
    k = find_lifting(sq)
    assert k == f


def _relation_projection_instance():
    """3-state system, relation {(x,z),(y,y)}: projection lifts s^a squares.

    Oracle: the only edge assignment for the generic a-edge is the pair
    (e1,e2), checked here by listing every candidate by hand: the relation
    system has exactly one a-edge.
    """
    L = LabelSet(("a",))
    X = make_presheaf(L, ("x", "y", "z"), [("a", "e1", "x", "y"), ("a", "e2", "z", "y")])
    R = make_presheaf(L, ("(x,z)", "(y,y)"), [("a", "(e1,e2)", "(x,z)", "(y,y)")])
    p1 = morphism(R, X, {"(x,z)": "x", "(y,y)": "y"}, {"a": {"(e1,e2)": "e1"}})
    return L, X, R, p1


def test_find_lifting_relation_projection():
    L, X, R, p1 = _relation_projection_instance()
    top = morphism(representable(L, "*"), R, {"*": "(x,z)"})
    bottom = morphism(representable(L, "a"), X, {"s": "x", "t": "y"}, {"a": {"e": "e1"}})
    sq = LiftingSquare(left=source_inclusion(L, "a"), top=top, right=p1, bottom=bottom)
    k = find_lifting(sq)
    assert k is not None
    assert k.edge_maps["a"]["e"] == "(e1,e2)"


def test_find_lifting_none_when_impossible():
    L = LabelSet(("a",))
    star, ya = representable(L, "*"), representable(L, "a")
    to_src = morphism(star, ya, {"*": "s"})
    sq = LiftingSquare(
        left=source_inclusion(L, "a"),
        top=identity(star),
        right=to_src,
        bottom=identity(ya),
    )
    assert find_lifting(sq) is None


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_out_edges_matches_scan(seed):
    X = random_presheaf(random.Random(seed), AB, max_states=6, max_edges=12)
    for x in X.states:
        for a in X.labels:
            assert X.out_edges(x, a) == tuple(e for e in X.edges[a] if X.src[a][e] == x)


def _source_squares(f):
    """Every commuting square from s^a to f, keyed by (state, label, edge):
    a domain state x on top and a codomain a-edge out of f(x) below."""
    X, Y = f.dom, f.cod
    squares = {}
    for a in X.labels:
        left = source_inclusion(X.labels, a)
        for x in X.states:
            top = morphism(left.dom, X, {STAR: x})
            for e in Y.edges[a]:
                if Y.src[a][e] != f.state_map[x]:
                    continue
                bottom = morphism(left.cod, Y, {"s": Y.src[a][e], "t": Y.tgt[a][e]}, {a: {"e": e}})
                squares[x, a, e] = LiftingSquare(left=left, top=top, right=f, bottom=bottom)
    return squares


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_functional_bisim_iff_every_source_square_lifts(seed, collapse):
    """The lifting characterisation, with find_lifting as the oracle."""
    rng = random.Random(seed)
    if collapse:
        _, f = random_collapse(random_presheaf(rng, AB, max_states=4), rng)
    else:
        f = random_functional_bisim(rng, AB)
    lifts = {key: find_lifting(sq) is not None for key, sq in _source_squares(f).items()}
    verdict = is_functional_bisimulation(f)
    assert bool(verdict) == all(lifts.values())
    if not verdict:
        assert not lifts[verdict.state, verdict.label, verdict.edge]


def test_lifting_square_must_commute():
    L = LabelSet(("a",))
    star, ya = representable(L, "*"), representable(L, "a")
    with pytest.raises(NonCommutingSquare):
        LiftingSquare(
            left=source_inclusion(L, "a"),
            top=identity(star),
            right=morphism(star, ya, {"*": "t"}),
            bottom=identity(ya),
        )


def test_functional_bisim_identity_and_counterexample():
    ya = representable(AB, "a")
    assert is_functional_bisimulation(identity(ya)) is True
    cx = is_functional_bisimulation(source_inclusion(AB, "a"))
    assert not cx
    assert (cx.state, cx.label, cx.edge) == ("*", "a", "e")


def test_diagonal_projections_are_functional_bisims():
    rng = random.Random(5)
    L = LabelSet(("a", "b"))
    from gsos.terms import random_presheaf

    X = random_presheaf(rng, L, max_states=5)
    P, p1, p2 = pullback(identity(X), identity(X))
    # the diagonal sits inside X x X; both projections restricted to it are isos
    diag_states = {f"({x},{x})" for x in X.states}
    assert diag_states <= P.state_set
    assert is_functional_bisimulation(p1) is True
    assert is_functional_bisimulation(p2) is True


def _random_covering(rng, L):
    from gsos.cellular import random_functional_bisim

    return random_functional_bisim(rng, L)


def test_functional_bisims_closed_under_composition():
    L = LabelSet(("a", "b"))
    for seed in range(10):
        rng = random.Random(seed)
        g = _random_covering(rng, L)
        # build a covering of g's domain, then compose
        from gsos.terms import random_presheaf

        rng2 = random.Random(seed + 100)
        copies = {y: rng2.randint(1, 2) for y in g.dom.states}
        states = tuple(f"{y}+{i}" for y in g.dom.states for i in range(copies[y]))
        sm = {f"{y}+{i}": y for y in g.dom.states for i in range(copies[y])}
        arrows = []
        em = {a: {} for a in L}
        for a in L:
            for e in g.dom.edges[a]:
                ys, yt = g.dom.src[a][e], g.dom.tgt[a][e]
                for i in range(copies[ys]):
                    j = rng2.randrange(copies[yt])
                    name = f"{e}+{i}"
                    arrows.append((a, name, f"{ys}+{i}", f"{yt}+{j}"))
                    em[a][name] = e
        cover = make_presheaf(L, states, arrows)
        f = morphism(cover, g.dom, sm, em)
        assert is_functional_bisimulation(f) is True
        assert is_functional_bisimulation(compose(g, f)) is True


def test_functional_bisims_stable_under_pullback():
    L = LabelSet(("a", "b"))
    from gsos.terms import random_presheaf

    for seed in range(10):
        rng = random.Random(seed)
        f = _random_covering(rng, L)
        U = random_presheaf(rng, L, max_states=3)
        # arbitrary u: U -> cod f, built by exhaustive-ish greedy choice
        candidates = list(all_morphisms(U, f.cod))
        if not candidates:
            continue
        u = candidates[rng.randrange(len(candidates))]
        P, p1, p2 = pullback(f, u)
        assert is_functional_bisimulation(p2) is True


def test_pullback_refuses_pair_names_that_collide():
    """Ids with a top-level comma can give two pairs one name ``(u,v)``;
    their cells must not merge into one."""
    L = LabelSet(("a",))
    X = make_presheaf(L, ("a", "a,b"), ())
    Y = make_presheaf(L, ("b,c", "c"), ())
    with pytest.raises(DuplicateId):
        pullback(bang(X), bang(Y))  # (a, b,c) and (a,b, c)
    loops = lambda state, ids: make_presheaf(L, (state,), [("a", e, state, state) for e in ids])
    with pytest.raises(DuplicateId):
        pullback(bang(loops("x", ("e", "e,f"))), bang(loops("y", ("f,g", "g"))))


def test_pullback_square_of_identities():
    ya = representable(AB, "a")
    i = identity(ya)
    assert all(pullback_report(LiftingSquare(left=i, top=i, right=i, bottom=i)).values())


def test_pullback_square_degenerate_product_leg_fails():
    """Oracle: brute-force 2-element instance.

    X has 1 state, Y has 2; the square X -> 1 <- Y with left = id_X cannot
    present X as the product X x Y because the fiber over (x, y2) is empty.
    """
    L = LabelSet(("a",))
    X = make_presheaf(L, ("x",), ())
    Y = make_presheaf(L, ("y1", "y2"), ())
    one = make_presheaf(L, ("*",), ())
    to_one_x = morphism(X, one, {"x": "*"})
    to_one_y = morphism(Y, one, {"y1": "*", "y2": "*"})
    pick = morphism(X, Y, {"x": "y1"})
    sq = LiftingSquare(left=pick, top=identity(X), right=to_one_x, bottom=to_one_y)
    assert not all(pullback_report(sq).values())


def test_colimit_injection_commutations_random():
    rng = random.Random(11)
    L = LabelSet(("a", "b"))
    from gsos.terms import random_presheaf

    apex = representable(L, "*")
    legs = []
    for i in range(3):
        P = random_presheaf(rng, L, max_states=3)
        legs.append(morphism(apex, P, {"*": rng.choice(P.states)}))
    colim, injs = colimit(apex, tuple(legs))
    first = compose(injs[0], legs[0])
    for leg, inj in zip(legs, injs):
        assert compose(inj, leg) == first
    # injections are jointly surjective
    hit_states = {inj.state_map[x] for inj in injs for x in inj.dom.states}
    assert hit_states == colim.state_set
    for a in L:
        hit = {inj.edge_maps[a][e] for inj in injs for e in inj.dom.edges[a]}
        assert hit == set(colim.edges[a])


def test_json_round_trip(paper_lts):
    text = json.dumps(presheaf_doc(paper_lts))
    assert presheaf_from_json(text) == paper_lts
    doc = json.loads(text)
    assert doc["states"] == ["x", "y", "z"]


def test_morphism_json_round_trip(paper_lts):
    f = identity(paper_lts)
    assert morphism_from_json(morphism_to_json(f)) == f


def test_dot_export(paper_lts):
    dot = presheaf_to_dot(paper_lts)
    assert dot.count("->") == 4
    assert '"f:b"' in dot or 'label="f:b"' in dot


def test_dot_export_escapes_quotes_and_backslashes():
    X = make_presheaf(AB, ('p"q', "r"), [("a", "e\\1", 'p"q', "r")])
    assert presheaf_to_dot(X) == (
        'digraph lts {\n'
        '  "p\\"q";\n'
        '  "r";\n'
        '  "p\\"q" -> "r" [label="e\\\\1:a"];\n'
        '}\n'
    )


def test_bang_and_terminal():
    one = terminal(AB)
    assert one.size() == (1, 2)
    ya = representable(AB, "a")
    assert is_functional_bisimulation(bang(ya)) is not True  # y_a has no b-loop lift
    assert bang(terminal(AB)).is_iso()


@settings(max_examples=200, deadline=None)
@given(ident=st.text(alphabet="ab() ,", max_size=6))
def test_loader_accepts_exactly_the_ids_that_read_back(ccs, ident):
    """An id is accepted iff var(id) and ax(id) parse back to the same leaf."""
    doc = {
        "labels": list(ccs.labels),
        "states": [ident],
        "edges": {"a": [{"id": ident, "src": ident, "tgt": ident}]},
    }
    try:
        X = presheaf_from_json(json.dumps(doc))
    except MalformedSystem:
        X = make_presheaf(ccs.labels, [ident], [("a", ident, ident, ident)])
        for parse, leaf in ((parse_term, Var(ident)), (parse_proof, Axiom(ident, "a"))):
            try:
                assert parse(ccs, X, render(leaf)) != leaf
            except GsosError:
                pass
        return
    assert parse_term(ccs, X, render(Var(ident))) == Var(ident)
    assert parse_proof(ccs, X, render(Axiom(ident, "a"))) == Axiom(ident, "a")


@pytest.mark.parametrize(
    "doc, named",
    [
        ("[1, 2", "not a JSON document"),
        ({"dom": {"labels": ["a"], "states": ["x"]}}, "'cod'"),
        ({"dom": {"labels": ["a"], "states": ["x"]}, "cod": {"labels": ["a"], "states": ["y"]},
          "states": ["x"]}, "morphism.states"),
        ({"dom": {"labels": ["a"], "states": [" x"]}, "cod": {"labels": ["a"], "states": ["y"]},
          "states": {" x": "y"}}, "' x'"),
    ],
    ids=["not-json", "no-cod", "states-not-an-object", "id-with-space"],
)
def test_morphism_loader_names_the_bad_field(doc, named):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(MalformedSystem, match=named):
        morphism_from_json(text)


def _loop_map_doc() -> dict:
    """The morphism document of a map from a one-edge loop to another."""
    def loop(x, e):
        return {"labels": ["a"], "states": [x], "edges": {"a": [{"id": e, "src": x, "tgt": x}]}}

    return {"dom": loop("x", "e"), "cod": loop("y", "d"), "states": {"x": "y"}, "edges": {"a": {"e": "d"}}}


@pytest.mark.parametrize(
    "path, key, value, error, named",
    [
        (["states"], "ghost", "y", MalformedSystem, "morphism.states maps 'ghost'"),
        (["edges", "a"], "zzz", "d", MalformedSystem, "morphism.edges.a maps 'zzz'"),
        (["edges"], "nolabel", {}, UnknownLabel, "'nolabel'"),
        (["dom", "edges"], "zz", [], UnknownLabel, "'zz'"),
        ([], "edgemaps", {}, MalformedSystem, r"morphism\.edgemaps is not a field"),
    ],
    ids=[
        "state-not-in-dom",
        "edge-not-in-dom",
        "label-not-declared",
        "empty-edges-of-undeclared-label",
        "unknown-field",
    ],
)
def test_morphism_loader_refuses_stray_entries(path, key, value, error, named):
    """An entry the document has no place for (a cell or a label that dom
    lacks, or a field no loader knows) is refused, not kept in the map or
    dropped; the document without it loads."""
    doc = _loop_map_doc()
    assert morphism_from_json(json.dumps(doc)).state_map == {"x": "y"}
    mapping = doc
    for field in path:
        mapping = mapping[field]
    mapping[key] = value
    with pytest.raises(error, match=named):
        morphism_from_json(json.dumps(doc))


def test_morphism_loader_reads_cod_over_the_labels_of_dom():
    """A morphism file may list the labels in any order: when dom and cod
    list the same ones, cod is read over dom's label set."""
    doc = _loop_map_doc()
    doc["dom"]["labels"], doc["cod"]["labels"] = ["a", "a_bar", "tau"], ["tau", "a", "a_bar"]
    f = morphism_from_json(json.dumps(doc))
    assert f.cod.labels is f.dom.labels
    assert f.edge_maps["a"] == {"e": "d"}
    doc["cod"]["labels"].append("b")
    with pytest.raises(UnknownLabel):
        morphism_from_json(json.dumps(doc))


# Each fault of an arrow list and the kind that refuses it.
FAULTS = {
    "repeated-state": DuplicateId,
    "edge-repeated-at-a-label": DuplicateId,
    "edge-repeated-across-labels": DuplicateId,
    "undeclared-label": UnknownLabel,
    "endpoint-not-a-state": DanglingEdge,
}


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([None, *FAULTS]))
def test_make_presheaf_checks_what_system_trusts(seed, fault):
    """Over the arrows of a random system, make_presheaf builds what
    _system builds, and refuses each injected fault with its own kind."""
    rng = random.Random(seed)
    X = random_presheaf(rng, AB)
    states, arrows = list(X.states), _arrows(X)
    if fault is None:
        built = make_presheaf(AB, states, arrows)
        assert built == _system(AB, states, arrows) and built.edges == X.edges
        return
    a, e, s, t = rng.choice(arrows)
    if fault == "repeated-state":
        states.insert(rng.randrange(len(states) + 1), s)
    else:
        bad = {
            "edge-repeated-at-a-label": (a, e, t, s),
            "edge-repeated-across-labels": ("b" if a == "a" else "a", e, s, t),
            "undeclared-label": ("c", "fresh", s, t),
            "endpoint-not-a-state": (a, "fresh", s, "nowhere"),
        }[fault]
        arrows.insert(rng.randrange(len(arrows) + 1), bad)
    with pytest.raises(FAULTS[fault]):
        make_presheaf(AB, states, arrows)


def _arrows(X):
    return [(a, e, X.src[a][e], X.tgt[a][e]) for a, e in X.all_edges()]


def _rebuilt(X):
    return make_presheaf(X.labels, X.states, _arrows(X))


def _rebuilt_morphism(f):
    return morphism(
        _rebuilt(f.dom),
        _rebuilt(f.cod),
        dict(f.state_map),
        {a: dict(f.edge_maps[a]) for a in f.dom.labels},
    )


def _fieldwise_eq(X, Y):
    return (
        X.labels == Y.labels
        and set(X.states) == set(Y.states)
        and all(set(X.edges[a]) == set(Y.edges[a]) for a in X.labels)
        and all(dict(X.src[a]) == dict(Y.src[a]) for a in X.labels)
        and all(dict(X.tgt[a]) == dict(Y.tgt[a]) for a in X.labels)
    )


def _fieldwise_morphism_eq(f, g):
    return (
        _fieldwise_eq(f.dom, g.dom)
        and _fieldwise_eq(f.cod, g.cod)
        and {x: f.state_map[x] for x in f.dom.states} == {x: g.state_map[x] for x in g.dom.states}
        and all(
            {e: f.edge_maps[a][e] for e in f.dom.edges[a]}
            == {e: g.edge_maps[a][e] for e in g.dom.edges[a]}
            for a in f.dom.labels
        )
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_equality_agrees_with_fieldwise_comparison(seed, other_seed):
    """The identity fast paths of both equalities change no answer: the same
    object, a rebuilt copy and an unrelated value compare as field by field."""
    rng = random.Random(seed)
    X = random_presheaf(rng, AB, max_states=4)
    Y = random_presheaf(random.Random(other_seed), AB, max_states=4)
    _, u = random_collapse(X, rng)
    f = random_functional_bisim(rng, AB)
    systems = (X, _rebuilt(X), Y, _rebuilt(Y), u.cod, f.dom)
    for P, Q in product(systems, repeat=2):
        assert (P == Q) == _fieldwise_eq(P, Q)
    maps = (u, _rebuilt_morphism(u), f, _rebuilt_morphism(f), identity(X), identity(_rebuilt(X)))
    for g, h in product(maps, repeat=2):
        assert (g == h) == _fieldwise_morphism_eq(g, h)


def _assert_rebuilds(*built):
    """Each system or map is accepted by make_presheaf/morphism and rebuilds equal."""
    for z in built:
        if isinstance(z, PresheafMorphism):
            assert _rebuilt_morphism(z) == z
        else:
            assert _rebuilt(z) == z


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=1))
def test_internal_builders_pass_the_checked_constructors(ccs, seed, d):
    """The program builds its own systems and maps unchecked; every builder's
    output must still be what the checked constructors accept."""
    rng = random.Random(seed)
    L = ccs.labels
    one = terminal(L)
    X = random_presheaf(rng, L, max_states=3, max_edges=4)
    Y = random_presheaf(rng, L, max_states=3, max_edges=4)
    _, u = random_collapse(X, rng)
    _, v = random_collapse(X, rng)
    f = random_functional_bisim(rng, L)
    _assert_rebuilds(X, Y, u, v, f, one, empty_presheaf(L), identity(X), bang(X))
    for a in L:
        _assert_rebuilds(representable(L, a), source_inclusion(L, a))
        pick = morphism(representable(L, STAR), X, {STAR: rng.choice(X.states)})
        square = LiftingSquare(source_inclusion(L, a), pick, bang(X), bang(representable(L, a)))
        k = find_lifting(square)
        if k is not None:
            _assert_rebuilds(k)
    C, injections = colimit(*coproduct((X, Y)))
    P, legs = colimit(X, (u, v))
    _assert_rebuilds(C, *injections, P, *legs, compose(legs[0], u))
    _assert_rebuilds(*pullback(u, u), *pullback(f, f), *pullback(bang(X), bang(Y)))
    _assert_rebuilds(*all_morphisms(X, one))

    for Z in (X, one):
        T = truncated_free(ccs, Z, d)
        TT = truncated_free_squared(ccs, Z, d)
        _assert_rebuilds(T[0], TT[0], eta(Z, T[0]), window_map(TT, T[0], *MU_LEAVES))
    seed_term = random_term(ccs, rng, (), 3)
    _assert_rebuilds(reachable_fragment(ccs, [seed_term], 2, proof_successors(ccs)).carrier)

    elem = random_layer_element(ccs, X, rng, 1, 2, "proof")
    shape = to_terminal(elem)
    src_mor = arity_label(L, shape)
    dec = decompose(X, elem)
    _assert_rebuilds(dec.filler, decompose(X, proof_source(X, elem)).filler)
    _assert_rebuilds(src_mor.cod, src_mor, arity_tgt_morphism(L, shape))
    _assert_rebuilds(*replay_certificate(cell_certificate(L, shape)))

    pairs = frozenset((x, y) for x in X.states for y in X.states if rng.random() < 0.5)
    _assert_rebuilds(*relation_presheaf(RelationOnStates(X, pairs)))


_ORACLE_RUNS = [
    ["verify", CCS, "--suite", suite, "--cases", "50", "-d", "3"]
    for suite in ("laws", "familial", "cellular", "preserve")
] + [
    ["verify", CCS, "--suite", "cartesian", "-d", "1"],
    ["verify", CCS, "--suite", "congruence"],
    ["lts", CCS, "--term", "par(pref_a_bar(nil),bang(sum(pref_a(nil),pref_a_bar(nil))))",
     "--fuel", "3"],
    ["bisim", CCS, "--t1", "sum(pref_a(nil),pref_a(nil))", "--t2", "pref_a(nil)",
     "-k", "3", "--fuel", "4"],
]


def test_cli_runs_build_only_checkable_systems_and_maps(monkeypatch, capsys):
    """Rebind _system and _map wherever gsos holds them, as the benchmark
    tracer rebinds its names, to versions that rebuild each result through
    the checked constructors; then run the CLI end to end."""
    import sys

    import gsos.presheaf as presheaf
    from gsos.cli import main

    built = {"systems": 0, "maps": 0}
    unchecked_system, unchecked_map = presheaf._system, presheaf._map

    def checked_system(labels, states, arrows):
        states, arrows = tuple(states), tuple(arrows)
        X = unchecked_system(labels, states, arrows)
        # make_presheaf builds through _system as well: the rebuild runs
        # with the original bound, or each check would start another
        with monkeypatch.context() as rebuild:
            rebuild.setattr(presheaf, "_system", unchecked_system)
            assert make_presheaf(labels, states, arrows) == X
        built["systems"] += 1
        return X

    def checked_map(dom, cod, state_map, edge_maps=None):
        f = unchecked_map(dom, cod, state_map, edge_maps)
        presheaf._check_map(f)
        built["maps"] += 1
        return f

    for name, module in list(sys.modules.items()):
        if name == "gsos" or name.startswith("gsos."):
            for key, value in list(vars(module).items()):
                if value is unchecked_system:
                    monkeypatch.setattr(module, key, checked_system)
                elif value is unchecked_map:
                    monkeypatch.setattr(module, key, checked_map)
    shared = (terminal, representable, source_inclusion)
    for builder in shared:
        builder.cache_clear()
    try:
        for argv in _ORACLE_RUNS:
            assert main(argv) == 0, argv
            out, _ = capsys.readouterr()
            assert json.loads(out).get("ok", True) is True, argv
    finally:
        for builder in shared:
            builder.cache_clear()
    assert built["systems"] > 0 and built["maps"] > 0
