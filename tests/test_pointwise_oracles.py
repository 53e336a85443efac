"""The pointwise constructions of gsos.presheaf against reference versions.

Each construction is one loop over the base objects through ``cells(o)``
and ``at(o)``.  The references below compute the same answers written out
once over the states and again per label, and a coproduct by naming its
cells directly; every test compares the two on seeded maps, squares and
coproducts (the wide pushout of the parts under the empty system, which
``oracles.coproduct`` builds).
"""

import random
from collections import Counter
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from gsos.cellular import random_functional_bisim
from gsos.familial import random_collapse
from gsos.presheaf import (
    STAR,
    LabelSet,
    LiftingSquare,
    _map,
    _system,
    bang,
    colimit,
    identity,
    pullback_report,
)
from gsos.terms import random_presheaf

from oracles import compose, coproduct, pullback

AB = LabelSet(("a", "b"))


def reference_morphism_eq(f, g) -> bool:
    return (
        f.dom == g.dom
        and f.cod == g.cod
        and {x: f.state_map[x] for x in f.dom.states} == {x: g.state_map[x] for x in g.dom.states}
        and all(
            {e: f.edge_maps[a][e] for e in f.dom.edges[a]}
            == {e: g.edge_maps[a][e] for e in g.dom.edges[a]}
            for a in f.dom.labels
        )
    )


def reference_is_injective(f) -> bool:
    sm = [f.state_map[x] for x in f.dom.states]
    if len(set(sm)) != len(sm):
        return False
    for a in f.dom.labels:
        em = [f.edge_maps[a][e] for e in f.dom.edges[a]]
        if len(set(em)) != len(em):
            return False
    return True


def reference_is_surjective(f) -> bool:
    if set(f.state_map[x] for x in f.dom.states) != f.cod.state_set:
        return False
    for a in f.dom.labels:
        if set(f.edge_maps[a][e] for e in f.dom.edges[a]) != set(f.cod.edges[a]):
            return False
    return True


def reference_pullback_report(square) -> dict:
    A, B, X = square.left.dom, square.left.cod, square.right.dom

    def bijective(dom_items, into_b, into_x, b_items, x_items, b_val, x_val) -> bool:
        got = [(into_b(i), into_x(i)) for i in dom_items]
        if len(set(got)) != len(got):
            return False
        fib_b = Counter(b_val(b) for b in b_items)
        fib_x = Counter(x_val(x) for x in x_items)
        want_size = sum(n * fib_x.get(v, 0) for v, n in fib_b.items())
        return len(got) == want_size

    report = {
        STAR: bijective(
            A.states,
            lambda s: square.left.state_map[s],
            lambda s: square.top.state_map[s],
            B.states,
            X.states,
            lambda b: square.bottom.state_map[b],
            lambda x: square.right.state_map[x],
        )
    }
    for a in A.labels:
        report[a] = bijective(
            A.edges[a],
            lambda e, a=a: square.left.edge_maps[a][e],
            lambda e, a=a: square.top.edge_maps[a][e],
            B.edges[a],
            X.edges[a],
            lambda e, a=a: square.bottom.edge_maps[a][e],
            lambda e, a=a: square.right.edge_maps[a][e],
        )
    return report


def reference_coproduct(parts):
    labels = parts[0].labels
    colim = _system(
        labels,
        (f"inj{i}/{x}" for i, p in enumerate(parts) for x in p.states),
        (
            (a, f"inj{i}/{e}", f"inj{i}/{p.src[a][e]}", f"inj{i}/{p.tgt[a][e]}")
            for a in labels
            for i, p in enumerate(parts)
            for e in p.edges[a]
        ),
    )
    injections = tuple(
        _map(
            p,
            colim,
            {x: f"inj{i}/{x}" for x in p.states},
            {a: {e: f"inj{i}/{e}" for e in p.edges[a]} for a in p.labels},
        )
        for i, p in enumerate(parts)
    )
    return colim, injections


def _seeded_maps_and_squares(seed):
    """Maps from collapses, coverings, composites and pullback projections,
    and commuting squares built from them (pullback squares among them)."""
    rng = random.Random(seed)
    X = random_presheaf(rng, AB, max_states=4)
    B, u = random_collapse(X, rng)
    _, v = random_collapse(B, rng)
    _, u2 = random_collapse(X, rng)
    f = random_functional_bisim(rng, AB)
    _, w = random_collapse(f.cod, rng)
    wf = compose(w, f)
    _, p1, p2 = pullback(wf, w)
    _, q1, q2 = pullback(u, u)
    _, r1, r2 = pullback(bang(X), bang(f.cod))
    maps = [u, v, u2, f, w, wf, p1, p2, q1, q2, r1, r2, identity(X), bang(X), compose(v, u)]
    maps.append(_map(u.dom, u.cod, u.state_map, u.edge_maps))
    squares = [
        LiftingSquare(left=p1, top=p2, right=w, bottom=wf),
        LiftingSquare(left=p2, top=p1, right=wf, bottom=w),
        LiftingSquare(left=q1, top=q2, right=u, bottom=u),
        LiftingSquare(left=r1, top=r2, right=bang(f.cod), bottom=bang(X)),
        LiftingSquare(left=u, top=identity(X), right=compose(v, u), bottom=v),
        LiftingSquare(left=identity(X), top=u, right=v, bottom=compose(v, u)),
        LiftingSquare(left=u, top=u, right=identity(B), bottom=identity(B)),
        LiftingSquare(left=f, top=identity(f.dom), right=wf, bottom=w),
        LiftingSquare(left=u, top=u2, right=bang(u2.cod), bottom=bang(B)),
    ]
    return maps, squares


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_morphism_predicates_match_references(seed):
    maps, _ = _seeded_maps_and_squares(seed)
    for f in maps:
        assert f.is_iso() == (reference_is_injective(f) and reference_is_surjective(f))
    for f, g in product(maps, repeat=2):
        assert (f == g) == reference_morphism_eq(f, g)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pullback_report_matches_reference(seed):
    _, squares = _seeded_maps_and_squares(seed)
    for square in squares:
        report = pullback_report(square)
        assert report == reference_pullback_report(square)
        assert list(report) == list(AB.objects)
    # the squares built by pullback itself are pullbacks at every object
    assert all(all(pullback_report(square).values()) for square in squares[:4])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4))
def test_coproduct_matches_reference(seed, n_parts):
    rng = random.Random(seed)
    parts = tuple(random_presheaf(rng, AB, max_states=3, max_edges=4) for _ in range(n_parts))
    colim, injections = colimit(*coproduct(parts))
    want, want_injections = reference_coproduct(parts)
    assert colim == want
    assert injections == want_injections
