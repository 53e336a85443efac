"""Window maps from leaf texts, and the flattened height, against the code
they replace.

The old ``window_map`` built the image of every window element with a
per-element function (``mu``, ``to_terminal``, ``T(!)``, ``T_on_element``)
and rendered it; the new one formats each distinct node's image text once
from the texts of the leaf images.  The old depth filter flattened each
element with ``mu`` and measured it with a one-layer height or depth; a
term's flattened height is now read off its layers without flattening.
The oracles below are the old code, with an uncached copy of the old
renderer, so a slip in the shared node formatter shows here too.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsos.cellular import random_functional_bisim
from gsos.errors import MalformedProof
from gsos.presheaf import _map, representable, terminal
from gsos.terms import (
    MU_LEAVES,
    TERMINAL_LEAVES,
    App,
    Axiom,
    ImageText,
    T_on_element,
    Var,
    flattened_height,
    lift_leaves,
    map_leaves,
    mu,
    proof_source,
    proof_target,
    random_layer_element,
    random_presheaf,
    to_terminal,
    truncated_free,
    truncated_free_squared,
    window_map,
)

from oracles import T_on_morphism, _old_element_depth
from round_trips import load_bundled_spec


def _old_render(elem) -> str:
    """render as it was: recursive, nothing cached."""
    if isinstance(elem, Var):
        name = elem.name
        return f"var({name if isinstance(name, str) else _old_render(name)})"
    if isinstance(elem, App):
        if not elem.args:
            return elem.op
        return f"{elem.op}({','.join(_old_render(t) for t in elem.args)})"
    if isinstance(elem, Axiom):
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


def _old_window_map(window, cod, f):
    """window_map as it was: render f(e) for every state and edge e."""
    P, terms, proofs = window
    return _map(
        P,
        cod,
        {key: _old_render(f(t)) for key, t in terms.items()},
        {a: {key: _old_render(f(proofs[key])) for key in P.edges[a]} for a in P.labels},
    )


def _old_mu(elem):
    """mu as it was, with its two refusals written inline."""
    if isinstance(elem, Var):
        if isinstance(elem.name, str):
            raise MalformedProof(f"{_old_render(elem)!r} wraps an ambient state: mu needs two layers")
        return elem.name
    if isinstance(elem, App):
        return App(elem.op, tuple(_old_mu(a) for a in elem.args))
    if isinstance(elem, Axiom):
        inner = elem.edge
        if isinstance(inner, str):
            raise MalformedProof(f"{_old_render(elem)!r} wraps an ambient edge: mu needs two layers")
        if inner.label != elem.label:
            raise MalformedProof(f"axiom label mismatch flattening {_old_render(elem)!r}")
        return inner
    return type(elem)(
        elem.rule,
        tuple(
            tuple(_old_mu(r) for r in arg) if isinstance(arg, tuple) else _old_mu(arg)
            for arg in elem.args
        ),
    )


def _old_t_bang(elem):
    return map_leaves(elem, to_terminal, lambda p, _a: to_terminal(p))


def _assert_same_map(new, old):
    """Same state map and edge maps, dict for dict, in the same order."""
    assert list(new.state_map.items()) == list(old.state_map.items())
    assert list(new.edge_maps) == list(old.edge_maps)
    for a in old.edge_maps:
        assert list(new.edge_maps[a].items()) == list(old.edge_maps[a].items())


def _assert_window_maps_match(spec, Z, d):
    """mu, to_terminal and T(!) on the depth-d windows over Z and over 1."""
    one = terminal(Z.labels)
    T_Z, T_1 = truncated_free(spec, Z, d), truncated_free(spec, one, d)
    TT_Z, TT_1 = truncated_free_squared(spec, Z, d), truncated_free_squared(spec, one, d)
    for TT, T in ((TT_Z, T_Z), (TT_1, T_1)):
        _assert_same_map(window_map(TT, T[0], *MU_LEAVES), _old_window_map(TT, T[0], _old_mu))
    for T in (T_Z, T_1):
        _assert_same_map(
            window_map(T, T_1[0], *TERMINAL_LEAVES), _old_window_map(T, T_1[0], to_terminal)
        )
    for TT in (TT_Z, TT_1):
        _assert_same_map(
            window_map(TT, TT_1[0], *lift_leaves(*TERMINAL_LEAVES)),
            _old_window_map(TT, TT_1[0], _old_t_bang),
        )


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("ambient", ["y_a", "1", "rsync"])
def test_window_maps_match_old_window_map(ccs, rsync_ambient, ambient, d):
    Z = {
        "y_a": representable(ccs.labels, "a"),
        "1": terminal(ccs.labels),
        "rsync": rsync_ambient,
    }[ambient]
    _assert_window_maps_match(ccs, Z, d)


@pytest.mark.parametrize("seed", range(3))
def test_window_maps_match_old_window_map_on_random_systems(ccs, seed):
    rng = random.Random(seed)
    _assert_window_maps_match(ccs, random_presheaf(rng, ccs.labels, max_states=3), 1)
    _assert_window_maps_match(ccs, random_presheaf(rng, ccs.labels, max_states=1), 2)


@pytest.mark.parametrize("seed", range(4))
def test_T_on_morphism_matches_old_window_map(ccs, seed):
    """T(f) along random coverings: leaf texts against T_on_element."""
    rng = random.Random(seed)
    for _ in range(3):
        f = random_functional_bisim(rng, ccs.labels)
        d = 2 if len(f.dom.states) <= 2 else 1
        old = _old_window_map(
            truncated_free(ccs, f.dom, d),
            truncated_free(ccs, f.cod, d)[0],
            lambda z: T_on_element(f, z),
        )
        _assert_same_map(T_on_morphism(ccs, f, d), old)


def _outcome(f, elem) -> str:
    """The text f gives elem, or the message of its MalformedProof."""
    try:
        out = f(elem)
    except MalformedProof as exc:
        return f"refused: {exc}"
    return out if isinstance(out, str) else _old_render(out)


def test_mu_leaves_refuse_like_old_mu(ccs, rsync_ambient):
    """On a one-layer window mu's leaf texts refuse every element with a
    leaf, with old mu's message; so does a two-layer axiom whose payload has
    another label."""
    T = truncated_free(ccs, rsync_ambient, 1)
    with pytest.raises(MalformedProof) as exc:
        window_map(T, T[0], *MU_LEAVES)
    assert f"refused: {exc.value}" == _outcome(_old_mu, next(iter(T[1].values())))
    image = ImageText(*MU_LEAVES)
    elements = [*T[1].values(), *T[2].values()]
    refused = 0
    for elem in elements:
        want = _outcome(_old_mu, elem)
        assert _outcome(image, elem) == want
        refused += want.startswith("refused: ")
    assert refused > len(elements) / 2
    p = next(e for e in T[2].values() if not isinstance(e, Axiom))
    other = next(a for a in ccs.labels if a != p.label)
    want = _outcome(_old_mu, Axiom(p, other))
    assert "label mismatch" in want
    assert _outcome(image, Axiom(p, other)) == want


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    level=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["term", "proof"]),
)
def test_flattened_depth_matches_flatten_then_measure(ccs, seed, level, kind):
    """The flattened height of a term, or of a proof's source and target,
    is the one-layer height of its flattening."""
    rng = random.Random(seed)
    X = random_presheaf(rng, ccs.labels, max_states=4)
    elems = [random_layer_element(ccs, X, rng, level, 3, kind) for _ in range(3)]
    for elem in elems:
        terms = [elem] if kind == "term" else [proof_source(X, elem), proof_target(X, elem)]
        for t in terms:
            flat = t
            for _ in range(level - 1):
                flat = mu(flat)
            assert flattened_height(t) == _old_element_depth(flat)


def _depth_ignoring_terms(elem) -> int:
    """A wrong proof depth: premise-less arguments count as 0."""
    if isinstance(elem, Axiom):
        return 0
    prems = [r for arg in elem.args if isinstance(arg, tuple) for r in arg]
    return 1 + max((_depth_ignoring_terms(r) for r in prems), default=0)


def _depth_mismatches(spec, seed, level, depth) -> list:
    """The proofs drawn from the seed whose flattening is not, by the given
    depth measure, as deep as their source is high."""
    rng = random.Random(seed)
    X = random_presheaf(rng, spec.labels, max_states=4)
    mismatches = []
    for _ in range(3):
        p = random_layer_element(spec, X, rng, level, 3, "proof")
        flat = p
        for _ in range(level - 1):
            flat = mu(flat)
        if depth(flat) != flattened_height(proof_source(X, p)):
            mismatches.append(p)
    return mismatches


SPECS = {name: load_bundled_spec(name) for name in ("ccs", "toy")}


@pytest.mark.parametrize("spec", sorted(SPECS))
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    level=st.integers(min_value=1, max_value=3),
)
def test_a_proof_is_as_deep_as_its_source_is_high(spec, seed, level):
    """The fact the windows rest on: a flattened proof's depth is the
    flattened height of its source, so no proof needs measuring."""
    assert _depth_mismatches(SPECS[spec], seed, level, _old_element_depth) == []


def test_a_measure_that_skips_term_arguments_breaks_the_invariant():
    """Negative control: counting term(...) arguments as 0 is caught.  Only
    ccs has rules with premise-less arguments; toy's one rule has none."""
    ccs = SPECS["ccs"]
    found = [p for seed in range(40) for p in _depth_mismatches(ccs, seed, 1, _depth_ignoring_terms)]
    assert found
