"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Everything is seeded; tolerances are exact (structural equality
or zero-failure counts) throughout.
"""

import json
import random

import pytest

from gsos import bundled_spec_path
from gsos.bisim import congruence_test, enumerate_contexts
from gsos.cellular import (
    cell_certificate,
    check_eta_cartesian,
    check_mu_cartesian,
    preserve_bisim_lift,
    random_functional_bisim,
    unique_R0,
    verify_certificate,
    window_bang,
)
from gsos.cli import run_cases
from gsos.errors import SpecParseError
from gsos.familial import (
    arity_label,
    arity_tgt_morphism,
    decompose,
    random_collapse,
    recompose,
)
from gsos.presheaf import (
    compose,
    is_functional_bisimulation,
    morphism,
    representable,
    terminal,
)
from gsos.specdsl import parse_spec
from gsos.terms import (
    ambient_axioms,
    derive,
    lift_mu,
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
    to_terminal,
    truncated_free,
    truncated_free_squared,
    two_layer_terms,
)


def _pass(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_sync_decomposition_golden(ccs, sync_ambient):
    """Golden synchronisation case: shape, arity and both structure maps."""
    p = parse_proof(ccs, sync_ambient, "sync(lpar(ax(e1),term(var(x2))),ax(e2))")
    dec = decompose(sync_ambient, p)
    assert render(dec.shape) == "sync(lpar[L=a_bar](ax(a_bar),term(var(*))),ax(a))"
    smor = arity_label(ccs.labels, dec.shape)
    assert smor.cod.size() == (5, 2)
    e_bar, e_in = "arg0/prem0/arg0/prem0/e", "arg1/prem0/e"
    assert smor.cod.edges["a_bar"] == (e_bar,) and smor.cod.edges["a"] == (e_in,)
    # source morphism = s^a_bar + point + s^a under the cell naming
    assert smor.state_map == {"occ0": "occ0", "occ1": "occ1", "occ2": "occ2"}
    assert smor.cod.src["a_bar"][e_bar] == "occ0"
    assert smor.cod.src["a"][e_in] == "occ2"
    # target morphism = t^a_bar + point + t^a
    tmor = arity_tgt_morphism(ccs.labels, dec.shape)
    assert tmor.state_map == {
        "occ0": smor.cod.tgt["a_bar"][e_bar],
        "occ1": "occ1",
        "occ2": smor.cod.tgt["a"][e_in],
    }
    _pass(1, "sync decomposition matches its golden shape and arity exactly")


def test_criterion_02_rsync_arity_golden(ccs, rsync_ambient):
    """Replicated synchronisation: glued arity, diagonal source, routed target."""
    p = parse_proof(ccs, rsync_ambient, "rsync(ax(e1),ax(e2))")
    sh = to_terminal(p)
    smor = arity_label(ccs.labels, sh)
    assert smor.cod.size() == (3, 2)
    assert smor.cod.src["a_bar"]["arg0/prem0/e"] == smor.cod.src["a"]["arg0/prem1/e"]
    assert smor.state_map == {"occ0": "occ0"}  # the diagonal
    tmor = arity_tgt_morphism(ccs.labels, sh)
    assert tmor.state_map == {
        "occ0": "occ0",                    # x1 via the shared source
        "occ1": smor.cod.tgt["a_bar"]["arg0/prem0/e"],  # y1_1 via t^a_bar
        "occ2": smor.cod.tgt["a"]["arg0/prem1/e"],      # y1_2 via t^a
    }
    _pass(2, "rsync arity matches its golden glued shape exactly")


def test_criterion_03_monad_laws(ccs):
    rep = run_cases(monad_law_failures, ccs, seed=2026, cases=500, d=3)
    assert rep["cases"] == 500
    assert rep["failures"] == [], rep["failures"][:3]
    _pass(3, "both unit laws and associativity on 500 seeded elements, 0 failures")


def test_criterion_04_familiality_round_trip(ccs):
    failures = []
    for case in range(1000):
        rng = random.Random(40_000 + case)
        X = random_presheaf(rng, ccs.labels, max_states=4)
        kind = rng.choice(["term", "proof"])
        d = rng.randint(0, 4) if kind == "term" else rng.randint(1, 4)
        elem = random_layer_element(ccs, X, rng, 1, d, kind)
        dec = decompose(X, elem)
        if recompose(dec, X) != elem:
            failures.append(f"round trip on {render(elem)}")
            continue
        # naturality in the ambient system
        B, u = random_collapse(X, rng)
        moved = map_leaves(elem, lambda x: u.state_map[x], lambda e, a: u.edge_maps[a][e])
        dec2 = decompose(B, moved)
        if dec2.shape != dec.shape or dec2.filler != compose(u, dec.filler):
            failures.append(f"naturality in X on {render(elem)}")
            continue
        # naturality in the base object
        if kind == "proof":
            smor = arity_label(ccs.labels, dec.shape)
            if decompose(X, proof_source(X, elem)).filler != compose(dec.filler, smor):
                failures.append(f"source naturality on {render(elem)}")
                continue
            tmor = arity_tgt_morphism(ccs.labels, dec.shape)
            if decompose(X, proof_target(X, elem)).filler != compose(dec.filler, tmor):
                failures.append(f"target naturality on {render(elem)}")
    assert failures == [], failures[:3]
    _pass(4, "decompose/recompose and both naturality equations on 1000 elements")


def test_criterion_05_cellularity(ccs):
    one = terminal(ccs.labels)
    failures = []
    for case in range(200):
        rng = random.Random(50_000 + case)
        p = random_layer_element(ccs, one, rng, 1, 3, "proof")
        sh = to_terminal(p)
        cert = cell_certificate(ccs.labels, sh)
        if not verify_certificate(cert):
            failures.append(render(sh))
            continue
        smor = arity_label(ccs.labels, sh)
        if cert.claimed_composite != smor:
            failures.append(f"replay differs on {render(sh)}")
    assert failures == [], failures[:3]
    _pass(5, "200 seeded shapes certify and replay to their source arity morphism")


def _strip_maps():
    return to_terminal, lambda e, a: to_terminal(e)


def test_criterion_06_cartesianness(ccs, toy):
    for spec in (ccs, toy):
        X = representable(spec.labels, list(spec.labels)[0])
        for d in (1, 2):
            t_bang = window_bang(spec, X, d)
            mu_rep = check_mu_cartesian(spec, X, d, t_bang)
            assert mu_rep["ok"], mu_rep
            eta_rep = check_eta_cartesian(X, d, t_bang)
            assert eta_rep["ok"], eta_rep
    # uniqueness by brute force at d <= 2: the canonical map is injective and
    # unique_R0 reproduces each enumerated witness from its two images
    for spec in (ccs, toy):
        X = representable(spec.labels, list(spec.labels)[0])
        TT, terms2, proofs2 = truncated_free_squared(spec, X, 2)
        st, se = _strip_maps()
        witnesses = {}
        for a in spec.labels:
            for key in TT.edges[a]:
                p2 = proofs2[key]
                pair = (render(mu(p2)), render(map_leaves(p2, st, se)))
                assert pair not in witnesses, f"two witnesses for {pair}"
                witnesses[pair] = p2
        sample = sorted(witnesses)[:: max(1, len(witnesses) // 40)]
        for flat_key, strip_key in sample:
            p2 = witnesses[(flat_key, strip_key)]
            RR = map_leaves(p2, st, se)
            R = mu(p2)
            assert unique_R0(RR, R) == p2
    _pass(6, "mu/eta squares are pointwise pullbacks; two-layer witnesses unique")


def test_criterion_07_compositionality(ccs):
    """Every transition of every flattened two-layer term lifts through the
    flattening, exhaustively at depth <= 2; equivalently the flattening map
    of the windows has the lifting property."""
    from gsos.terms import _source

    X = representable(ccs.labels, "a")
    ax = ambient_axioms(X)
    memo = {}
    src2 = lambda e, a: proof_source(X, e)
    problems = 0
    for MM in two_layer_terms(ccs, X, 2):
        M = mu(MM)
        for R, _ in derive(ccs, M, ax, _memo=memo):
            RR = lift_mu(MM, R)
            assert mu(RR) == R
            assert _source(RR, src2) == MM
            problems += 1
    assert problems > 1000

    # the equivalent window-level statement
    TT, terms2, proofs2 = truncated_free_squared(ccs, X, 2)
    T1, terms1, proofs1 = truncated_free(ccs, X, 2)
    mu_morphism = morphism(
        TT,
        T1,
        {k: render(mu(t)) for k, t in terms2.items()},
        {
            a: {k: render(mu(proofs2[k])) for k in TT.edges[a]}
            for a in TT.labels
        },
    )
    assert is_functional_bisimulation(mu_morphism) is True
    _pass(7, f"flattening lifts all {problems} transition problems; window map lifts")


def test_criterion_08_preservation(toy, ccs):
    checked = 0
    cross_checked = 0
    for case in range(100):
        rng = random.Random(80_000 + case)
        f = random_functional_bisim(rng, toy.labels)
        X, Y = f.dom, f.cod
        assert len(X.states) <= 6
        for M in _all_terms(toy, X, 2):
            fM = map_leaves(M, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e])
            for R, _ in derive(toy, fM, ambient_axioms(Y)):
                from gsos.terms import proof_depth

                if proof_depth(R) > 2:
                    continue
                r0 = preserve_bisim_lift(f, M, R)
                checked += 1
                if case < 20:
                    oracle = [
                        p
                        for p, _ in derive(toy, M, ambient_axioms(X))
                        if map_leaves(
                            p, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e]
                        )
                        == R
                        and proof_source(X, p) == M
                    ]
                    assert r0 in oracle
                    cross_checked += 1
    assert checked > 500 and cross_checked > 100
    # spot checks against the full rule set
    for case in range(3):
        rng = random.Random(90_000 + case)
        f = random_functional_bisim(rng, ccs.labels)
        X, Y = f.dom, f.cod
        M = random_term(ccs, rng, X.states, 2)
        fM = map_leaves(M, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e])
        for R, _ in derive(ccs, fM, ambient_axioms(Y)):
            preserve_bisim_lift(f, M, R)
    _pass(8, f"{checked} preimage problems solved; {cross_checked} cross-checked")


def _all_terms(spec, X, height):
    from gsos.terms import terms_upto

    return terms_upto(spec, X.states, height)


def test_criterion_09_congruence_theorem_desk_scale(ccs):
    pairs_text = (bundled_spec_path("ccs").parent / "ccs_pairs.json").read_text()
    pairs = [
        (parse_term(ccs, None, a), parse_term(ccs, None, b))
        for a, b in json.loads(pairs_text)
    ]
    assert len(pairs) == 10
    contexts = enumerate_contexts(ccs, 2)
    report = congruence_test(ccs, pairs, contexts, 3, 4)
    assert report["ok"], report["violations"][:3]
    mutated = congruence_test(ccs, pairs, contexts, 3, 4, drop_last_premise=True)
    assert len(mutated["violations"]) >= 1
    _pass(
        9,
        f"{len(pairs)} pairs x {len(contexts)} contexts preserve stratum 3; "
        f"mutation yields {len(mutated['violations'])} violations",
    )


def test_criterion_10_format_gate():
    text = """
labels a ;
op f : 1 ;
op g : 1 ;
rule bad : premises x1 -[a]-> y1_1 ; conclusion f(g(x1)) -[a]-> f(g(y1_1)) ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert any(v.kind == "NonGsosSource" for v in exc.value.violations)
    _pass(10, "nested conclusion source rejected with NonGsosSource")
