"""Shapes beyond the CCS fragment: ternary operations, mixed premise
groups, permuted targets, and three-level nesting."""

import pytest

from gsos.cellular import cell_certificate, preserve_bisim_lift, verify_certificate
from gsos.familial import arity_label, arity_tgt_morphism, decompose, recompose
from gsos.presheaf import (
    is_functional_bisimulation,
    make_presheaf,
    morphism,
    terminal,
)
from gsos.specdsl import parse_spec
from gsos.terms import (
    map_leaves,
    parse_proof,
    parse_term,
    proof_source,
    proof_target,
    render,
    to_terminal,
)

TRI_TEXT = """
labels a, b ;
op nil : 0 ;
op tri : 3 ;
rule tric :
  premises x1 -[a]-> y1_1 ; x3 -[a]-> y3_1 ; x3 -[b]-> y3_2 ;
  conclusion tri(x1,x2,x3) -[b]-> tri(y3_2, x2, y1_1) ;
"""


@pytest.fixture(scope="module")
def tri():
    return parse_spec(TRI_TEXT)


@pytest.fixture()
def tri_ambient(tri):
    """p has an a-edge; r has an a-edge and a b-edge out of the same state."""
    return make_presheaf(
        tri.labels,
        ("p", "q", "r", "s1", "s2"),
        [("a", "ea1", "p", "q"), ("a", "ea3", "r", "s1"), ("b", "eb3", "r", "s2")],
    )


def test_tri_proof_and_permuted_target(tri, tri_ambient):
    p = parse_proof(tri, tri_ambient, "tric(ax(ea1),term(var(q)),ax(ea3),ax(eb3))")
    assert render(proof_source(tri_ambient, p)) == "tri(var(p),var(q),var(r))"
    assert render(proof_target(tri_ambient, p)) == "tri(var(s2),var(q),var(q))"


def test_tri_arity_mixed_groups(tri, tri_ambient):
    """Argument 1 contributes one edge, argument 2 only its occurrence,
    argument 3 a two-edge gluing; six states, three edges in total."""
    p = parse_proof(tri, tri_ambient, "tric(ax(ea1),term(var(q)),ax(ea3),ax(eb3))")
    sh = to_terminal(p)
    smor = arity_label(tri.labels, sh)
    assert smor.cod.size() == (6, 3)
    assert smor.state_map == {"occ0": "occ0", "occ1": "occ1", "occ2": "occ2"}
    # the two premises of argument 3 share their source cell
    assert smor.cod.src["a"]["arg2/prem0/e"] == "occ2"
    assert smor.cod.src["b"]["arg2/prem1/e"] == "occ2"
    assert smor.cod.src["a"]["arg0/prem0/e"] == "occ0"
    # permuted target: y3_2 then x2 then y1_1
    tmor = arity_tgt_morphism(tri.labels, sh)
    assert tmor.state_map == {
        "occ0": "arg2/prem1/t",
        "occ1": "occ1",
        "occ2": "arg0/prem0/t",
    }


def test_tri_certificate_and_roundtrip(tri, tri_ambient):
    p = parse_proof(tri, tri_ambient, "tric(ax(ea1),term(var(q)),ax(ea3),ax(eb3))")
    sh = to_terminal(p)
    cert = cell_certificate(tri.labels, sh)
    assert [(s.label, s.at) for s in cert.steps] == [
        ("a", "occ0"),
        ("a", "occ2"),
        ("b", "occ2"),
    ]
    assert verify_certificate(cert)
    dec = decompose(tri_ambient, p)
    assert dec.filler.state_map["occ2"] == "r"
    assert recompose(dec, tri_ambient) == p


def test_tri_preservation_through_covering(tri, tri_ambient):
    Y = tri_ambient
    # duplicate r and its two outgoing edges; all lifts exist by construction
    X = make_presheaf(
        tri.labels,
        ("p", "q", "r0", "r1", "s1", "s2"),
        [
            ("a", "ea1", "p", "q"),
            ("a", "ea3.0", "r0", "s1"),
            ("a", "ea3.1", "r1", "s1"),
            ("b", "eb3.0", "r0", "s2"),
            ("b", "eb3.1", "r1", "s2"),
        ],
    )
    f = morphism(
        X,
        Y,
        {"p": "p", "q": "q", "r0": "r", "r1": "r", "s1": "s1", "s2": "s2"},
        {
            "a": {"ea1": "ea1", "ea3.0": "ea3", "ea3.1": "ea3"},
            "b": {"eb3.0": "eb3", "eb3.1": "eb3"},
        },
    )
    assert is_functional_bisimulation(f) is True
    R = parse_proof(tri, Y, "tric(ax(ea1),term(var(q)),ax(ea3),ax(eb3))")
    M = parse_term(tri, X, "tri(var(p),var(q),var(r1))")
    r0 = preserve_bisim_lift(f, M, R)
    assert proof_source(X, r0) == M
    # both premises of argument 3 were lifted from the same copy of r
    assert "ea3.1" in render(r0) and "eb3.1" in render(r0)
    assert map_leaves(r0, lambda x: f.state_map[x], lambda e, a: f.edge_maps[a][e]) == R


def test_three_level_nesting_golden(ccs, ccs_labels):
    """lpar around lpar around an axiom: one generic edge whose source is
    the first of four occurrence points, with three-level cell paths."""
    one = terminal(ccs_labels)
    p = parse_proof(
        ccs, one, "lpar(lpar(lpar(ax(a_bar),term(var(*))),term(var(*))),term(var(*)))"
    )
    sh = to_terminal(p)
    smor = arity_label(ccs_labels, sh)
    assert smor.cod.size() == (5, 1)
    deep_t = "arg0/prem0/arg0/prem0/arg0/prem0/t"
    deep_e = "arg0/prem0/arg0/prem0/arg0/prem0/e"
    assert deep_t in smor.cod.states
    assert smor.cod.edges["a_bar"] == (deep_e,)
    assert smor.cod.src["a_bar"][deep_e] == "occ0"
    cert = cell_certificate(ccs_labels, sh)
    assert [(s.label, s.at, s.edge) for s in cert.steps] == [("a_bar", "occ0", deep_e)]
    assert verify_certificate(cert)
    tmor = arity_tgt_morphism(ccs_labels, sh)
    assert tmor.state_map == {
        "occ0": deep_t,
        "occ1": "occ1",
        "occ2": "occ2",
        "occ3": "occ3",
    }
