"""Reference constructions that only the tests use.

The program compares maps cell by cell (``presheaf.commutes``), tests
pullback corners pointwise (``presheaf.pullback_report``) and never builds
composites, pullbacks, every map between two systems, T(f) on windows or
lifts through the flattening.  The plain constructions below build them,
as oracles and as inputs for the tests of more than one module.
"""

from itertools import product

from gsos.errors import MalformedProof, NonCommutingSquare, ShapeUnsupported
from gsos.presheaf import STAR, _map, _pair_system
from gsos.terms import Axiom, Node, Var, mu, proof_label, truncated_free, window_map


def compose(g, f):
    """g after f."""
    if f.cod != g.dom:
        raise NonCommutingSquare("composition endpoints do not match")
    components = {}
    for o in f.dom.labels.objects:
        g_o, f_o = g.at(o), f.at(o)
        components[o] = {c: g_o[f_o[c]] for c in f.dom.cells(o)}
    return _map(f.dom, g.cod, components[STAR], components)


def pullback(f, g):
    """Pointwise pullback of f : X -> Z and g : Y -> Z, with pair-named cells."""
    if f.cod != g.cod:
        raise ShapeUnsupported("pullback legs must share their codomain")
    X, Y = f.dom, g.dom
    pairs = {}
    for o in X.labels.objects:
        f_o, g_o = f.at(o), g.at(o)
        pairs[o] = [(u, v) for u in X.cells(o) for v in Y.cells(o) if f_o[u] == g_o[v]]
    return _pair_system(X, Y, pairs)


def all_morphisms(A, B):
    """All natural maps A -> B, in a deterministic order (A must be small)."""
    state_choices = [sorted(B.states) for _ in A.states]
    for combo in product(*state_choices) if A.states else [()]:
        state_map = dict(zip(A.states, combo))
        edge_choices = []
        feasible = True
        flat_edges = [(a, e) for a in A.labels for e in A.edges[a]]
        for a, e in flat_edges:
            opts = sorted(
                eb
                for eb in B.out_edges(state_map[A.src[a][e]], a)
                if B.tgt[a][eb] == state_map[A.tgt[a][e]]
            )
            if not opts:
                feasible = False
                break
            edge_choices.append(opts)
        if not feasible:
            continue
        for edge_combo in product(*edge_choices) if flat_edges else [()]:
            edge_maps = {a: {} for a in A.labels}
            for (a, e), eb in zip(flat_edges, edge_combo):
                edge_maps[a][e] = eb
            yield _map(A, B, state_map, edge_maps)


def T_on_morphism(spec, f, d):
    """Functorial action on the depth-d windows: relabel all leaves along f."""
    return window_map(
        truncated_free(spec, f.dom, d),
        truncated_free(spec, f.cod, d)[0],
        lambda x: f"var({f.state_map[x]})",
        lambda e, a: f"ax({f.edge_maps[a][e]})",
    )


def lift_mu(MM, R):
    """Lift a transition of a flattened term through the flattening.

    Given a two-layer term MM and a proof R with source mu(MM), produce a
    two-layer proof RR with source MM and mu(RR) = R, by structural
    induction on MM: a wrapped term lifts R by wrapping it, an operation
    node must be matched by a rule node and the premises lift argumentwise.
    """
    if isinstance(MM, Var):
        return Axiom(R, proof_label(R))
    if not isinstance(R, Node) or R.rule.op != MM.op:
        raise MalformedProof("transition does not match the term structure")
    args = []
    for i, arg in enumerate(R.args):
        if isinstance(arg, tuple):
            args.append(tuple(lift_mu(MM.args[i], r) for r in arg))
        else:
            if mu(MM.args[i]) != arg:
                raise MalformedProof("premise-less argument does not flatten correctly")
            args.append(MM.args[i])
    return Node(R.rule, tuple(args))
