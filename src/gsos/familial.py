"""Arities and generic-free factorisation for the free construction.

Every element of the free system over X is determined by its shape — the
same element with all leaves collapsed into the one-state system 1, that
is, the plain element ``to_terminal(elem)`` over 1 — plus a filler morphism
from the shape's arity into X.  An arity is a plain system.  The arity of a
term shape is one point per variable occurrence; the arity of a proof shape
is built by structural induction: each axiom contributes a generic edge,
each rule node glues the premise arities of one argument along their common
source occurrences (a wide pushout) and sums over arguments.
:func:`arity_label` returns the source arity morphism, whose codomain is
the arity.

Cell naming: one walk (:func:`_walk`) visits an element leaf by leaf, in
the order of :func:`map_leaves`, and names every cell as it goes, so no cell
is ever renamed afterwards.  The walk carries down the global occurrence
offset and the prefix ``arg{i}/prem{j}/`` accumulated from the rule nodes
above.  A variable leaf is the occurrence cell ``occ{k}``, k its global
left-to-right position in the source; the premises of one argument start
at the same offset, so they share these cells, and the source arity
morphism is literally the name-identity inclusion.  An axiom leaf is the
generic edge ``{prefix}e`` from its source occurrence to ``{prefix}t``; the
arity of a single axiom at label a is ``occ0 -e-> t``.  Every public
function below reads its answer off this walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Union

from .errors import CellMismatch, MalformedProof
from .presheaf import (
    LabelSet,
    Presheaf,
    PresheafMorphism,
    _map,
    _system,
    terminal,
)
from .terms import (
    App,
    Axiom,
    Element,
    Proof,
    Term,
    Var,
    map_leaves,
    proof_target,
    rule_binding,
    term_vars,
    to_terminal,
)


def arity_star(labels: LabelSet, m: Term) -> Presheaf:
    """One point per occurrence of the unique variable, named occ{k}."""
    if not isinstance(m, (Var, App)):
        raise MalformedProof("arity_star expects a term shape")
    return _points(labels, len(term_vars(m)))


def _points(labels: LabelSet, n: int) -> Presheaf:
    return _system(labels, [f"occ{k}" for k in range(n)], ())


# Each leaf of an element with the names of its arity cells.
_Leaves = list[tuple[Union[Var, Axiom], tuple[str, ...]]]


def _walk(elem: Element) -> tuple[_Leaves, int, list[str]]:
    """The cells of every leaf in leaf order, the source occurrence count
    and the target route.

    A Var leaf has the cells ``(occ,)``, an Axiom leaf ``(occ, edge, tgt)``.
    The route lists, for each variable occurrence of a proof's target in
    order, the arity cell it lands on (empty for a term).
    """
    leaves: _Leaves = []

    def go(e: Element, prefix: str, offset: int) -> tuple[int, list[str]]:
        # Returns the number of source occurrences and the target route.
        if isinstance(e, Var):
            leaves.append((e, (f"occ{offset}",)))
            return 1, []
        if isinstance(e, Axiom):
            leaves.append((e, (f"occ{offset}", prefix + "e", prefix + "t")))
            return 1, [prefix + "t"]
        n = 0
        if isinstance(e, App):
            for child in e.args:
                n += go(child, prefix, offset + n)[0]
            return n, []
        xs: list[list[str]] = []
        ys: list[list[list[str]]] = []
        for i, arg in enumerate(e.args):
            if isinstance(arg, tuple):
                prems = [
                    go(prem, f"{prefix}arg{i}/prem{j}/", offset + n)
                    for j, prem in enumerate(arg)
                ]
                ys.append([route for _n, route in prems])
                n_i = prems[0][0]
            else:
                ys.append([])
                n_i = go(arg, prefix, offset + n)[0]
            xs.append([f"occ{offset + n + k}" for k in range(n_i)])
            n += n_i
        bound = rule_binding(xs, ys)
        return n, [c for v in term_vars(e.rule.target) for c in bound[v]]

    n, route = go(elem, "", 0)
    return leaves, n, route


def _carrier(labels: LabelSet, leaves: _Leaves) -> Presheaf:
    """The arity glued from the leaves' cells, states in first-seen order."""
    states: dict[str, None] = {}
    arrows = []
    for leaf, cells in leaves:
        states[cells[0]] = None
        if isinstance(leaf, Axiom):
            occ, e, t = cells
            states[t] = None
            arrows.append((leaf.label, e, occ, t))
    return _system(labels, states, arrows)


def arity_label(labels: LabelSet, r: Proof) -> PresheafMorphism:
    """The source arity morphism of a proof shape; its codomain is the arity.

    The morphism goes from the source-term arity into the arity and is the
    name-identity inclusion by construction.
    """
    if isinstance(r, (Var, App)):
        raise MalformedProof("arity_label expects a proof shape")
    leaves, n, _route = _walk(r)
    dom = _points(labels, n)
    return _map(dom, _carrier(labels, leaves), {x: x for x in dom.states})


def arity_tgt_morphism(labels: LabelSet, r: Proof) -> PresheafMorphism:
    """Route each occurrence of the target term into the proof's arity."""
    if isinstance(r, (Var, App)):
        raise MalformedProof("arity_tgt_morphism expects a proof shape")
    leaves, _n, route = _walk(r)
    dom = arity_star(labels, proof_target(terminal(labels), r))
    if len(route) != len(dom.states):
        raise MalformedProof("occurrence count mismatch in target routing")
    cod = _carrier(labels, leaves)
    return _map(dom, cod, {f"occ{k}": c for k, c in enumerate(route)})


def generic_edges(r: Proof) -> list[tuple[str, str, str, str]]:
    """(label, source cell, edge cell, target cell) of each axiom of a shape.

    In leaf order: the order in which the induction attaches the generic
    edges that make up the arity.
    """
    leaves = _walk(r)[0]
    return [(leaf.label, *cells) for leaf, cells in leaves if isinstance(leaf, Axiom)]


# ---------------------------------------------------------------------------
# Generic-free factorisation.


@dataclass(frozen=True)
class Decomposition:
    """Shape over 1 plus the filler from its arity into the ambient system."""

    shape: Element
    filler: PresheafMorphism

    @property
    def arity(self) -> Presheaf:
        return self.filler.dom


def decompose(X: Presheaf, elem: Element) -> Decomposition:
    """Split an element into its shape and the filler of leaf data."""
    leaves = _walk(elem)[0]
    states: dict[str, str] = {}
    edge_maps: dict[str, dict[str, str]] = {a: {} for a in X.labels}
    for leaf, cells in leaves:
        if isinstance(leaf, Var):
            values = ((cells[0], leaf.name),)
        else:
            occ, e, t = cells
            a = leaf.label
            edge_maps[a][e] = leaf.edge
            values = ((occ, X.src[a][leaf.edge]), (t, X.tgt[a][leaf.edge]))
        for c, v in values:
            if states.setdefault(c, v) != v:
                raise MalformedProof("premises disagree on a shared occurrence cell")
    filler = _map(_carrier(X.labels, leaves), X, states, edge_maps)
    return Decomposition(to_terminal(elem), filler)


def recompose(d: Decomposition, X: Presheaf) -> Element:
    """Substitute filler values back into the shape's leaves."""
    if d.filler.cod != X:
        raise CellMismatch("filler codomain is not the requested ambient system")
    cells = iter(c for _leaf, c in _walk(d.shape)[0])

    def value(table, cell: str) -> str:
        if cell not in table:
            raise CellMismatch(f"filler misses cell {cell!r}")
        return table[cell]

    return map_leaves(
        d.shape,
        lambda _x: value(d.filler.state_map, next(cells)[0]),
        lambda _e, a: value(d.filler.edge_maps.get(a, {}), next(cells)[1]),
    )


# ---------------------------------------------------------------------------
# Genericness.


def is_generic(X: Presheaf, elem: Element) -> bool:
    """Decide genericness by the filler-is-iso criterion."""
    return decompose(X, elem).filler.is_iso()


def all_morphisms(A: Presheaf, B: Presheaf) -> Iterator[PresheafMorphism]:
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
            edge_maps: dict[str, dict[str, str]] = {a: {} for a in A.labels}
            for (a, e), eb in zip(flat_edges, edge_combo):
                edge_maps[a][e] = eb
            yield _map(A, B, state_map, edge_maps)


def random_collapse(P: Presheaf, rng) -> tuple[Presheaf, PresheafMorphism]:
    """A random quotient-like natural map out of P (used for spot checks)."""
    if not P.states:
        return P, _map(P, P, {})
    n_buckets = max(1, rng.randint(1, len(P.states)))
    bucket = {x: f"b{rng.randrange(n_buckets)}" for x in P.states}
    arrows = []
    edge_name: dict[str, dict[str, str]] = {a: {} for a in P.labels}
    for a in P.labels:
        groups: dict[tuple, str] = {}
        for e in P.edges[a]:
            key = (bucket[P.src[a][e]], bucket[P.tgt[a][e]], rng.randint(0, 1))
            if key not in groups:
                groups[key] = f"{a}:{key[0]}>{key[1]}#{key[2]}"
                arrows.append((a, groups[key], key[0], key[1]))
            edge_name[a][e] = groups[key]
    B = _system(P.labels, sorted(set(bucket.values())), arrows)
    return B, _map(P, B, bucket, edge_name)
