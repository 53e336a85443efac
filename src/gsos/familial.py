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
the order of :func:`bind`, and names every cell as it goes, so no cell is
ever renamed afterwards.  The walk carries down the global occurrence
offset and the prefix ``arg{i}/prem{j}/`` accumulated from the rule nodes
above.  A variable leaf is the occurrence cell ``occ{k}``, k its global
left-to-right position in the source; the premises of one argument start
at the same offset, so they share these cells, and the source arity
morphism is literally the name-identity inclusion.  An axiom leaf is the
generic edge ``{prefix}e`` from its source occurrence to ``{prefix}t``; the
arity of a single axiom at label a is ``occ0 -e-> t``.

One walk per element: :func:`decompose` and :func:`generic_decomposition`
walk their argument once, and the :class:`Decomposition` they return keeps
that walk, so its arity morphisms, its generic edges (the steps of a cell
certificate) and :func:`recompose` read that record and never walk the
shape again.  :func:`arity_label` and :func:`arity_tgt_morphism` are the
arity morphisms of a shape's generic decomposition.  The points of n
occurrences are one shared system per label set and n, and a
decomposition's arity morphisms end in its own arity, so the checks that
compare these systems meet identical objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Union

from .errors import CellMismatch, MalformedProof
from .presheaf import (
    LabelSet,
    Presheaf,
    PresheafMorphism,
    _map,
    _system,
    identity,
)
from .terms import (
    App,
    Axiom,
    Element,
    Proof,
    Var,
    bind,
    to_terminal,
)


@cache
def _points(labels: LabelSet, n: int) -> Presheaf:
    return _system(labels, [f"occ{k}" for k in range(n)], ())


# Each leaf of an element with the names of its arity cells.
_Leaves = tuple[tuple[Union[Var, Axiom], tuple[str, ...]], ...]


@dataclass(frozen=True)
class _Walk:
    """One walk of an element: the cells of every leaf in leaf order, the
    source occurrence count n and the target route.

    A Var leaf has the cells ``(occ,)``, an Axiom leaf ``(occ, edge, tgt)``.
    The route lists, for each variable occurrence of a proof's target in
    order, the arity cell it lands on (empty for a term).
    """

    leaves: _Leaves
    n: int
    route: tuple[str, ...]


def _walk(elem: Element) -> _Walk:
    """Walk an element leaf by leaf, naming every cell as it goes."""
    leaves: list = []
    n, route = _go(elem, "", 0, leaves)
    return _Walk(tuple(leaves), n, tuple(route))


def _go(e: Element, prefix: str, offset: int, leaves: list) -> tuple[int, list[str]]:
    """Append the leaves of e to ``leaves``; the number of source
    occurrences and the target route.  A module-level recursion rather than
    a closure over itself, so a walk leaves no reference cycle behind."""
    if isinstance(e, Var):
        leaves.append((e, (f"occ{offset}",)))
        return 1, []
    if isinstance(e, Axiom):
        leaves.append((e, (f"occ{offset}", prefix + "e", prefix + "t")))
        return 1, [prefix + "t"]
    n = 0
    if isinstance(e, App):
        for child in e.args:
            n += _go(child, prefix, offset + n, leaves)[0]
        return n, []
    # the cells of each slot of the rule's plan: the arguments' occurrences,
    # then the premises' target routes
    xs: list[list[str]] = []
    ys: list[list[str]] = []
    for i, arg in enumerate(e.args):
        if isinstance(arg, tuple):
            prems = [
                _go(prem, f"{prefix}arg{i}/prem{j}/", offset + n, leaves)
                for j, prem in enumerate(arg)
            ]
            ys.extend(route for _n, route in prems)
            n_i = prems[0][0]
        else:
            n_i = _go(arg, prefix, offset + n, leaves)[0]
        xs.append([f"occ{offset + n + k}" for k in range(n_i)])
        n += n_i
    slot_cells = xs + ys
    return n, [c for k in e.rule.plan.slots for c in slot_cells[k]]


def _arity(labels: LabelSet, w: _Walk) -> Presheaf:
    """The arity glued from the walk's cells, states in first-seen order.

    Without a generic edge it is the points of the occurrences, one shared
    object per count, so that equal arities compare by identity.
    """
    if not any(isinstance(leaf, Axiom) for leaf, _cells in w.leaves):
        return _points(labels, w.n)
    states: dict[str, None] = {}
    arrows = []
    for leaf, cells in w.leaves:
        states[cells[0]] = None
        if isinstance(leaf, Axiom):
            occ, e, t = cells
            states[t] = None
            arrows.append((leaf.label, e, occ, t))
    return _system(labels, states, arrows)


# ---------------------------------------------------------------------------
# Generic-free factorisation.


@dataclass(frozen=True)
class Decomposition:
    """Shape over 1 plus the filler from its arity into the ambient system.

    ``walk`` is the walk that named the arity's cells, kept by
    :func:`decompose` and :func:`generic_decomposition`; the arity
    morphisms, the generic edges and :func:`recompose` read it.
    ``dataclasses.replace`` with another filler over the same arity keeps
    the walk.
    """

    shape: Element
    filler: PresheafMorphism
    walk: _Walk = field(compare=False, repr=False)

    @property
    def arity(self) -> Presheaf:
        return self.filler.dom

    def source_morphism(self) -> PresheafMorphism:
        """The source arity morphism of a proof's shape, from the points of
        its source occurrences into the arity: the name-identity inclusion."""
        dom = _points(self.arity.labels, self.walk.n)
        return _map(dom, self.arity, {x: x for x in dom.states})

    def target_morphism(self) -> PresheafMorphism:
        """Route each occurrence of a proof's target term into the arity:
        the route lists one cell per occurrence, in order."""
        dom = _points(self.arity.labels, len(self.walk.route))
        return _map(dom, self.arity, {f"occ{k}": c for k, c in enumerate(self.walk.route)})

    def generic_edges(self) -> list[tuple[str, str, str, str]]:
        """(label, source cell, edge cell, target cell) of each axiom of the
        shape, in leaf order: the order in which the induction attaches the
        generic edges that make up the arity."""
        leaves = self.walk.leaves
        return [(leaf.label, *cells) for leaf, cells in leaves if isinstance(leaf, Axiom)]


def decompose(X: Presheaf, elem: Element) -> Decomposition:
    """Split an element into its shape and the filler of leaf data."""
    w = _walk(elem)
    states: dict[str, str] = {}
    edge_maps: dict[str, dict[str, str]] = {a: {} for a in X.labels}
    for leaf, cells in w.leaves:
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
    filler = _map(_arity(X.labels, w), X, states, edge_maps)
    return Decomposition(to_terminal(elem), filler, w)


def generic_decomposition(labels: LabelSet, shape: Element) -> Decomposition:
    """The factorisation of a shape's generic element: the shape and the
    identity of its arity."""
    w = _walk(shape)
    return Decomposition(shape, identity(_arity(labels, w)), w)


def arity_label(labels: LabelSet, r: Proof) -> PresheafMorphism:
    """The source arity morphism of a proof shape; its codomain is the arity."""
    if isinstance(r, (Var, App)):
        raise MalformedProof("arity_label expects a proof shape")
    return generic_decomposition(labels, r).source_morphism()


def arity_tgt_morphism(labels: LabelSet, r: Proof) -> PresheafMorphism:
    """Route each occurrence of the target term into the proof's arity."""
    if isinstance(r, (Var, App)):
        raise MalformedProof("arity_tgt_morphism expects a proof shape")
    return generic_decomposition(labels, r).target_morphism()


def recompose(d: Decomposition, X: Presheaf) -> Element:
    """Substitute filler values back into the shape's leaves."""
    if d.filler.cod != X:
        raise CellMismatch("filler codomain is not the requested ambient system")
    cells = iter(c for _leaf, c in d.walk.leaves)

    def value(table, cell: str) -> str:
        if cell not in table:
            raise CellMismatch(f"filler misses cell {cell!r}")
        return table[cell]

    return bind(
        d.shape,
        lambda _x: Var(value(d.filler.state_map, next(cells)[0])),
        lambda _e, a: Axiom(value(d.filler.edge_maps.get(a, {}), next(cells)[1]), a),
    )


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
