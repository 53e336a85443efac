"""Finite generalized labelled transition systems.

A system over a label set A is a finite presheaf on the base category with
one state object ``*`` and one edge object per label: a set of states, plus
one set of edges per label with total source/target maps.  Several parallel
edges with the same label are allowed.  All states and edges carry string
identifiers; everything is immutable after construction.

``LabelSet.objects`` lists the base objects, ``*`` first, so ``*`` is never
a label.  ``Presheaf.cells(o)`` is the set at object o (the states at ``*``,
the o-edges at a label) and ``PresheafMorphism.at(o)`` the component there.
Every construction computed object by object (equality, composition,
injectivity, the pullback test, wide pushouts) is one loop over the objects
through these two views.

Functional bisimulations are characterised by a lifting property against
the source inclusions s^a of the representables, and that lifting problem
is solved here by exhaustive, deterministic search.  Bisimilarity itself
lives in :mod:`gsos.bisim` and is computed by partition refinement rather
than as a union of subobjects; the two agree on the finite, image-finite
systems this package manipulates.

Checks run where data enters the program.  :func:`make_presheaf` and
:func:`morphism` validate everything; only the JSON loaders call them (and
the tests).  Every system and map the program builds for itself goes
through the unchecked :func:`_system` and :func:`_map`, because each
construction here takes well-formed systems and maps to well-formed ones;
a test rebuilds the output of every builder through the checked path.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    DanglingEdge,
    DuplicateId,
    MalformedSystem,
    NonCommutingSquare,
    ShapeUnsupported,
    UnknownLabel,
)

STAR = "*"


@dataclass(frozen=True)
class LabelSet:
    """Finite ordered set of transition labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise UnknownLabel("label set must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateId(f"duplicate labels in {self.labels}")
        if STAR in self.labels:
            raise DuplicateId(f"{STAR!r} names the state object and cannot be a label")

    @property
    def objects(self) -> tuple[str, ...]:
        """The base objects: the state object STAR, then one edge object per label."""
        return (STAR, *self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


def labelset(*labels: str) -> LabelSet:
    return LabelSet(tuple(labels))


@dataclass(frozen=True, eq=False)
class Presheaf:
    """States plus, per label, edges with source and target maps.

    Outside input is built with :func:`make_presheaf`, which validates it;
    the program's own constructions use the unchecked :func:`_system`.
    Equality compares the underlying sets and maps, ignoring declaration
    order.
    """

    labels: LabelSet
    states: tuple[str, ...]
    edges: Mapping[str, tuple[str, ...]]
    src: Mapping[str, Mapping[str, str]]
    tgt: Mapping[str, Mapping[str, str]]

    def cells(self, o: str) -> tuple[str, ...]:
        """The cells at base object o: the states at STAR, the o-edges at a label."""
        return self.states if o == STAR else self.edges[o]

    def state_set(self) -> frozenset[str]:
        return frozenset(self.states)

    def edge_set(self, label: str) -> frozenset[str]:
        return frozenset(self.edges[label])

    def all_edges(self) -> Iterator[tuple[str, str]]:
        """Yield (label, edge id) pairs in declaration order."""
        for a in self.labels:
            for e in self.edges[a]:
                yield a, e

    def label_of(self, edge: str) -> str:
        for a in self.labels:
            if edge in self.src[a]:
                return a
        raise UnknownLabel(f"edge {edge!r} not present")

    @cached_property
    def _out(self) -> dict[str, dict[str, tuple[str, ...]]]:
        """label -> state -> out-edges in declaration order, built on first query."""
        index: dict[str, dict[str, tuple[str, ...]]] = {}
        for a, es in self.edges.items():
            src = self.src[a]
            by_src: dict[str, list[str]] = {}
            for e in es:
                by_src.setdefault(src[e], []).append(e)
            index[a] = {x: tuple(out) for x, out in by_src.items()}
        return index

    def out_edges(self, state: str, label: str) -> tuple[str, ...]:
        """The label-edges leaving state, in declaration order."""
        return self._out[label].get(state, ())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Presheaf):
            return NotImplemented
        return (
            self.labels == other.labels
            and all(set(self.cells(o)) == set(other.cells(o)) for o in self.labels.objects)
            and all(dict(self.src[a]) == dict(other.src[a]) for a in self.labels)
            and all(dict(self.tgt[a]) == dict(other.tgt[a]) for a in self.labels)
        )

    def size(self) -> tuple[int, int]:
        return len(self.states), sum(len(self.edges[a]) for a in self.labels)


def make_presheaf(
    labels: LabelSet,
    states: Iterable[str],
    edges: Mapping[str, Iterable[str]] | None = None,
    src: Mapping[str, Mapping[str, str]] | None = None,
    tgt: Mapping[str, Mapping[str, str]] | None = None,
) -> Presheaf:
    """Validate and build a presheaf; rejects dangling endpoints and id reuse."""
    states = tuple(states)
    if len(set(states)) != len(states):
        raise DuplicateId(f"duplicate state ids in {states}")
    edges = edges or {}
    src = src or {}
    tgt = tgt or {}
    for a in edges:
        if a not in labels:
            raise UnknownLabel(f"edge label {a!r} not declared")
    state_set = set(states)
    arrows: list[tuple[str, str, str, str]] = []
    seen: set[str] = set()
    for a in labels:
        es = tuple(edges.get(a, ()))
        if len(set(es)) != len(es):
            raise DuplicateId(f"duplicate edge ids at label {a!r}")
        for e in es:
            if e in seen:
                raise DuplicateId(f"edge id {e!r} reused across labels")
            seen.add(e)
        sa = dict(src.get(a, {}))
        ta = dict(tgt.get(a, {}))
        for e in es:
            if e not in sa or e not in ta:
                raise DanglingEdge(f"edge {e!r} at {a!r} lacks src or tgt")
            if sa[e] not in state_set:
                raise DanglingEdge(f"edge {e!r}: src {sa[e]!r} is not a state")
            if ta[e] not in state_set:
                raise DanglingEdge(f"edge {e!r}: tgt {ta[e]!r} is not a state")
            arrows.append((a, e, sa[e], ta[e]))
    return _system(labels, states, arrows)


def _system(
    labels: LabelSet, states: Iterable[str], arrows: Iterable[tuple[str, str, str, str]]
) -> Presheaf:
    """A system from ``(label, edge, src, tgt)`` records in declaration order,
    unchecked: the caller guarantees distinct ids, declared labels and
    endpoints among ``states``."""
    edges: dict[str, list[str]] = {a: [] for a in labels}
    src: dict[str, dict[str, str]] = {a: {} for a in labels}
    tgt: dict[str, dict[str, str]] = {a: {} for a in labels}
    for a, e, s, t in arrows:
        edges[a].append(e)
        src[a][e] = s
        tgt[a][e] = t
    return Presheaf(labels, tuple(states), {a: tuple(es) for a, es in edges.items()}, src, tgt)


def empty_presheaf(labels: LabelSet) -> Presheaf:
    return _system(labels, (), ())


@cache
def representable(labels: LabelSet, obj: str) -> Presheaf:
    """y_* (one state, no edges) or y_[a] (one a-edge between two states)."""
    if obj == STAR:
        return _system(labels, (STAR,), ())
    if obj not in labels:
        raise UnknownLabel(f"no representable for undeclared label {obj!r}")
    return _system(labels, ("s", "t"), [(obj, "e", "s", "t")])


@cache
def terminal(labels: LabelSet) -> Presheaf:
    """The terminal system 1: one state and one loop per label, named by the label."""
    return _system(labels, (STAR,), [(a, a, STAR, STAR) for a in labels])


@dataclass(frozen=True, eq=False)
class PresheafMorphism:
    """A map of systems: state map plus, per label, an edge map.

    Outside input is built with :func:`morphism`, which checks totality and
    commutation with src/tgt; the program's own constructions use the
    unchecked :func:`_map`.
    """

    dom: Presheaf
    cod: Presheaf
    state_map: Mapping[str, str]
    edge_maps: Mapping[str, Mapping[str, str]]

    def at(self, o: str) -> Mapping[str, str]:
        """The component at base object o: the state map at STAR, the o-edge map at a label."""
        return self.state_map if o == STAR else self.edge_maps[o]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PresheafMorphism):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        for o in self.dom.labels.objects:
            mine, theirs = self.at(o), other.at(o)
            if any(mine[c] != theirs[c] for c in self.dom.cells(o)):
                return False
        return True

    def _images(self, o: str) -> set[str]:
        component = self.at(o)
        return {component[c] for c in self.dom.cells(o)}

    def is_injective(self) -> bool:
        return all(len(self._images(o)) == len(self.dom.cells(o)) for o in self.dom.labels.objects)

    def is_surjective(self) -> bool:
        return all(self._images(o) == set(self.cod.cells(o)) for o in self.dom.labels.objects)

    def is_iso(self) -> bool:
        return self.is_injective() and self.is_surjective()


def _check_map(f: PresheafMorphism) -> None:
    """Refuse a map that is not total or does not commute with src/tgt."""
    if f.dom.labels != f.cod.labels:
        raise UnknownLabel("morphism endpoints disagree on labels")
    for o in f.dom.labels.objects:
        component, cod_cells = f.at(o), set(f.cod.cells(o))
        for c in f.dom.cells(o):
            if c not in component:
                raise DanglingEdge(f"map at {o!r} misses {c!r}")
            if component[c] not in cod_cells:
                raise DanglingEdge(f"map at {o!r} sends {c!r} outside the codomain")
    for a in f.dom.labels:
        for e in f.dom.edges[a]:
            fe = f.edge_maps[a][e]
            if f.state_map[f.dom.src[a][e]] != f.cod.src[a][fe]:
                raise NonCommutingSquare(f"src not preserved at edge {e!r}")
            if f.state_map[f.dom.tgt[a][e]] != f.cod.tgt[a][fe]:
                raise NonCommutingSquare(f"tgt not preserved at edge {e!r}")


def _map(
    dom: Presheaf,
    cod: Presheaf,
    state_map: Mapping[str, str],
    edge_maps: Mapping[str, Mapping[str, str]] | None = None,
) -> PresheafMorphism:
    """A map with one edge map per label of dom (missing ones empty), unchecked."""
    em = {a: dict((edge_maps or {}).get(a, {})) for a in dom.labels}
    return PresheafMorphism(dom, cod, dict(state_map), em)


def morphism(
    dom: Presheaf,
    cod: Presheaf,
    state_map: Mapping[str, str],
    edge_maps: Mapping[str, Mapping[str, str]] | None = None,
) -> PresheafMorphism:
    """Build and validate a map; raises on a partial or non-commuting one."""
    f = _map(dom, cod, state_map, edge_maps)
    _check_map(f)
    return f


def identity(X: Presheaf) -> PresheafMorphism:
    components = {o: {c: c for c in X.cells(o)} for o in X.labels.objects}
    return _map(X, X, components[STAR], components)


def compose(g: PresheafMorphism, f: PresheafMorphism) -> PresheafMorphism:
    """g after f."""
    if f.cod != g.dom:
        raise NonCommutingSquare("composition endpoints do not match")
    components = {}
    for o in f.dom.labels.objects:
        g_o, f_o = g.at(o), f.at(o)
        components[o] = {c: g_o[f_o[c]] for c in f.dom.cells(o)}
    return _map(f.dom, g.cod, components[STAR], components)


def commutes(
    g: PresheafMorphism,
    f: PresheafMorphism,
    h: PresheafMorphism,
    k: Optional[PresheafMorphism] = None,
) -> bool:
    """Does g after f equal h after k (h itself when k is None)?

    The answer ``compose(g, f) == compose(h, k)`` gives, read cell by cell
    without building either composite; raises NonCommutingSquare where
    :func:`compose` would.
    """
    if f.cod != g.dom or (k is not None and k.cod != h.dom):
        raise NonCommutingSquare("composition endpoints do not match")
    dom = f.dom
    if dom != (h.dom if k is None else k.dom) or g.cod != h.cod:
        return False
    for o in dom.labels.objects:
        g_o, f_o, h_o = g.at(o), f.at(o), h.at(o)
        k_o = None if k is None else k.at(o)
        for c in dom.cells(o):
            if g_o[f_o[c]] != h_o[c if k_o is None else k_o[c]]:
                return False
    return True


@cache
def source_inclusion(labels: LabelSet, a: str) -> PresheafMorphism:
    """s^a : y_* -> y_[a], picking the source of the generic a-edge."""
    return _map(representable(labels, STAR), representable(labels, a), {STAR: "s"})


def bang(X: Presheaf) -> PresheafMorphism:
    """The unique map X -> 1, whose cell at each base object is named by the object."""
    components = {o: dict.fromkeys(X.cells(o), o) for o in X.labels.objects}
    return _map(X, terminal(X.labels), components[STAR], components)


@dataclass(frozen=True)
class LiftingSquare:
    """A commuting square: right∘top = bottom∘left, with left : A->B, right : X->Y."""

    left: PresheafMorphism
    top: PresheafMorphism
    right: PresheafMorphism
    bottom: PresheafMorphism

    def __post_init__(self):
        if self.left.dom != self.top.dom:
            raise NonCommutingSquare("left and top must share their domain")
        if self.top.cod != self.right.dom:
            raise NonCommutingSquare("top codomain must be the right domain")
        if self.left.cod != self.bottom.dom:
            raise NonCommutingSquare("left codomain must be the bottom domain")
        if self.right.cod != self.bottom.cod:
            raise NonCommutingSquare("right and bottom must share their codomain")
        if not commutes(self.right, self.top, self.bottom, self.left):
            raise NonCommutingSquare("square does not commute")


def find_lifting(square: LiftingSquare) -> Optional[PresheafMorphism]:
    """Solve for k : B -> X with k∘left = top and right∘k = bottom.

    Exhaustive search over the finitely many candidates.  Returns the
    lexicographically least solution (free states in sorted id order, each
    assigned the least admissible candidate first, then edges likewise), or
    None when no lifting exists.
    """
    A, B = square.left.dom, square.left.cod
    X = square.right.dom
    left, top, right, bottom = square.left, square.top, square.right, square.bottom

    forced: dict[str, dict[str, str]] = {}
    for o in A.labels.objects:
        forced[o] = {}
        for c in A.cells(o):
            want = top.at(o)[c]
            if forced[o].setdefault(left.at(o)[c], want) != want:
                return None
    forced_state = forced[STAR]

    free_states = sorted(b for b in B.states if b not in forced_state)
    cand: list[list[str]] = []
    for b in free_states:
        cs = sorted(x for x in X.states if right.state_map[x] == bottom.state_map[b])
        if not cs:
            return None
        cand.append(cs)

    for choice in product(*cand) if free_states else [()]:
        k_state = dict(forced_state)
        k_state.update(zip(free_states, choice))
        k_edges: dict[str, dict[str, str]] = {}
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


@dataclass(frozen=True)
class Counterexample:
    """A failed lifting instance: no edge over `edge` starts at `state`."""

    state: str
    label: str
    edge: str

    def __bool__(self) -> bool:
        return False


def is_functional_bisimulation(f: PresheafMorphism):
    """True iff every square with left s^a and right f lifts.

    Concretely: for every state x of the domain and every codomain edge e
    starting at f(x), some domain edge over e starts at x.  Returns True or
    a falsy :class:`Counterexample`.
    """
    X, Y = f.dom, f.cod
    for a in X.labels:
        for x in X.states:
            want = Y.out_edges(f.state_map[x], a)
            if not want:
                continue
            covered = {f.edge_maps[a][e] for e in X.out_edges(x, a)}
            for e in want:
                if e not in covered:
                    return Counterexample(x, a, e)
    return True


def pullback_report(square: LiftingSquare) -> dict[str, bool]:
    """Pointwise pullback test for the top-left corner, per base object.

    The corner A (domain of left and top) is a pullback of
    B --bottom--> C <--right-- X iff a |-> (left(a), top(a)) is a bijection
    onto the set-pullback, at the state object and at every edge object.
    Commutation already places the canonical map inside the pullback, so it
    suffices to check injectivity plus a fiberwise cardinality count.
    """
    A, B, X = square.left.dom, square.left.cod, square.right.dom
    report = {}
    for o in A.labels.objects:
        left, top = square.left.at(o), square.top.at(o)
        bottom, right = square.bottom.at(o), square.right.at(o)
        corner = A.cells(o)
        fiber_x = Counter(right[x] for x in X.cells(o))
        pullback_size = sum(fiber_x[bottom[b]] for b in B.cells(o))
        report[o] = len({(left[c], top[c]) for c in corner}) == len(corner) == pullback_size
    return report


# ---------------------------------------------------------------------------
# Finite colimits: coproducts and wide pushouts (the only shapes needed).


@dataclass(frozen=True)
class Coproduct:
    parts: tuple[Presheaf, ...]


@dataclass(frozen=True)
class WidePushout:
    """A cospan-free star: every leg goes out of the shared apex."""

    apex: Presheaf
    legs: tuple[PresheafMorphism, ...]

    def __post_init__(self):
        if not self.legs:
            raise ShapeUnsupported("wide pushout needs at least one leg")
        for leg in self.legs:
            if leg.dom != self.apex:
                raise ShapeUnsupported("every leg must start at the apex")


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def colimit(diagram) -> tuple[Presheaf, tuple[PresheafMorphism, ...]]:
    """Pointwise colimit with stable hierarchical cell names.

    Cells of part/leg-codomain i are injected as "inj{i}/{cell}"; cells
    identified by a wide pushout take the least such name in their class.
    A coproduct is the wide pushout of its parts under the empty system.
    Returns the colimit and one injection per part (per leg codomain).
    """
    if isinstance(diagram, Coproduct):
        if not diagram.parts:
            raise ShapeUnsupported("empty coproducts need an ambient label set")
        apex = empty_presheaf(diagram.parts[0].labels)
        diagram = WidePushout(apex, tuple(_map(apex, p, {}) for p in diagram.parts))
    if not isinstance(diagram, WidePushout):
        raise ShapeUnsupported(f"unsupported diagram shape {type(diagram).__name__}")
    apex, legs = diagram.apex, diagram.legs
    labels = apex.labels
    for leg in legs:
        if leg.cod.labels != labels:
            raise ShapeUnsupported("pushout legs disagree on labels")

    # The root of each class is its least (leg, cell) member, which names it.
    name: dict[str, dict[tuple[int, str], str]] = {}
    for o in labels.objects:
        uf = _UnionFind()
        for i, leg in enumerate(legs):
            for c in leg.cod.cells(o):
                uf.add((i, c))
        for u in apex.cells(o):
            first = (0, legs[0].at(o)[u])
            for i, leg in enumerate(legs):
                uf.union(first, (i, leg.at(o)[u]))
        name[o] = {cell: "inj{}/{}".format(*uf.find(cell)) for cell in uf.parent}

    state_name = name[STAR]
    arrows = []
    for a in labels:
        ends = {}
        for (i, e), edge in name[a].items():
            cod = legs[i].cod
            ends[edge] = (state_name[(i, cod.src[a][e])], state_name[(i, cod.tgt[a][e])])
        arrows.extend((a, edge, *ends[edge]) for edge in sorted(ends))
    colim = _system(labels, sorted(set(state_name.values())), arrows)
    injections = []
    for i, leg in enumerate(legs):
        components = {o: {c: name[o][(i, c)] for c in leg.cod.cells(o)} for o in labels.objects}
        injections.append(_map(leg.cod, colim, components[STAR], components))
    return colim, tuple(injections)


def pullback(f: PresheafMorphism, g: PresheafMorphism) -> tuple[Presheaf, PresheafMorphism, PresheafMorphism]:
    """Pointwise pullback of f : X -> Z and g : Y -> Z, with pair-named cells."""
    if f.cod != g.cod:
        raise ShapeUnsupported("pullback legs must share their codomain")
    X, Y = f.dom, g.dom
    pairs = {}
    for o in X.labels.objects:
        f_o, g_o = f.at(o), g.at(o)
        pairs[o] = [(u, v) for u in X.cells(o) for v in Y.cells(o) if f_o[u] == g_o[v]]
    return _pair_system(X, Y, pairs)


def _pair_system(
    X: Presheaf, Y: Presheaf, pairs: Mapping[str, Sequence[tuple[str, str]]]
) -> tuple[Presheaf, PresheafMorphism, PresheafMorphism]:
    """The system of the given pairs of cells of X and Y, each named
    ``({u},{v})``, and its projections to X and Y.

    ``pairs[o]`` holds the pairs at base object o.  The endpoint pairs of
    each edge pair must be among the state pairs.  Ids with a top-level
    comma can give two pairs one name; that is refused with DuplicateId
    rather than merging the cells.
    """
    named = {o: {f"({u},{v})": (u, v) for u, v in pairs[o]} for o in X.labels.objects}
    edge_names = {edge for a in X.labels for edge in named[a]}
    if len(named[STAR]) < len(pairs[STAR]) or len(edge_names) < sum(len(pairs[a]) for a in X.labels):
        raise DuplicateId("two pairs of cells would share one name: an id has a top-level comma")
    arrows = [
        (a, edge, f"({X.src[a][u]},{Y.src[a][v]})", f"({X.tgt[a][u]},{Y.tgt[a][v]})")
        for a in X.labels
        for edge, (u, v) in named[a].items()
    ]
    P = _system(X.labels, named[STAR], arrows)
    p1 = {o: {cell: u for cell, (u, _) in named[o].items()} for o in named}
    p2 = {o: {cell: v for cell, (_, v) in named[o].items()} for o in named}
    return P, _map(P, X, p1[STAR], p1), _map(P, Y, p2[STAR], p2)


# ---------------------------------------------------------------------------
# Serialisation.


def presheaf_doc(X: Presheaf) -> dict:
    """The JSON document of a system: its labels, states and edge records."""
    return {
        "labels": list(X.labels),
        "states": list(X.states),
        "edges": {
            a: [{"id": e, "src": X.src[a][e], "tgt": X.tgt[a][e]} for e in X.edges[a]]
            for a in X.labels
        },
    }


def presheaf_to_json(X: Presheaf) -> str:
    return json.dumps(presheaf_doc(X), separators=(",", ":"))


def presheaf_from_json(text: str) -> Presheaf:
    """Read a system from its JSON document, refusing a malformed one.

    Raises MalformedSystem naming the field or id at fault.  Every state and
    edge id must read back through the term syntax (see :func:`_check_id`),
    so that elements over the system print and parse again.
    """
    return _presheaf_from_doc(_json_document(text), "system")


def _json_document(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise MalformedSystem(f"not a JSON document: {exc}") from None


_JSON_KIND = {dict: "object", list: "list"}


def _field(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise MalformedSystem(f"{where} has no {key!r} field")
    if not isinstance(doc[key], kind):
        raise MalformedSystem(f"{where}.{key} must be a JSON {_JSON_KIND[kind]}")
    return doc[key]


def _strings(items: list, where: str) -> tuple[str, ...]:
    for item in items:
        if not isinstance(item, str):
            raise MalformedSystem(f"{where} must hold strings, not {item!r}")
    return tuple(items)


def _check_id(ident: str, what: str) -> None:
    """Refuse an id that does not read back as the payload of var(...) or ax(...).

    The term parser takes a payload up to the matching close parenthesis
    and strips it, so an id reads back exactly when its parentheses balance
    and it has no surrounding whitespace.
    """
    depth = 0
    for ch in ident:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
    if depth != 0 or ident != ident.strip():
        raise MalformedSystem(f"{what} {ident!r} does not read back through the term syntax")


def _presheaf_from_doc(doc, where: str) -> Presheaf:
    if not isinstance(doc, dict):
        raise MalformedSystem(f"{where} must be a JSON object")
    labels = _strings(_field(doc, "labels", list, where), f"{where}.labels")
    states = _strings(_field(doc, "states", list, where), f"{where}.states")
    for x in states:
        _check_id(x, "state id")
    edges_doc = _field(doc, "edges", dict, where) if "edges" in doc else {}
    edges: dict[str, tuple[str, ...]] = {}
    src: dict[str, dict[str, str]] = {}
    tgt: dict[str, dict[str, str]] = {}
    for a, records in edges_doc.items():
        at = f"{where}.edges.{a}"
        if not isinstance(records, list):
            raise MalformedSystem(f"{at} must be a JSON list of edge records")
        for rec in records:
            if not isinstance(rec, dict) or not all(
                isinstance(rec.get(k), str) for k in ("id", "src", "tgt")
            ):
                raise MalformedSystem(f"{at}: {rec!r} is not an edge record with string id, src and tgt")
            _check_id(rec["id"], "edge id")
        edges[a] = tuple(rec["id"] for rec in records)
        src[a] = {rec["id"]: rec["src"] for rec in records}
        tgt[a] = {rec["id"]: rec["tgt"] for rec in records}
    return make_presheaf(LabelSet(labels), states, edges, src, tgt)


def morphism_to_json(f: PresheafMorphism) -> str:
    doc = {
        "dom": presheaf_doc(f.dom),
        "cod": presheaf_doc(f.cod),
        "states": {x: f.state_map[x] for x in f.dom.states},
        "edges": {a: {e: f.edge_maps[a][e] for e in f.dom.edges[a]} for a in f.dom.labels},
    }
    return json.dumps(doc, separators=(",", ":"))


def morphism_from_json(text: str) -> PresheafMorphism:
    """Read a morphism from its JSON document, refusing a malformed one."""
    doc = _json_document(text)
    if not isinstance(doc, dict):
        raise MalformedSystem("morphism must be a JSON object")
    dom = _presheaf_from_doc(_field(doc, "dom", dict, "morphism"), "morphism.dom")
    cod = _presheaf_from_doc(_field(doc, "cod", dict, "morphism"), "morphism.cod")
    state_map = _field(doc, "states", dict, "morphism")
    edge_maps = _field(doc, "edges", dict, "morphism") if "edges" in doc else {}
    for where, mapping in [("morphism.states", state_map)] + [
        (f"morphism.edges.{a}", m) for a, m in edge_maps.items()
    ]:
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
        ):
            raise MalformedSystem(f"{where} must be a JSON object from ids to ids")
    return morphism(dom, cod, state_map, edge_maps)


def presheaf_to_dot(X: Presheaf) -> str:
    lines = ["digraph lts {"]
    for x in X.states:
        lines.append(f'  "{_dot_escape(x)}";')
    for a in X.labels:
        for e in X.edges[a]:
            src, tgt = _dot_escape(X.src[a][e]), _dot_escape(X.tgt[a][e])
            label = _dot_escape(f"{e}:{a}")
            lines.append(f'  "{src}" -> "{tgt}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    """Quote an id for a DOT double-quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')
