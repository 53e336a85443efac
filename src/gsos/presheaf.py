"""Finite generalized labelled transition systems.

A system over a label set A is a finite presheaf on the base category with
one state object and one edge object per label: a set of states, plus one
set of edges per label with total source/target maps.  Several parallel
edges with the same label are allowed.  All states and edges carry string
identifiers; everything is immutable after construction.

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
            and self.state_set() == other.state_set()
            and all(self.edge_set(a) == other.edge_set(a) for a in self.labels)
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
    out_edges: dict[str, tuple[str, ...]] = {}
    out_src: dict[str, dict[str, str]] = {}
    out_tgt: dict[str, dict[str, str]] = {}
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
        out_edges[a] = es
        out_src[a] = {e: sa[e] for e in es}
        out_tgt[a] = {e: ta[e] for e in es}
    return Presheaf(labels, states, out_edges, out_src, out_tgt)


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

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PresheafMorphism):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and {x: self.state_map[x] for x in self.dom.states}
            == {x: other.state_map[x] for x in other.dom.states}
            and all(
                {e: self.edge_maps[a][e] for e in self.dom.edges[a]}
                == {e: other.edge_maps[a][e] for e in other.dom.edges[a]}
                for a in self.dom.labels
            )
        )

    def is_injective(self) -> bool:
        sm = [self.state_map[x] for x in self.dom.states]
        if len(set(sm)) != len(sm):
            return False
        for a in self.dom.labels:
            em = [self.edge_maps[a][e] for e in self.dom.edges[a]]
            if len(set(em)) != len(em):
                return False
        return True

    def is_surjective(self) -> bool:
        if set(self.state_map[x] for x in self.dom.states) != self.cod.state_set():
            return False
        for a in self.dom.labels:
            if set(self.edge_maps[a][e] for e in self.dom.edges[a]) != self.cod.edge_set(a):
                return False
        return True

    def is_iso(self) -> bool:
        return self.is_injective() and self.is_surjective()


def _check_map(f: PresheafMorphism) -> None:
    """Refuse a map that is not total or does not commute with src/tgt."""
    if f.dom.labels != f.cod.labels:
        raise UnknownLabel("morphism endpoints disagree on labels")
    cod_states = f.cod.state_set()
    for x in f.dom.states:
        if x not in f.state_map:
            raise DanglingEdge(f"state map misses {x!r}")
        if f.state_map[x] not in cod_states:
            raise DanglingEdge(f"state map sends {x!r} outside the codomain")
    for a in f.dom.labels:
        em = f.edge_maps.get(a, {})
        cod_edges = f.cod.edge_set(a)
        for e in f.dom.edges[a]:
            if e not in em:
                raise DanglingEdge(f"edge map at {a!r} misses {e!r}")
            fe = em[e]
            if fe not in cod_edges:
                raise DanglingEdge(f"edge map sends {e!r} outside the codomain")
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
    return _map(X, X, {x: x for x in X.states}, {a: {e: e for e in X.edges[a]} for a in X.labels})


def compose(g: PresheafMorphism, f: PresheafMorphism) -> PresheafMorphism:
    """g after f."""
    if f.cod != g.dom:
        raise NonCommutingSquare("composition endpoints do not match")
    return _map(
        f.dom,
        g.cod,
        {x: g.state_map[f.state_map[x]] for x in f.dom.states},
        {a: {e: g.edge_maps[a][f.edge_maps[a][e]] for e in f.dom.edges[a]} for a in f.dom.labels},
    )


@cache
def source_inclusion(labels: LabelSet, a: str) -> PresheafMorphism:
    """s^a : y_* -> y_[a], picking the source of the generic a-edge."""
    return _map(representable(labels, STAR), representable(labels, a), {STAR: "s"})


def bang(X: Presheaf) -> PresheafMorphism:
    """The unique map X -> 1."""
    one = terminal(X.labels)
    return _map(
        X,
        one,
        {x: STAR for x in X.states},
        {a: {e: a for e in X.edges[a]} for a in X.labels},
    )


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
        if compose(self.right, self.top) != compose(self.bottom, self.left):
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

    forced_state: dict[str, str] = {}
    for a_st in A.states:
        b = left.state_map[a_st]
        want = top.state_map[a_st]
        if forced_state.get(b, want) != want:
            return None
        forced_state[b] = want
    forced_edge: dict[str, dict[str, str]] = {lab: {} for lab in B.labels}
    for lab in A.labels:
        for e in A.edges[lab]:
            be = left.edge_maps[lab][e]
            want = top.edge_maps[lab][e]
            if forced_edge[lab].get(be, want) != want:
                return None
            forced_edge[lab][be] = want

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
            k_edges[lab] = dict(forced_edge[lab])
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
        assert compose(k, left) == top and compose(right, k) == bottom
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
    from collections import Counter

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
    Returns the colimit and one injection per part (per leg codomain).
    """
    if isinstance(diagram, Coproduct):
        parts = diagram.parts
        if not parts:
            raise ShapeUnsupported("empty coproducts need an ambient label set")
        labels = parts[0].labels
        for p in parts:
            if p.labels != labels:
                raise ShapeUnsupported("coproduct parts disagree on labels")
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

    if isinstance(diagram, WidePushout):
        apex, legs = diagram.apex, diagram.legs
        labels = apex.labels
        for leg in legs:
            if leg.cod.labels != labels:
                raise ShapeUnsupported("pushout legs disagree on labels")

        uf_states = _UnionFind()
        for i, leg in enumerate(legs):
            for x in leg.cod.states:
                uf_states.add((i, x))
        for u in apex.states:
            first = (0, legs[0].state_map[u])
            for i, leg in enumerate(legs):
                uf_states.union(first, (i, leg.state_map[u]))

        uf_edges: dict[str, _UnionFind] = {a: _UnionFind() for a in labels}
        for a in labels:
            for i, leg in enumerate(legs):
                for e in leg.cod.edges[a]:
                    uf_edges[a].add((i, e))
            for u in apex.edges[a]:
                first = (0, legs[0].edge_maps[a][u])
                for i, leg in enumerate(legs):
                    uf_edges[a].union(first, (i, leg.edge_maps[a][u]))

        def class_name(uf: _UnionFind, cell) -> str:
            members = [m for m in uf.parent if uf.find(m) == uf.find(cell)]
            i, c = min(members)
            return f"inj{i}/{c}"

        state_name = {cell: class_name(uf_states, cell) for cell in uf_states.parent}
        edge_name: dict[str, dict] = {}
        arrows = []
        for a in labels:
            edge_name[a] = {cell: class_name(uf_edges[a], cell) for cell in uf_edges[a].parent}
            ends = {}
            for (i, e), name in edge_name[a].items():
                cod = legs[i].cod
                ends[name] = (state_name[(i, cod.src[a][e])], state_name[(i, cod.tgt[a][e])])
            arrows.extend((a, name, *ends[name]) for name in sorted(ends))
        colim = _system(labels, sorted(set(state_name.values())), arrows)
        injections = tuple(
            _map(
                leg.cod,
                colim,
                {x: state_name[(i, x)] for x in leg.cod.states},
                {a: {e: edge_name[a][(i, e)] for e in leg.cod.edges[a]} for a in labels},
            )
            for i, leg in enumerate(legs)
        )
        return colim, injections

    raise ShapeUnsupported(f"unsupported diagram shape {type(diagram).__name__}")


def pullback(f: PresheafMorphism, g: PresheafMorphism) -> tuple[Presheaf, PresheafMorphism, PresheafMorphism]:
    """Pointwise pullback of f : X -> Z and g : Y -> Z, with pair-named cells."""
    if f.cod != g.cod:
        raise ShapeUnsupported("pullback legs must share their codomain")
    X, Y = f.dom, g.dom
    return _pair_system(
        X,
        Y,
        [(x, y) for x in X.states for y in Y.states if f.state_map[x] == g.state_map[y]],
        [
            (a, e1, e2)
            for a in X.labels
            for e1 in X.edges[a]
            for e2 in Y.edges[a]
            if f.edge_maps[a][e1] == g.edge_maps[a][e2]
        ],
    )


def _pair_system(
    X: Presheaf,
    Y: Presheaf,
    state_pairs: Sequence[tuple[str, str]],
    edge_pairs: Sequence[tuple[str, str, str]],
) -> tuple[Presheaf, PresheafMorphism, PresheafMorphism]:
    """The system of the given pairs of cells of X and Y, each named
    ``({u},{v})``, and its projections to X and Y.

    Each edge pair ``(label, e1, e2)`` must have its endpoint pairs among
    the state pairs.  Ids with a top-level comma can give two pairs one
    name; that is refused with DuplicateId rather than merging the cells.
    """
    p1 = {f"({u},{v})": u for u, v in state_pairs}
    p2 = {f"({u},{v})": v for u, v in state_pairs}
    arrows = [
        (a, f"({e1},{e2})", f"({X.src[a][e1]},{Y.src[a][e2]})", f"({X.tgt[a][e1]},{Y.tgt[a][e2]})")
        for a, e1, e2 in edge_pairs
    ]
    if len(p1) < len(state_pairs) or len({arrow[1] for arrow in arrows}) < len(arrows):
        raise DuplicateId("two pairs of cells would share one name: an id has a top-level comma")
    p1_edges: dict[str, dict[str, str]] = {a: {} for a in X.labels}
    p2_edges: dict[str, dict[str, str]] = {a: {} for a in X.labels}
    for (a, e1, e2), arrow in zip(edge_pairs, arrows):
        p1_edges[a][arrow[1]], p2_edges[a][arrow[1]] = e1, e2
    P = _system(X.labels, p1, arrows)
    return P, _map(P, X, p1, p1_edges), _map(P, Y, p2, p2_edges)


# ---------------------------------------------------------------------------
# Serialisation.


def presheaf_to_json(X: Presheaf) -> str:
    doc = {
        "labels": list(X.labels),
        "states": list(X.states),
        "edges": {
            a: [{"id": e, "src": X.src[a][e], "tgt": X.tgt[a][e]} for e in X.edges[a]]
            for a in X.labels
        },
    }
    return json.dumps(doc, separators=(",", ":"))


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
        "dom": json.loads(presheaf_to_json(f.dom)),
        "cod": json.loads(presheaf_to_json(f.cod)),
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
