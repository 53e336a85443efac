"""Reachable fragments, stratified bisimilarity, and the congruence check.

Bisimilarity on the (generally infinite) syntactic system is approximated
by k-strata on fuel-bounded fragments.  A result is definitive when the
fragment has an empty frontier; otherwise it holds up to depth k, which is
sound for the root states whenever fuel >= k because a state at distance d
from a root is only ever consulted at stratum k - d.

Refinement is iterated naive splitting on transition signatures: two
states are separated at stratum n+1 iff their sets of (label, block at
stratum n of target) differ, until stratum k or a stable stratum.
Matching is existential, so parallel edges never change an answer:
fragments that are only refined keep one edge per distinct (label, target)
step, over the ids of one ``terms.Arena`` per run.  One breadth-first
walk, :func:`_bfs`, lists the states and the frontier of every fragment.
The congruence check builds and refines one fragment per pair, reachable
from all of its composites, and the same walk over the arena's steps
gives each case its size and frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import FuelTooSmall, UnknownState
from .presheaf import (
    STAR,
    Presheaf,
    PresheafMorphism,
    _pair_system,
    _system,
    is_functional_bisimulation,
)
from .terms import (
    HOLE,
    Arena,
    Term,
    Var,
    _apps,
    _strata,
    derive,
    render,
    term_vars,
)


@dataclass(frozen=True)
class Fragment:
    """A finite window onto the closed-term system.

    Every non-frontier state has all of its one-step successors present;
    frontier states were reached at the fuel horizon and not expanded.
    """

    carrier: Presheaf
    frontier: frozenset[str]

    @property
    def definitive(self) -> bool:
        return not self.frontier


def reachable_fragment(spec, seeds: Sequence, fuel: int, successors: Callable, text=render):
    """Breadth-first closure of closed seeds, up to fuel steps.

    ``successors(m)`` lists the (label, edge id, target) steps out of m:
    :func:`proof_successors` over terms parsed as closed, for ``gsos lts``,
    which names each edge by its proof, or ``Arena.arrows`` over an arena's
    ids, with ``text=arena.text``; the parser and ``Arena.intern`` refuse a
    variable.  Both give the same targets in the same order, so the states
    and the frontier do not depend on the choice, and two closed terms are
    equal exactly when their texts are, so the states are texts."""
    arrows = []

    def expand(m) -> list:
        out, mk = successors(m), text(m)
        arrows.extend([(a, e, mk, text(n)) for a, e, n in out])
        return [n for _, _, n in out]

    reached, frontier = _bfs(seeds, fuel, expand)
    carrier = _system(spec.labels, [text(t) for t in reached], arrows)
    return Fragment(carrier, frozenset(text(t) for t in frontier))


def _bfs(roots: Iterable, fuel: int, successors: Callable) -> tuple[list, list]:
    """The nodes within fuel steps of the roots, in breadth-first discovery
    order, and the frontier: those at exactly fuel steps, which are not
    expanded (empty if the walk ends first).  ``successors(x)`` lists the
    nodes one step from x, and is called on every other node, in order."""
    seen = dict.fromkeys(roots)
    level = list(seen)
    for _ in range(fuel):
        if not level:
            break
        next_level = []
        for x in level:
            for y in successors(x):
                if y not in seen:
                    seen[y] = None
                    next_level.append(y)
        level = next_level
    return list(seen), level


def proof_successors(spec) -> Callable:
    """One edge per derived proof, named by the proof's rendering."""
    memo: dict = {}
    return lambda m: [
        (p.label, render(p), n) for p, n in derive(spec, m, None, _memo=memo)
    ]


# ---------------------------------------------------------------------------
# Stratified refinement.


def stratified_partition(X: Presheaf, k: int) -> list[dict[str, int]]:
    """Block index of every state at strata 0, 1, ..., up to k or to the
    first stratum equal to the one before it, which is stable: stratum k is
    ``history[-1]``, and stratum n is ``history[min(n, len(history) - 1)]``."""
    succ = {x: [(a, X.tgt[a][e]) for a in X.labels for e in X.out_edges(x, a)] for x in X.states}
    history = [{x: 0 for x in X.states}]
    for _ in range(k):
        block = history[-1]
        canon: dict[tuple, int] = {}
        new_block = {}
        for x in X.states:
            key = (block[x], frozenset([(a, block[y]) for a, y in succ[x]]))
            if key not in canon:
                canon[key] = len(canon)
            new_block[x] = canon[key]
        history.append(new_block)
        if new_block == block:
            break
    return history


def require_fuel(fuel: int, k: int) -> None:
    """Refuse a stratum-k question on a fragment explored with fuel < k.

    Frontier states look deadlocked, so a shallower fragment can make
    distinct roots look k-equivalent.
    """
    if fuel < k:
        raise FuelTooSmall(f"fuel {fuel} < stratum {k}")


def refinement_fixpoint(X: Presheaf) -> dict[str, int]:
    """Refine until stable (at most |states| rounds)."""
    return stratified_partition(X, len(X.states) + 1)[-1]


@dataclass(frozen=True)
class RelationOnStates:
    carrier: Presheaf
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        states = self.carrier.state_set
        for x, y in self.pairs:
            if x not in states or y not in states:
                raise UnknownState(f"pair ({x!r},{y!r}) is not within the carrier")


def relation_presheaf(
    r: RelationOnStates,
) -> tuple[Presheaf, PresheafMorphism, PresheafMorphism]:
    """The induced relation system and its two projections.

    States are the pairs; for each label, one edge per pair of edges with
    componentwise related endpoints.
    """
    X = r.carrier
    pairs = {
        a: [
            (e1, e2)
            for e1 in X.edges[a]
            for e2 in X.edges[a]
            if (X.src[a][e1], X.src[a][e2]) in r.pairs
            and (X.tgt[a][e1], X.tgt[a][e2]) in r.pairs
        ]
        for a in X.labels
    }
    pairs[STAR] = sorted(r.pairs)
    return _pair_system(X, X, pairs)


def check_bisimulation_relation(r: RelationOnStates) -> bool:
    """Both projections of the induced relation system must lift."""
    R, p1, p2 = relation_presheaf(r)
    return bool(is_functional_bisimulation(p1)) and bool(is_functional_bisimulation(p2))


# ---------------------------------------------------------------------------
# Contexts and the congruence report.


def enumerate_contexts(spec, max_height: int) -> list[Term]:
    """All one-hole contexts of height <= max_height.

    Non-hole leaves are the 0-ary operations; every operation of the
    signature may appear.  Heights count as for terms, the hole counting 0.
    Context h is built by ``terms._apps`` over slot-first pools: a context
    of height < h in one slot, closed terms of height < h in the others.
    """
    strata = _strata(spec, [], max_height - 1)
    ctxs: list[list[Term]] = [[Var(HOLE)]]
    for h in range(1, max_height + 1):
        holes = tuple((k, c) for k, level in enumerate(ctxs) for c in level)
        closed = tuple((k, t) for k, level in enumerate(strata[:h]) for t in level)
        slot_first = lambda n: ([holes if i == s else closed for i in range(n)] for s in range(n))
        ctxs.append(list(_apps(spec, h, slot_first)))
    return [c for level in ctxs for c in level]


def sample_contexts(spec, max_height: int, count: int, rng) -> list[Term]:
    """A deduplicated random sample of one-hole contexts.

    The default congruence surface; exhaustive enumeration stays available
    through :func:`enumerate_contexts` for tiny signatures.
    """
    pool = enumerate_contexts(spec, max_height)
    if count >= len(pool):
        return pool
    picked = rng.sample(range(len(pool)), count)
    return [pool[i] for i in sorted(picked)]


def congruence_test(
    spec,
    pairs: Sequence[tuple[Term, Term]],
    contexts: Sequence[Term],
    k: int,
    fuel: int,
    drop_last_premise: bool = False,
) -> dict:
    """Do all contexts preserve stratum-k equivalence of all pairs?

    Each pair refines once the fragment reachable from the composites of
    all contexts, over one arena.  As fuel >= k, every state within k - 1
    steps of a case's roots is expanded there, so their blocks at stratum k
    decide the case.  Every state within fuel - 1 steps of them is expanded
    there too, so :func:`_bfs`, the walk that builds every fragment, run
    from the roots over the arena's memoised steps with the same fuel,
    gives the case's ``states`` and ``definitive`` as its own fragment
    would.  Violations are the cases where the composites are not
    k-equivalent.  A context variable other than its hole is refused.
    """
    require_fuel(fuel, k)
    for c in contexts:
        if term_vars(c).count(HOLE) != 1:
            raise UnknownState(f"context {render(c)} must have exactly one hole")
    cases = []
    violations = []
    for u, v in pairs:
        arena = Arena(spec, drop_last_premise)
        iu, iv = arena.intern(u), arena.intern(v)
        composites = [(c, arena.intern(c, iu), arena.intern(c, iv)) for c in contexts]
        roots = [i for _, cu, cv in composites for i in (cu, cv)]
        X = reachable_fragment(spec, roots, fuel, arena.arrows, arena.text).carrier
        block = stratified_partition(X, k)[-1]
        after = lambda i: [n for _, n in arena.steps(i)]
        for c, cu, cv in composites:
            states, frontier = _bfs((cu, cv), fuel, after)
            ok = block[arena.text(cu)] == block[arena.text(cv)]
            record = {
                "pair": [render(u), render(v)],
                "context": render(c),
                "preserved": ok,
                "definitive": not frontier,
                "states": len(states),
            }
            cases.append(record)
            if not ok:
                violations.append(record)
    return {
        "stratum": k,
        "fuel": fuel,
        "mutated": drop_last_premise,
        "pairs": len(pairs),
        "contexts": len(contexts),
        "cases": cases,
        "violations": violations,
        "ok": not violations,
    }

