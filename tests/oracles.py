"""Reference constructions that only the tests use.

The program compares maps cell by cell (``presheaf.commutes``), tests
pullback corners pointwise (``presheaf.pullback_report``) and never builds
composites, pullbacks, every map between two systems, T(f) on windows or
lifts through the flattening.  The plain constructions below build them,
as oracles and as inputs for the tests of more than one module.  So are a
rule looked up by its name, a term shape's source arity counted off the
term, and derive as it was, which still takes the switch to the
premise-shortcut engine (the program runs that engine only in its
``terms.Arena``).
So are the empty system and coproducts (the program glues only wide
pushouts), and the depth of a one-layer element measured afresh (the
program never measures a proof: it is as deep as its source is high).
So, last, are the three walks that rebuilt an element leaf by leaf before
each became one call to ``terms.bind``: ``old_map_leaves``, ``old_mu`` and
``old_substitute``, with the two leaf steps of mu copied too, so that they
share no code with what they check.  The two loops that listed terms and
one-hole contexts before both became calls to ``terms._apps`` are copied
here for the same reason, as ``old_strata`` and ``old_enumerate_contexts``,
and so is the premise index that old_derive drops.  The congruence check
as it was, ``old_congruence_test``, decided each (pair, context) case on
its own fragment with ``k_bisimilar``, built by reachable_fragment's own
level loop (``old_reachable_fragment``); the program now refines one
fragment per pair and reads each case's size and frontier off it, by the
same breadth-first walk that builds the fragment.  The
successor engine as it was, ``old_steps`` over ``_old_rule_instances``,
bound each rule instance's variables in a dict (``rule_binding``) and
rebuilt the rule's target through ``substitute``, and so did proof_target
(``old_proof_target``); the program now fills the plan each rule compiles
once (``specdsl.Rule.plan``), and ``substitute`` and ``rule_binding`` are
gone from it.  The copies here, and the premise shortcut copied as
``_old_shortcut_premise``, read the rule's target and its variable names,
never its plan, so they check the plan rather than repeat it.

The closed-term engine that ``bisim`` and ``congruence`` ran before one
``terms.Arena`` of integer ids replaced it is kept last, as the arena's
oracle: ``term_steps`` keyed closed terms as ``App`` trees in a memo, with
a ``canon`` table that kept one object per distinct target;
``lean_successors`` gave its steps generated edge ids; and ``plug`` put a
term in a context's hole, sharing the context's other subterms.  It runs
the program's rule-instance loop over terms, with ``App`` building the
targets and ``_old_shortcut_premise`` as the mutated engine's premise.
"""

from itertools import count, product

from gsos import bisim
from gsos.bisim import Fragment, reachable_fragment, stratified_partition
from gsos.errors import (
    MalformedProof,
    NonCommutingSquare,
    ShapeUnsupported,
    UnknownOperation,
    UnknownState,
)
from gsos.familial import _points
from gsos.presheaf import STAR, _map, _pair_system, _system
from gsos.terms import (
    HOLE,
    App,
    Arena,
    Axiom,
    Node,
    Var,
    _rule_instances,
    mu,
    proof_source,
    render,
    term_vars,
    truncated_free,
    window_map,
)


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


def empty_presheaf(labels):
    """The empty system over labels, initial among systems."""
    return _system(labels, (), ())


def coproduct(parts):
    """The coproduct diagram of systems, the apex and legs of the wide
    pushout of the parts under the empty system, for ``presheaf.colimit``."""
    apex = empty_presheaf(parts[0].labels)
    return apex, tuple(_map(apex, p, {}) for p in parts)


def _old_element_depth(elem) -> int:
    """Height of a one-layer term or depth of a one-layer proof, measured
    afresh: variables and axioms are 0, a node is one more than its
    deepest argument or premise."""
    if isinstance(elem, (Var, Axiom)):
        return 0
    parts = [r for arg in elem.args for r in (arg if isinstance(arg, tuple) else (arg,))]
    return 1 + max((_old_element_depth(r) for r in parts), default=0)


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
        return Axiom(R, R.label)
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


def rule_named(spec, name):
    """The rule of a spec with that expanded name."""
    for r in spec.rules:
        if r.name == name:
            return r
    raise MalformedProof(f"no rule named {name!r}")


def arity_star(labels, m):
    """One point per occurrence of the unique variable, named occ{k}: the
    source arity of a term shape, counted off the term."""
    if not isinstance(m, (Var, App)):
        raise MalformedProof("arity_star expects a term shape")
    return _points(labels, len(term_vars(m)))


def old_derive(spec, term, axioms_of=None, drop_last_premise=False, _memo=None):
    """derive as it was: proofs only; axioms_of lists bare payloads."""
    memo = _memo if _memo is not None else {}

    def shortcut(arg, want):
        if not isinstance(arg, App) or len(arg.args) != 1:
            return []
        return [
            Node(rule, (arg.args[0],))
            for rule in spec.rules
            if rule.op == arg.op
            and rule.label == want
            and all(not g for g in rule.premise_labels)
            and rule.target == Var("x1")
        ]

    def go(t):
        if t in memo:
            return memo[t]
        out = []
        if isinstance(t, Var):
            if axioms_of is not None:
                for a in spec.labels:
                    out.extend(Axiom(e, a) for e in axioms_of(t.name, a))
            memo[t] = tuple(out)
            return memo[t]
        for rule in spec.rules:
            if rule.op != t.op:
                continue
            total = sum(len(g) for g in rule.premise_labels)
            cut = _last_premise_index(rule) if drop_last_premise and total >= 2 else None
            group_choices = []
            for i, labels_i in enumerate(rule.premise_labels):
                if not labels_i:
                    group_choices.append([t.args[i]])
                    continue
                per_j = [
                    shortcut(t.args[i], want)
                    if cut == (i, j)
                    else [r for r in go(t.args[i]) if r.label == want]
                    for j, want in enumerate(labels_i)
                ]
                group_choices.append([tuple(c) for c in product(*per_j)])
            for combo in product(*group_choices):
                out.append(Node(rule, tuple(combo)))
        memo[t] = tuple(out)
        return memo[t]

    return go(term)


def _last_premise_index(rule) -> tuple[int, int]:
    for i in range(len(rule.premise_labels) - 1, -1, -1):
        if rule.premise_labels[i]:
            return i, len(rule.premise_labels[i]) - 1
    raise AssertionError("rule has no premises")


def rule_binding(xs, ys):
    """Bind a rule's variables: ``xs[i]`` to ``x{i+1}`` and ``ys[i][j]``, the
    value of premise (i, j), to ``y{i+1}_{j+1}``."""
    mapping = {}
    for i, x in enumerate(xs):
        mapping[f"x{i + 1}"] = x
        for j, y in enumerate(ys[i]):
            mapping[f"y{i + 1}_{j + 1}"] = y
    return mapping


def old_proof_target(X, p):
    """proof_target as it was: the rule's target with the arguments of the
    source and the premises' targets substituted in."""
    if isinstance(p, Axiom):
        e = p.edge
        return Var(X.tgt[p.label][e] if isinstance(e, str) else old_proof_target(X, e))
    ys = [[old_proof_target(X, r) for r in arg] if isinstance(arg, tuple) else () for arg in p.args]
    return old_substitute(p.rule.target, rule_binding(proof_source(X, p).args, ys))


def old_substitute(t, mapping):
    if isinstance(t, Var):
        if t.name not in mapping:
            raise MalformedProof(f"unbound variable {t.name!r} in substitution")
        return mapping[t.name]
    return App(t.op, tuple(old_substitute(a, mapping) for a in t.args))


def old_map_leaves(elem, on_state, on_edge):
    """Relabel Var and Axiom leaves; the structure is untouched.

    ``on_state(payload)`` and ``on_edge(payload, label)`` return new payloads.
    """
    if isinstance(elem, Var):
        return Var(on_state(elem.name))
    if isinstance(elem, App):
        return App(elem.op, tuple(old_map_leaves(a, on_state, on_edge) for a in elem.args))
    if isinstance(elem, Axiom):
        return Axiom(on_edge(elem.edge, elem.label), elem.label)
    return Node(
        elem.rule,
        tuple(
            tuple(old_map_leaves(r, on_state, on_edge) for r in arg)
            if isinstance(arg, tuple)
            else old_map_leaves(arg, on_state, on_edge)
            for arg in elem.args
        ),
    )


def old_mu(elem):
    if isinstance(elem, Var):
        return _old_mu_var(elem.name)
    if isinstance(elem, App):
        return App(elem.op, tuple(old_mu(a) for a in elem.args))
    if isinstance(elem, Axiom):
        return _old_mu_ax(elem.edge, elem.label)
    return Node(
        elem.rule,
        tuple(
            tuple(old_mu(r) for r in arg) if isinstance(arg, tuple) else old_mu(arg)
            for arg in elem.args
        ),
    )


def _old_mu_var(name):
    """mu on a variable: the term it wraps."""
    if isinstance(name, str):
        raise MalformedProof(f"{render(Var(name))!r} wraps an ambient state: mu needs two layers")
    return name


def _old_mu_ax(edge, label):
    """mu on an axiom: the proof it wraps, which must carry its label."""
    if isinstance(edge, str):
        leaf = render(Axiom(edge, label))
        raise MalformedProof(f"{leaf!r} wraps an ambient edge: mu needs two layers")
    if edge.label != label:
        raise MalformedProof(f"axiom label mismatch flattening {render(Axiom(edge, label))!r}")
    return edge


def old_strata(spec, leaves_by_height, height):
    """Terms by exact height 0..height, with the leaves of height k given.

    A leaf's height is its payload's, so the height of a term is the index
    of its stratum, read off the strata it is built from.  Within a stratum
    the leaves come first, then each operation in signature order over its
    argument tuples in product order; seeded samples index into this order.
    ``old_enumerate_contexts`` keeps its own loop: it puts the hole's
    slot before the argument tuple, and that order seeds sampled contexts.
    """
    strata = []
    for k in range(height + 1):
        exact = list(leaves_by_height[k]) if k < len(leaves_by_height) else []
        below = [(h, t) for h, level in enumerate(strata) for t in level]
        for op, arity in spec.signature.operations:
            if arity == 0:
                if k == 1:
                    exact.append(App(op, ()))
                continue
            for combo in product(below, repeat=arity):
                if 1 + max(h for h, _ in combo) == k:
                    exact.append(App(op, tuple(t for _, t in combo)))
        strata.append(exact)
    return strata


def old_enumerate_contexts(spec, max_height):
    """All one-hole contexts of height <= max_height.

    Non-hole leaves are the 0-ary operations; every operation of the
    signature may appear.  Heights count as for terms, the hole counting 0.
    Every context and closed term carries its height, so a context of
    height h is built only from pieces of height < h.
    """
    strata = old_strata(spec, [], max_height - 1)
    closed = [(h, t) for h, level in enumerate(strata) for t in level]
    ctxs = [(0, Var(HOLE))]
    for h in range(1, max_height + 1):
        level = []
        closed_below = [(k, t) for k, t in closed if k < h]
        for op, arity in spec.signature.operations:
            if arity == 0:
                continue
            for slot in range(arity):
                others = [ctxs if pos == slot else closed_below for pos in range(arity)]
                for combo in product(*others):
                    if 1 + max(k for k, _ in combo) == h:
                        level.append((h, App(op, tuple(t for _, t in combo))))
        ctxs.extend(level)
    return [c for _, c in ctxs]


def k_bisimilar(X, x, y, k):
    """Stratified approximation: refine k times and compare blocks."""
    if x not in X.state_set:
        raise UnknownState(f"{x!r} is not a state")
    if y not in X.state_set:
        raise UnknownState(f"{y!r} is not a state")
    part = stratified_partition(X, k)[-1]
    return part[x] == part[y]


def old_reachable_fragment(spec, seeds, fuel, successors):
    """reachable_fragment as it was, with its own level loop: the program
    now walks the same levels with ``bisim._bfs``, as the congruence check
    walks each case."""
    states, known, level = [], set(), []
    for t in seeds:
        if term_vars(t):
            raise UnknownState("fragment seeds must be closed terms")
        key = render(t)
        if key not in known:
            known.add(key)
            states.append(key)
            level.append(t)
    arrows = []
    for _ in range(fuel):
        next_level = []
        for m in level:
            mk = render(m)
            for a, e, n in successors(m):
                nk = render(n)
                if nk not in known:
                    known.add(nk)
                    states.append(nk)
                    next_level.append(n)
                arrows.append((a, e, mk, nk))
        level = next_level
        if not level:
            break
    return Fragment(_system(spec.labels, states, arrows), frozenset(render(t) for t in level))


def old_congruence_test(spec, pairs, contexts, k, fuel, drop_last_premise=False):
    """congruence_test as it was: every (pair, context) case builds the
    fragment reachable from both composites and refines it on its own; the
    cases of one pair share one steps memo.  ``bisim.require_fuel`` is read
    at call time, so a test can patch it out of both checks at once."""
    bisim.require_fuel(fuel, k)
    for c in contexts:
        if term_vars(c).count(HOLE) != 1:
            raise UnknownState(f"context {render(c)} must have exactly one hole")
    cases = []
    violations = []
    for u, v in pairs:
        successors = lean_successors(spec, drop_last_premise)
        for c in contexts:
            cu, cv = old_substitute(c, {HOLE: u}), old_substitute(c, {HOLE: v})
            frag = old_reachable_fragment(spec, [cu, cv], fuel, successors)
            ok = k_bisimilar(frag.carrier, render(cu), render(cv), k)
            record = {
                "pair": [render(u), render(v)],
                "context": render(c),
                "preserved": ok,
                "definitive": frag.definitive,
                "states": len(frag.carrier.states),
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


def old_steps(spec, t, drop_last_premise, memo):
    """steps as it was: the distinct (label, target) successors of a closed
    term in derive's order, each target built by ``substitute``."""
    known = memo.get(t)
    if known is not None:
        return known
    premises = lambda u, want: [
        s for s in old_steps(spec, u, drop_last_premise, memo) if s[0] == want
    ]
    instances = _old_rule_instances(spec, t, premises, drop_last_premise)
    out = {(rule.label, n): None for rule, _, n in instances}
    memo[t] = tuple(out)
    return memo[t]


def _old_rule_instances(spec, t, premises, drop_last_premise):
    """_rule_instances as it was: every rule instance with source ``t`` as
    ``(rule, choice, target)``, in derive's order."""
    if not spec.signature.has(t.op):
        raise UnknownOperation(f"unknown operation {t.op!r}")
    for rule in spec.rules_by_op.get(t.op, ()):
        cut = None
        if drop_last_premise and sum(len(g) for g in rule.premise_labels) >= 2:
            cut = _last_premise_index(rule)
        group_choices = []
        for i, labels_i in enumerate(rule.premise_labels):
            if not labels_i:
                group_choices.append([t.args[i]])
                continue
            per_j = []
            for j, want in enumerate(labels_i):
                if cut == (i, j):
                    per_j.append(_old_shortcut_premise(spec, t.args[i], want))
                else:
                    per_j.append(premises(t.args[i], want))
                if not per_j[-1]:
                    break
            if not per_j[-1]:
                break
            group_choices.append(list(product(*per_j)))
        else:
            for combo in product(*group_choices):
                ys = [[n for _, n in c] if isinstance(c, tuple) else () for c in combo]
                yield rule, combo, old_substitute(rule.target, rule_binding(t.args, ys))


def _old_shortcut_premise(spec, arg, want_label):
    """The premise shortcut as it was: the unary premise-less rules with
    target x1 and the wanted label, each paired with the operand."""
    if not isinstance(arg, App) or len(arg.args) != 1:
        return []
    return [
        (Node(rule, (arg.args[0],)), arg.args[0])
        for rule in spec.rules_by_op.get(arg.op, ())
        if rule.label == want_label
        and all(not g for g in rule.premise_labels)
        and rule.target == Var("x1")
    ]


def term_steps(spec, t, drop_last_premise, memo, canon):
    """The closed-term engine as it was: the distinct (label, target)
    successors of a closed term, in the order of their first occurrence in
    derive's output.  ``memo`` maps terms to their steps, also grouped by
    label for premise lookups, for one value of ``drop_last_premise``;
    ``canon`` keeps one object per distinct target."""
    return _term_steps(spec, t, drop_last_premise, memo, canon)[0]


def _term_steps(spec, t, drop_last_premise, memo, canon):
    known = memo.get(t)
    if known is not None:
        return known
    premises = lambda u, want: _term_steps(spec, u, drop_last_premise, memo, canon)[1].get(want, ())
    shortcut = (lambda u, want: _old_shortcut_premise(spec, u, want)) if drop_last_premise else None
    instances = _rule_instances(spec, t.op, t.args, premises, App, shortcut)
    out = {(rule.label, canon.setdefault(n, n)): None for rule, _, n in instances}
    by_label = {}
    for s in out:
        by_label.setdefault(s[0], []).append(s)
    memo[t] = (tuple(out), by_label)
    return memo[t]


def lean_successors(spec, drop_last_premise):
    """One edge per distinct (label, target) step, with ids 0, 1, ..., and
    one object per distinct target, over one steps memo of its own."""
    ids, memo, canon = count(), {}, {}
    return lambda m: [
        (a, str(next(ids)), n) for a, n in term_steps(spec, m, drop_last_premise, memo, canon)
    ]


def plug(c, u):
    """c with u in its hole, None if c has no hole.  Only the nodes above
    the hole are new: every other subterm is c's own."""
    if isinstance(c, Var):
        return u if c.name == HOLE else None
    for i, a in enumerate(c.args):
        t = plug(a, u)
        if t is not None:
            return App(c.op, (*c.args[:i], t, *c.args[i + 1 :]))
    return None


def arena_fragment(spec, seeds, fuel, drop_last_premise=False):
    """The fragment reachable from closed terms, built over one arena as
    ``gsos bisim`` builds it."""
    arena = Arena(spec, drop_last_premise)
    ids = [arena.intern(t) for t in seeds]
    return reachable_fragment(spec, ids, fuel, arena.arrows, arena.text)
