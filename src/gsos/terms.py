"""The free construction on a rule specification: terms and transition proofs.

States of the free system over an ambient system X are terms over X's
states; edges are proofs built from the rules, with axioms drawn from X's
edges.  The whole free system is infinite, so every materialisation here is
truncated by an explicit bound on term height: height counts constructor
nesting (variables are 0, a 0-ary operation is 1).

Elements of iterated layers (terms over terms, proofs over proofs) carry
the inner element itself as their leaf payload: a variable of the second
layer holds a term over X, an axiom a proof over X.  Flattening a layer
substitutes each payload for its leaf, and rendering prints a payload with
the same syntax, so var(par(var(x),nil)) names a two-layer term exactly as
it did when payloads were strings.  One recursion, :func:`bind` (the Kleisli
extension of the free monad), rebuilds an element leaf by leaf: mu, T(f),
the map to 1, map_leaves and familial.recompose each call it once.  The
rule instances out of a term are one product per rule over its premises'
choices, in the slot order of the rule's plan (``specdsl.Rule.plan``, made
once per rule); derive, :class:`Arena` and proof_target fill the plan to
build an instance's target, and familial's walk reads its slot list.  Text
is parsed only when it comes from outside the program, and checked once, by
the parser: every state, edge, operation, rule and premise is checked as
it is read, so a parsed element is well formed over its system and the
code inside trusts it.  The parser is one left-to-right reader: it reads
each character once, builds each node when its text closes and a proof
together with its source, and takes a var(...) or ax(...) payload by the
one payload rule, ``presheaf._read_payload``.

The four node classes (Var, App, Axiom, Node) are frozen slotted
dataclasses that compare structurally, and every proof answers ``label``:
an axiom its own, a rule node its rule's.  Each node stores its hash and
its rendering in two fields outside its equality, repr and pickle, the
first time either is asked for, so a subtree shared by many elements (a
payload, a premise, a derived subterm) is hashed and printed once, and a
lookup in a memo or a window dictionary costs one hash of the node's own
fields.  Both caches are filled lazily, not at construction: most nodes of
a window are built, tested and dropped, and are hashed or rendered at most
once, so an eager cache would cost time on every node and save it on few.
Equal nodes need not be the same object (there is no intern table);
equality tries identity first, then compares fields.  ``bisim`` and
``congruence`` hold closed terms as the integer ids of an :class:`Arena`.

A proof is as deep as its source is high: each rule node sits over one
operation of its source, and the premises of argument i are proofs out of
the i-th subterm.  So the depth-d window, in every layer, is the full
subsystem of the free system on the terms of (flattened) height <= d:
every derived proof out of a window state whose target is also a window
state is an edge, and no proof is ever measured.  Window elements share
their subtrees (strata reuse subterms, derive's memo reuses sub-proofs).
A window map (mu, the map to 1, T(f)) is given the texts of its leaves'
images and formats each distinct node's image text once, with the
formatter render uses; no image tree is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product, zip_longest
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from .errors import (
    MalformedProof,
    UnknownLabel,
    UnknownOperation,
    UnknownState,
)
from .presheaf import (
    STAR,
    LabelSet,
    Presheaf,
    PresheafMorphism,
    _map,
    _read_payload,
    _system,
)

if TYPE_CHECKING:  # pragma: no cover
    from .specdsl import GsosSpec, Rule

HOLE = "__hole__"


_set = object.__setattr__


@dataclass(frozen=True, slots=True, eq=False)
class _Syntax:
    """An immutable syntax node; its hash and rendering are cached on first use.

    Each node is a frozen slotted dataclass over its own fields, which it
    returns as a tuple from ``_key``; equality and the hash are those of the
    key, with the hash cached in ``_hash`` and the text in ``_text``.  A
    node pickles as its fields only, so no cached hash crosses processes.
    """

    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _text: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key())
            _set(self, "_hash", h)
        return h

    def __reduce__(self):
        return type(self), self._key()


@dataclass(frozen=True, slots=True, eq=False)
class Var(_Syntax):
    """A wrapped ambient state, written var(x).

    In the first layer ``name`` is a state id of the ambient system; in the
    layers above it is a term one layer down.
    """

    name: Union[str, "Term"]

    def _key(self) -> tuple:
        return (self.name,)


@dataclass(frozen=True, slots=True, eq=False)
class App(_Syntax):
    op: str
    args: tuple["Term", ...]

    def _key(self) -> tuple:
        return (self.op, self.args)


Term = Union[Var, App]


@dataclass(frozen=True, slots=True, eq=False)
class Axiom(_Syntax):
    """A wrapped ambient edge, written ax(e); the label is carried along.

    In the first layer ``edge`` is an edge id of the ambient system; in the
    layers above it is a proof one layer down, with the same label.
    """

    edge: Union[str, "Proof"]
    label: str

    def _key(self) -> tuple:
        return (self.edge, self.label)


@dataclass(frozen=True, slots=True, eq=False)
class Node(_Syntax):
    """A rule application; its label is its rule's.

    ``args`` has one entry per operation argument: the plain source term for
    premise-less arguments, or the tuple of premise proofs (in premise
    order) otherwise.
    """

    rule: "Rule"
    args: tuple[Union[Term, tuple["Proof", ...]], ...]

    @property
    def label(self) -> str:
        return self.rule.label

    def _key(self) -> tuple:
        return (self.rule, self.args)


Proof = Union[Axiom, Node]
Element = Union[Term, Proof]


# ---------------------------------------------------------------------------
# Rendering and measures.


def render(elem: Element) -> str:
    """The canonical text of an element, computed once per node."""
    text = elem._text
    if text is None:
        text = _render(elem, render, _var_text, _ax_text)
        _set(elem, "_text", text)
    return text


def _render(elem: Element, text: Callable, on_var: Callable, on_ax: Callable) -> str:
    """Format one node: a leaf by ``on_var(payload)`` or ``on_ax(payload,
    label)``, an operation or rule node around the texts ``text`` gives its
    children.  Canonical text and image text differ only in these three."""
    if isinstance(elem, Var):
        return on_var(elem.name)
    if isinstance(elem, App):
        if not elem.args:
            return elem.op
        return f"{elem.op}({','.join([text(t) for t in elem.args])})"
    if isinstance(elem, Axiom):
        return on_ax(elem.edge, elem.label)
    parts: list[str] = []
    for arg in elem.args:
        if isinstance(arg, tuple):
            parts.extend([text(r) for r in arg])
        else:
            parts.append(f"term({text(arg)})")
    if not parts:
        return elem.rule.name
    return f"{elem.rule.name}({','.join(parts)})"


def _var_text(name: Union[str, "Term"]) -> str:
    return f"var({name if isinstance(name, str) else render(name)})"


def _ax_text(edge: Union[str, "Proof"], _label: str) -> str:
    return f"ax({edge if isinstance(edge, str) else render(edge)})"


@dataclass(slots=True, eq=False)
class ImageText:
    """The text of an element's image under a leaf relabelling, with no
    image built.

    ``on_var(payload)`` and ``on_ax(payload, label)`` give the texts of the
    leaves' images; an operation or rule node keeps its operation or rule
    and is formatted as :func:`render` formats it.  Each distinct node is
    formatted once per instance: the memo is keyed by node identity, so the
    nodes asked about must stay alive as long as the instance is used.
    """

    on_var: Callable
    on_ax: Callable
    memo: dict[int, str] = field(default_factory=dict, init=False, repr=False)

    def __call__(self, elem: Element) -> str:
        key = id(elem)
        text = self.memo.get(key)
        if text is None:
            text = self.memo[key] = _render(elem, self, self.on_var, self.on_ax)
        return text


def flattened_height(t: Term) -> int:
    """The height of a term with every layer flattened: a variable whose
    payload is a term counts as that term's height, an ambient one as 0."""
    if isinstance(t, Var):
        return 0 if isinstance(t.name, str) else flattened_height(t.name)
    return 1 + max(map(flattened_height, t.args), default=0)


def term_vars(t: Term) -> tuple[Union[str, Term], ...]:
    """Variable payloads in leaf order, with repeats."""
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.append(u.name)
        else:
            stack.extend(reversed(u.args))
    return tuple(out)


def bind(elem: Element, on_var: Callable, on_ax: Callable) -> Element:
    """The Kleisli extension: each Var leaf becomes the term ``on_var(payload)``,
    each Axiom leaf the proof ``on_ax(payload, label)``, leaves left to right,
    and every operation and rule node is rebuilt around its new children."""
    if isinstance(elem, Var):
        return on_var(elem.name)
    if isinstance(elem, App):
        return App(elem.op, tuple([bind(a, on_var, on_ax) for a in elem.args]))
    if isinstance(elem, Axiom):
        return on_ax(elem.edge, elem.label)
    return Node(
        elem.rule,
        tuple(
            tuple([bind(r, on_var, on_ax) for r in arg])
            if isinstance(arg, tuple)
            else bind(arg, on_var, on_ax)
            for arg in elem.args
        ),
    )


def map_leaves(elem: Element, on_state: Callable, on_edge: Callable) -> Element:
    """Relabel Var and Axiom leaves: the bind whose leaves wrap the new
    payloads ``on_state(payload)`` and ``on_edge(payload, label)``."""
    return bind(elem, lambda x: Var(on_state(x)), lambda e, a: Axiom(on_edge(e, a), a))


def to_terminal(elem: Element) -> Element:
    """The unique map to the one-state system: the bind of x |-> *, e |-> a."""
    return bind(elem, lambda _x: Var(STAR), lambda _e, a: Axiom(a, a))


# ---------------------------------------------------------------------------
# Sources and targets of proofs.


def proof_source(X: Presheaf, p: Proof) -> Term:
    """The source of a proof of any layer over X.

    An axiom leaf stands for the source of its payload: an edge of X in the
    first layer, a proof one layer down above it.
    """
    if isinstance(p, Axiom):
        e = p.edge
        return Var(X.src[p.label][e] if isinstance(e, str) else proof_source(X, e))
    return App(p.rule.op, tuple(proof_source(X, a[0]) if isinstance(a, tuple) else a for a in p.args))


def proof_target(X: Presheaf, p: Proof) -> Term:
    """The target of a proof of any layer over X: the rule's plan filled
    with the arguments of the source and the premises' targets."""
    if isinstance(p, Axiom):
        e = p.edge
        return Var(X.tgt[p.label][e] if isinstance(e, str) else proof_target(X, e))
    ys = [proof_target(X, r) for arg in p.args if isinstance(arg, tuple) for r in arg]
    return p.rule.plan.fill((*proof_source(X, p).args, *ys), App)


# ---------------------------------------------------------------------------
# Concrete syntax.


def parse_term(spec: "GsosSpec", X: Optional[Presheaf], text: str, allow_hole: bool = False) -> Term:
    """Parse a term over X, or a closed term when X is None."""
    reader = _Reader(spec, X, text)
    return reader.end(reader.term(allow_hole))


def parse_proof(spec: "GsosSpec", X: Presheaf, text: str) -> Proof:
    """Parse a proof over X; the parse checks everything a proof must satisfy."""
    reader = _Reader(spec, X, text)
    return reader.end(reader.proof()[0])


# Blanks; a name: word characters, then the [...] suffix of an expanded rule name.
_BLANKS, _NAME = re.compile(r"\s*"), re.compile(r"\w*(?:\[[^\]]*\]?)?")


class _Reader:
    """One left-to-right pass over element text; each node is built when
    its text closes, and a proof together with its source, so the premises
    of an argument are compared by the sources their reads built.  Each
    nesting level takes one frame: the frame that reads a node reads its
    arguments in a loop over :meth:`args`.  Blanks may surround an element,
    but not separate a name from its ``(``, except one space after ``term``."""

    __slots__ = ("spec", "X", "text", "i")

    def __init__(self, spec: "GsosSpec", X: Optional[Presheaf], text: str):
        self.spec, self.X, self.text, self.i = spec, X, text, 0
        self.peek()

    def peek(self) -> str:
        """Pass blanks; the next character, or '' at the end."""
        self.i = i = _BLANKS.match(self.text, self.i).end()
        return self.text[i : i + 1]

    def fault(self, what: str) -> MalformedProof:
        return MalformedProof(f"{what} at {self.i} in {self.text!r}")

    def end(self, elem: Element) -> Element:
        if self.peek():
            raise self.fault("trailing input")
        return elem

    def name(self) -> str:
        found = _NAME.match(self.text, self.i)
        self.i = found.end()
        return found.group()

    def payload(self, wrapper: str) -> str:
        if not self.text.startswith("(", self.i):
            raise self.fault(f"{wrapper} needs a payload")
        found = _read_payload(self.text, self.i + 1)
        if found is None:
            raise self.fault("unbalanced parentheses")
        self.i = found[1] + 1
        return found[0]

    def args(self) -> Iterator[None]:
        """Yield once per argument of the node whose name was just read,
        with the cursor on the argument, for the caller to read it."""
        if not self.text.startswith("(", self.i):
            return
        self.i += 1
        if self.peek() != ")":
            yield
            while self.peek() == ",":
                self.i += 1
                self.peek()
                yield
        if self.peek() != ")":
            raise self.fault("expected ',' or ')'")
        self.i += 1

    def term(self, allow_hole: bool) -> Term:
        head = self.name()
        if not head:
            raise self.fault("cannot parse term")
        if head == "hole":
            if not allow_hole:
                raise self.fault("unexpected hole")
            return Var(HOLE)
        if head == "var":
            x = self.payload("var")
            if allow_hole and x == HOLE:
                return Var(HOLE)  # the hole as a report prints it
            if self.X is None:
                raise UnknownState(f"variable {x!r} in a closed-term position")
            if x not in self.X.state_set:
                raise UnknownState(f"{x!r} is not an ambient state")
            return Var(x)
        if not self.spec.signature.has(head):
            raise UnknownOperation(f"unknown operation {head!r} in {self.text!r}")
        args = []
        for _ in self.args():
            args.append(self.term(allow_hole))
        arity = self.spec.signature.arity(head)
        if len(args) != arity:
            raise UnknownOperation(f"{head!r} expects {arity} arguments, got {len(args)}")
        return App(head, tuple(args))

    def proof(self) -> tuple[Proof, Term]:
        """A proof and its source."""
        head = self.name()
        if not head:
            raise self.fault("cannot parse proof")
        if head == "ax":
            e = self.payload("ax")
            a = self.X.label_of(e)
            return Axiom(e, a), Var(self.X.src[a][e])
        rules = self.spec.rules
        named = [r for r in rules if r.name == head] or [r for r in rules if r.base_name == head]
        if not named:
            raise MalformedProof(f"unknown rule {head!r}")
        args, sources = [], []
        for _ in self.args():
            if self.text.startswith(("term(", "term ("), self.i):
                self.i = self.text.index("(", self.i) + 1
                self.peek()
                elem = source = self.term(False)
                if self.peek() != ")":
                    raise self.fault("expected ')'")
                self.i += 1
            else:
                elem, source = self.proof()
            args.append(elem)
            sources.append(source)
        shape = [a.label if isinstance(a, (Axiom, Node)) else None for a in args]
        matches = [r for r in named if shape == [a for g in r.premise_labels for a in g or (None,)]]
        if not matches:
            raise MalformedProof(f"no expansion of rule {head!r} matches {self.text!r}")
        if len(matches) > 1:
            raise MalformedProof(f"rule name {head!r} is ambiguous for {self.text!r}")
        rule = matches[0]
        grouped, source_args, k = [], [], 0
        for i, n in enumerate(rule.premise_counts):
            source_args.append(sources[k])
            if n == 0:
                grouped.append(args[k])
            elif any(s != sources[k] for s in sources[k + 1 : k + n]):
                raise MalformedProof(
                    f"rule {rule.name!r}: premises of argument {i + 1} disagree on source"
                )
            else:
                grouped.append(tuple(args[k : k + n]))
            k += n or 1
        return Node(rule, tuple(grouped)), App(rule.op, tuple(source_args))


# ---------------------------------------------------------------------------
# Derivation: all proofs with a given conclusion source.


def derive(
    spec: "GsosSpec",
    term: Term,
    axioms_of: Optional[Callable[[object, str], Sequence]] = None,
    _memo: Optional[dict] = None,
) -> tuple[tuple[Proof, Term], ...]:
    """All proofs whose conclusion source is exactly ``term``, each paired
    with its conclusion target.

    Every pair ``(p, n)`` satisfies ``n == proof_target(X, p)`` over the
    ambient system X the leaves resolve in; the target is built from the
    pieces at hand instead of being re-derived from the proof.  A rule
    node's target is the rule's target term with ``x_i`` replaced by the
    i-th argument of ``term`` and ``y_i_j`` by the target of premise
    ``(i, j)``; an axiom leaf's target wraps its payload's target.

    ``axioms_of(payload, label)`` lists the axioms out of a leaf as
    ``(payload, payload target)`` pairs: the ambient edges out of a state in
    the first layer (:func:`ambient_axioms`), the proofs out of a wrapped
    term above it; None means a closed derivation (no axioms).  Premises of
    a rule argument are derived from that argument's subterm, so all
    premises of one group share their source by construction.  Rules are
    tried in declaration order and premise choices are combined
    left-to-right, which fixes the output order.
    """
    memo = _memo if _memo is not None else {}
    return _derive(spec, term, axioms_of, memo)


def _derive(spec, t: Term, axioms_of, memo: dict):
    # A module-level recursion rather than a closure over itself, so the
    # memo is freed when the caller drops it, without waiting for the
    # cyclic garbage collector.
    known = memo.get(t)
    if known is not None:
        return known
    out: list[tuple[Proof, Term]] = []
    if isinstance(t, Var):
        if axioms_of is not None:
            for a in spec.labels:
                for e, n in axioms_of(t.name, a):
                    out.append((Axiom(e, a), Var(n)))
        memo[t] = tuple(out)
        return memo[t]
    premises = lambda u, want: [
        r for r in _derive(spec, u, axioms_of, memo) if r[0].label == want
    ]
    for rule, choice, n in _rule_instances(spec, t.op, t.args, premises, App):
        proofs, k, args = [r for r, _ in choice], 0, []
        for a, m in zip(t.args, rule.premise_counts):
            args.append(tuple(proofs[k : k + m]) if m else a)
            k += m
        out.append((Node(rule, tuple(args)), n))
    memo[t] = tuple(out)
    return memo[t]


def _rule_instances(spec, op: str, args: tuple, premises: Callable, mk: Callable, shortcut=None):
    """Every rule instance with source ``op(args)`` as ``(rule, choice,
    target)``, in derive's order; ``premises(u, a)`` lists the (premise,
    target) pairs with label a out of the argument u, but ``shortcut(u, a)``
    the last premise of a rule with at least two, if given.  ``choice``
    holds one chosen pair per premise, in slot order, and the rule's plan
    fills in the target, each operation node built by ``mk``.
    """
    if not spec.signature.has(op):
        raise UnknownOperation(f"unknown operation {op!r}")
    for rule in spec.rules_by_op.get(op, ()):
        fill, _, wanted = rule.plan
        cut = len(wanted) - 1 if shortcut is not None and len(wanted) >= 2 else None
        choices: list[list] = []
        for k, (i, a) in enumerate(wanted):
            u = args[i]
            choices.append(shortcut(u, a) if k == cut else premises(u, a))
            if not choices[-1]:
                break
        else:
            for choice in product(*choices):
                yield rule, choice, fill((*args, *[n for _, n in choice]), mk)


class Arena:
    """Closed terms as dense integer ids, with their steps, for one run.

    ``mk(op, arg_ids)`` gives each (operation, argument ids) pair one id, so
    equal terms are one integer.  ``steps(i)``, memoised per id, lists the
    distinct (label, target id) steps of i in derive's order, by derive's
    loop with ``mk`` building the targets and no proof built, and
    ``text(i)`` renders i once.  ``drop_last_premise`` switches on the
    broken engine of the congruence test's negative control (:meth:`_shortcut`).
    """

    def __init__(self, spec: "GsosSpec", drop_last_premise: bool = False):
        self.spec, self.mutated = spec, drop_last_premise
        self.nodes, self.ids, self.memo, self.by_label, self.texts = [], {}, {}, {}, {}

    def mk(self, op: str, args: tuple[int, ...]) -> int:
        i = self.ids.setdefault((op, args), len(self.nodes))
        if i == len(self.nodes):
            self.nodes.append((op, args))
        return i

    def intern(self, t: Term, hole: Optional[int] = None) -> int:
        """The id of a closed term, or of a one-hole context with the id
        ``hole`` in its hole; every other variable is refused."""
        if isinstance(t, Var):
            if hole is None or t.name != HOLE:
                raise UnknownState(f"{render(t)} in a closed-term position")
            return hole
        return self.mk(t.op, tuple([self.intern(a, hole) for a in t.args]))

    def text(self, i: int) -> str:
        if i not in self.texts:
            op, args = self.nodes[i]
            self.texts[i] = f"{op}({','.join(map(self.text, args))})" if args else op
        return self.texts[i]

    def steps(self, i: int) -> tuple[tuple[str, int], ...]:
        known = self.memo.get(i)
        if known is not None:
            return known
        shortcut = self._shortcut if self.mutated else None
        instances = _rule_instances(self.spec, *self.nodes[i], self._premises, self.mk, shortcut)
        known = self.memo[i] = tuple({(rule.label, n): None for rule, _, n in instances})
        by_label = self.by_label[i] = {}
        for s in known:
            by_label.setdefault(s[0], []).append(s)
        return known

    def arrows(self, i: int) -> list[tuple[str, str, int]]:
        """i's steps as (label, edge id, target), each edge named uniquely."""
        return [(a, f"{i}.{k}", n) for k, (a, n) in enumerate(self.steps(i))]

    def _premises(self, u: int, want: str):
        self.steps(u)
        return self.by_label[u].get(want, ())

    def _shortcut(self, u: int, want: str) -> list[tuple[str, int]]:
        """The broken premise: a unary u steps to its operand by each
        premise-less rule of its operation with label ``want`` and target x1."""
        op, args = self.nodes[u]
        if len(args) != 1:
            return []
        return [
            (want, args[0])
            for rule in self.spec.rules_by_op.get(op, ())
            if rule.label == want and not rule.plan.premises and isinstance(rule.target, Var)
        ]


def ambient_axioms(X: Presheaf) -> Callable[[str, str], list[tuple[str, str]]]:
    """Axiom resolver of the first layer over X, for :func:`derive`: the
    label-edges out of a state, each paired with its target state."""
    return lambda x, a: [(e, X.tgt[a][e]) for e in X.out_edges(x, a)]


# ---------------------------------------------------------------------------
# Truncated materialisations of the free layers.


def terms_upto(spec: "GsosSpec", variables: Sequence[str], height: int) -> list[Term]:
    """All terms of height <= height over the given variables, stratified."""
    return [t for s in _strata(spec, [[Var(v) for v in variables]], height) for t in s]


def _strata(
    spec: "GsosSpec", leaves_by_height: Sequence[Sequence[Term]], height: int
) -> list[list[Term]]:
    """Terms by exact height 0..height, with the leaves of height k given.

    A leaf's height is its payload's, so the height of a term is the index
    of its stratum, read off the strata it is built from.  Within a stratum
    the leaves come first, then each operation in signature order over its
    argument tuples in product order; seeded samples index into this order.
    """
    strata: list[list[Term]] = []
    for k, leaves in zip_longest(range(height + 1), leaves_by_height[: height + 1], fillvalue=()):
        below = tuple((h, t) for h, level in enumerate(strata) for t in level)
        strata.append([*leaves, *_apps(spec, k, lambda n: [[below] * n])])
    return strata


def _apps(spec: "GsosSpec", k: int, pools_of: Callable) -> Iterator[Term]:
    """The operation nodes of exact height k: each operation in signature
    order, over each of its pool lists ``pools_of(arity)`` in turn, over the
    argument tuples in product order.  A pool list holds one tuple of
    (height, term) pairs per argument; a 0-ary operation is of height 1."""
    height, term = itemgetter(0), itemgetter(1)
    for op, arity in spec.signature.operations:
        for pools in pools_of(arity):
            for combo in product(*pools):
                if 1 + max(map(height, combo), default=0) == k:
                    yield App(op, tuple(map(term, combo)))


def truncated_free(spec: "GsosSpec", X: Presheaf, d: int):
    """The depth-d window of the free system over X: the full subsystem on
    the terms of height <= d, whose edges (every proof between them) have
    depth <= d because a proof is as deep as its source is high.

    Returns (presheaf, term decode, proof decode); states are canonical term
    renderings, edges canonical proof renderings.
    """
    return _window(spec, X, terms_upto(spec, X.states, d), ambient_axioms(X))


def _window(spec: "GsosSpec", X: Presheaf, state_terms, axioms_of):
    """The full subsystem on the given states: every derived proof out of a
    state whose target is also a state becomes an edge."""
    missing = [a for a in spec.labels if a not in X.labels]
    if missing:
        raise UnknownLabel(f"the system lacks the spec's labels {missing}")
    terms = {render(t): t for t in state_terms}
    proof_decode: dict[str, Proof] = {}
    memo: dict = {}

    def arrows():
        for state, m in terms.items():
            for p, n in derive(spec, m, axioms_of, _memo=memo):
                target = render(n)
                if target in terms:
                    key = render(p)
                    proof_decode[key] = p
                    yield p.label, key, state, target

    P = _system(X.labels, tuple(terms), arrows())
    return P, terms, proof_decode


def window_map(window, cod: Presheaf, on_var: Callable, on_ax: Callable) -> PresheafMorphism:
    """The map from a (presheaf, term decode, proof decode) window to cod
    that sends the state or edge decoding to e to the text of e's image
    under the leaf relabelling with leaf texts ``on_var`` and ``on_ax``
    (see :class:`ImageText`).  The window holds every node until the map is
    built, and each distinct node's image text is formatted once."""
    P, terms, proofs = window
    image = ImageText(on_var, on_ax)
    return _map(
        P,
        cod,
        {key: image(t) for key, t in terms.items()},
        {a: {key: image(proofs[key]) for key in P.edges[a]} for a in P.labels},
    )


def lift_leaves(on_var: Callable, on_ax: Callable) -> tuple[Callable, Callable]:
    """The leaf texts of T(f) one layer up, from the leaf texts of f: each
    leaf keeps its wrapper around the text of its payload's image.  The
    payload images share one memo, which lives as long as the returned pair."""
    inner = ImageText(on_var, on_ax)
    return lambda m: _var_text(inner(m)), lambda p, a: _ax_text(inner(p), a)


def T_on_element(f: PresheafMorphism, elem: Element) -> Element:
    """T(f) on one element: move every leaf along f."""
    return bind(elem, lambda x: Var(f.state_map[x]), lambda e, a: Axiom(f.edge_maps[a][e], a))


def eta(X: Presheaf, T: Presheaf) -> PresheafMorphism:
    """The unit X -> T(X) into the window T over X: wrap states and edges."""
    return _map(
        X,
        T,
        {x: render(Var(x)) for x in X.states},
        {a: {e: render(Axiom(e, a)) for e in X.edges[a]} for a in X.labels},
    )


# ---------------------------------------------------------------------------
# Multiplication: strip one layer of wrapping.


def mu(elem: Element) -> Element:
    """Flatten the outer two layers of an element into one: the bind of each
    wrapped leaf to its payload, the element one layer down.  A leaf whose
    payload is an ambient id has no layer below it, and an axiom whose
    payload has another label is not a proof: both raise MalformedProof."""
    return bind(elem, _mu_var, _mu_ax)


def _mu_var(name: Union[str, Term]) -> Term:
    """mu on a variable: the term it wraps."""
    if isinstance(name, str):
        raise MalformedProof(f"{render(Var(name))!r} wraps an ambient state: mu needs two layers")
    return name


def _mu_ax(edge: Union[str, Proof], label: str) -> Proof:
    """mu on an axiom: the proof it wraps, which must carry its label."""
    if isinstance(edge, str):
        leaf = render(Axiom(edge, label))
        raise MalformedProof(f"{leaf!r} wraps an ambient edge: mu needs two layers")
    if edge.label != label:
        raise MalformedProof(f"axiom label mismatch flattening {render(Axiom(edge, label))!r}")
    return edge


# Leaf texts for window_map: mu, and the unique map to the one-state system.
MU_LEAVES = (lambda m: render(_mu_var(m)), lambda p, a: render(_mu_ax(p, a)))
TERMINAL_LEAVES = (lambda _x: _var_text(STAR), lambda _e, a: _ax_text(a, a))


# ---------------------------------------------------------------------------
# Two-layer enumeration, truncated by flattened height.


def two_layer_terms(spec: "GsosSpec", X: Presheaf, d: int) -> list[Term]:
    """All two-layer terms over X whose flattening has height <= d."""
    inner = _strata(spec, [[Var(x) for x in X.states]], d)
    outer = _strata(spec, [[Var(m) for m in level] for level in inner], d)
    return [t for level in outer for t in level]


def _layer_axioms(spec: "GsosSpec", X: Presheaf, level: int):
    """Axiom resolver of the level-th free layer over X, for :func:`derive`.

    In the first layer the axioms out of a state are the ambient edges out
    of it; above it, the axioms out of a wrapped term are the proofs one
    layer down with that term as source.  Each comes with its target.
    """
    if level == 1:
        return ambient_axioms(X)
    inner = _layer_axioms(spec, X, level - 1)
    memo: dict = {}
    return lambda m, a: [r for r in derive(spec, m, inner, _memo=memo) if r[0].label == a]


def truncated_free_squared(spec: "GsosSpec", X: Presheaf, d: int):
    """The two-layer window over X: the full subsystem on the two-layer
    terms of flattened height <= d.

    Returns (presheaf, term decode, proof decode) exactly like
    :func:`truncated_free`, with two-layer elements behind the keys.
    """
    return _window(spec, X, two_layer_terms(spec, X, d), _layer_axioms(spec, X, 2))


# ---------------------------------------------------------------------------
# Random elements, and the monad laws checked on them.


def random_presheaf(rng, labels: LabelSet, max_states: int = 5, max_edges: int = 6) -> Presheaf:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    m = rng.randint(1, max_edges)
    arrows = []
    for k in range(m):
        a = rng.choice(list(labels))
        arrows.append((a, f"e{k}", rng.choice(states), rng.choice(states)))
    return _system(labels, states, arrows)


def random_term(spec: "GsosSpec", rng, variables: Sequence[str], budget: int) -> Term:
    candidates = [(f, n) for f, n in spec.signature.operations if n == 0 or budget > 0]
    if variables and (budget == 0 or rng.random() < 0.4 or not candidates):
        return Var(rng.choice(list(variables)))
    if not candidates:
        raise MalformedProof("no closed term fits in the budget")
    f, n = rng.choice(candidates)
    if n == 0:
        return App(f, ())
    return App(f, tuple(random_term(spec, rng, variables, budget - 1) for _ in range(n)))


def random_layer_element(
    spec: "GsosSpec", X: Presheaf, rng, level: int, budget: int, kind: str
) -> Element:
    """A random element of the level-th free layer with flattened height or
    depth <= budget.

    A proof is drawn from the derivations out of a random term of flattened
    height <= budget, as deep as that term is high; after 40 misses it
    falls back to a wrapped ambient edge (level 1) or a wrapped proof one
    layer down.
    """
    if kind == "term":
        if level == 1:
            return random_term(spec, rng, X.states, budget)
        ops = list(spec.signature.operations)
        if budget == 0 or rng.random() < 0.5 or not ops:
            return Var(random_layer_element(spec, X, rng, level - 1, budget, "term"))
        f, n = rng.choice(ops)
        return App(
            f,
            tuple(
                random_layer_element(spec, X, rng, level, budget - 1, "term") for _ in range(n)
            ),
        )
    ax = _layer_axioms(spec, X, level)
    for _ in range(40):
        m = random_layer_element(spec, X, rng, level, max(budget - 1, 0), "term")
        cands = [p for p, _ in derive(spec, m, ax)] if flattened_height(m) <= budget else []
        if cands:
            return rng.choice(cands)
    if level == 1:
        pool = list(X.all_edges())
        if not pool:
            raise MalformedProof("ambient system has no edges to seed proofs")
        a, e = rng.choice(pool)
        return Axiom(e, a)
    inner = random_layer_element(spec, X, rng, level - 1, budget, "proof")
    return Axiom(inner, inner.label)


def monad_law_failures(spec: "GsosSpec", rng, d: int) -> list[str]:
    """Check both unit laws and associativity exactly on one sampled case."""
    X = random_presheaf(rng, spec.labels)
    kind = rng.choice(["term", "proof"])
    try:
        z1 = random_layer_element(spec, X, rng, 1, d, kind)
    except MalformedProof:
        z1 = random_term(spec, rng, X.states, d)
        kind = "term"

    failures = []
    wrapped = map_leaves(z1, Var, Axiom)  # T(eta): every leaf wrapped once more
    if mu(wrapped) != z1:
        failures.append(f"mu . T(eta) != id on {render(z1)}")
    outer: Element
    if isinstance(z1, (Var, App)):
        outer = Var(z1)
    else:
        outer = Axiom(z1, z1.label)
    if mu(outer) != z1:
        failures.append(f"mu . eta_T != id on {render(z1)}")

    try:
        z3 = random_layer_element(spec, X, rng, 3, d, kind)
    except MalformedProof:
        return failures
    t_mu = map_leaves(z3, mu, lambda e, _a: mu(e))
    if mu(t_mu) != mu(mu(z3)):
        failures.append(f"associativity fails on {render(z3)}")
    return failures
