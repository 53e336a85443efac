"""Textual DSL for positive rule specifications.

Grammar (statements end with `;`, comments start with `#`, files use the
`.gsos` extension)::

    labels a, a_bar, tau ;
    class Act = { a, a_bar, tau } ;
    op par : 2 ;
    rule lpar [forall L in Act] :
        premises x1 -[L]-> y1_1 ;
        conclusion par(x1,x2) -[L]-> par(y1_1,x2) ;

The brackets around the `forall` clause are optional.  A rule may range
over several label variables (`forall L in Act, K in Act`); expansion takes
the Cartesian product over the declared classes, in declaration order.
Labels, class names, operations and rule names are each declared once.
Premise subjects must be literally the conclusion variables x1..xn (``x01``
is refused); the premise for argument i, position j binds exactly y{i}_{j}.
The conclusion source must be the operation applied to x1..xn in order —
anything else is rejected, which is precisely the format gate that keeps
every generated system well-behaved.

Schematic rule families (one rule per channel name, etc.) are finitized
here by label classes plus template expansion; the label set is finite and
declared up front so every downstream check stays decidable.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import SpecParseError
from .presheaf import LabelSet
from .terms import App, Term, Var, term_vars

_RESERVED = {"var", "ax", "term", "hole", "labels", "class", "op", "rule",
             "forall", "in", "premises", "conclusion"}


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    line: int = 0
    col: int = 0
    rule: Optional[str] = None

    def __str__(self) -> str:
        where = f"{self.line}:{self.col}" if self.line else "-"
        who = f" [{self.rule}]" if self.rule else ""
        return f"{self.kind} at {where}{who}: {self.message}"

    def to_dict(self) -> dict:
        return asdict(self)


class Plan(NamedTuple):
    """A rule's target compiled against its slots: the arguments x1..xn of
    an instance's source, then its premise targets y{i}_{j} in premise
    order.  ``fill(values, mk)`` builds the target's instance, each
    operation node as ``mk(op, args)``; ``slots`` gives the slot of each
    variable occurrence of the target in leaf order, and ``premises`` lists
    the premises in slot order as (argument index, label) pairs."""

    fill: Callable[[Sequence, Callable], object]
    slots: tuple[int, ...]
    premises: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Rule:
    """One concrete rule: operation, conclusion label, grouped premise labels, target.

    ``premise_labels[i]`` lists the labels of the premises on argument i+1
    (empty for premise-less arguments).  ``target`` is a term over the
    variables x1..xn and y{i}_{j}.  ``base_name`` is the template this rule
    was expanded from (equal to ``name`` for template-free rules).
    """

    name: str
    base_name: str
    op: str
    label: str
    premise_labels: tuple[tuple[str, ...], ...]
    target: Term

    def __reduce__(self):
        # the fields only: cached properties are rebuilt on first use after unpickling
        return Rule, tuple(getattr(self, f.name) for f in fields(self))

    @cached_property
    def premise_counts(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.premise_labels)

    @cached_property
    def plan(self) -> Plan:
        """The rule's compiled plan, made on first use.  It is not part of
        the rule's equality, repr or pickle, and holds no reference to the
        rule, so a dropped rule is freed without the cyclic collector."""
        groups = self.premise_labels
        names = [f"x{i + 1}" for i in range(len(groups))]
        names += [f"y{i + 1}_{j + 1}" for i, g in enumerate(groups) for j in range(len(g))]
        slot = {name: k for k, name in enumerate(names)}
        return Plan(
            _compile_target(self.target, slot),
            tuple(slot[v] for v in term_vars(self.target)),
            tuple((i, a) for i, g in enumerate(groups) for a in g),
        )


def _compile_target(t: Term, slot: dict[str, int]) -> Callable:
    """A function of the slot values and a node builder that builds t's
    instance: a variable reads its slot, and an operation node is built by
    ``mk`` around its arguments' instances."""
    if isinstance(t, Var):
        k = slot[t.name]
        return lambda vals, _mk: vals[k]
    op, parts = t.op, [_compile_target(a, slot) for a in t.args]
    return lambda vals, mk: mk(op, tuple([part(vals, mk) for part in parts]))


@dataclass(frozen=True)
class Premise:
    subject: str
    label: str
    binder: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RuleTemplate:
    name: str
    foralls: tuple[tuple[str, str], ...]
    premises: tuple[Premise, ...]
    conclusion_source: Term
    conclusion_label: str
    target: Term
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class GsosSpec:
    """A parsed specification; ``operations`` lists (operation, arity) pairs
    in declaration order."""

    labels: LabelSet
    label_classes: tuple[tuple[str, tuple[str, ...]], ...]
    operations: tuple[tuple[str, int], ...]
    templates: tuple[RuleTemplate, ...]

    @cached_property
    def arities(self) -> dict[str, int]:
        return dict(self.operations)

    @cached_property
    def _checks(self) -> tuple[tuple[list[Violation], tuple[tuple[str, ...], ...]], ...]:
        """Each template's violations and its premise labels grouped by argument."""
        return tuple(_check_template(self, tpl) for tpl in self.templates)

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return expand_templates(self)

    @cached_property
    def rules_by_op(self) -> dict[str, tuple[Rule, ...]]:
        """The rules of each operation that has any, in declaration order."""
        by_op: dict[str, list[Rule]] = {}
        for r in self.rules:
            by_op.setdefault(r.op, []).append(r)
        return {op: tuple(rs) for op, rs in by_op.items()}


# ---------------------------------------------------------------------------
# Tokenizer.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow_open>-\[)
  | (?P<arrow_close>\]->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<nat>\d+)
  | (?P<punct>[;,:={}()\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> tuple[list[_Tok], list[Violation]]:
    toks: list[_Tok] = []
    errs: list[Violation] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            errs.append(Violation("SyntaxError", f"unexpected character {text[i]!r}", line, col))
            i += 1
            col += 1
            continue
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        i = m.end()
    return toks, errs


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def accept(self, text: str) -> bool:
        """Take the next token if its text is ``text``."""
        if self.at(text):
            self.i += 1
            return True
        return False

    def expect(self, want: str) -> _Tok:
        """Take the next token, which must be of kind ``want`` if that names a
        kind ("ident" or "nat"), or else have the text ``want``."""
        t = self.peek()
        is_kind = want in ("ident", "nat")
        if t is None or (t.kind if is_kind else t.text) != want:
            got = t.text if t else "end of input"
            shown = want if is_kind else repr(want)
            where = (t.line, t.col) if t else (0, 0)
            raise _Bail(Violation("SyntaxError", f"expected {shown}, got {got!r}", *where))
        self.i += 1
        return t

    def ident(self) -> str:
        return self.expect("ident").text

    def comma_list(self, item: Callable) -> Iterator:
        """Yield ``item()``, then once more after each comma."""
        yield item()
        while self.accept(","):
            yield item()

    def skip_past_semicolon(self):
        while self.peek() is not None and not self.accept(";"):
            self.i += 1


class _Bail(Exception):
    def __init__(self, violation: Violation):
        self.violation = violation


def _parse_rule_term(p: _Parser) -> Term:
    head = p.ident()
    if p.accept("("):
        args = () if p.at(")") else tuple(p.comma_list(lambda: _parse_rule_term(p)))
        p.expect(")")
        return App(head, args)
    return Var(head) if re.fullmatch(r"x\d+|y\d+_\d+", head) else App(head, ())


def parse_spec(text: str) -> GsosSpec:
    """Parse and validate; raises SpecParseError carrying all violations."""
    toks, errs = _tokenize(text)
    p = _Parser(toks)
    labels: list[str] = []
    classes: list[tuple[str, tuple[str, ...]]] = []
    ops: list[tuple[str, int]] = []
    templates: list[RuleTemplate] = []

    while p.peek() is not None:
        t = p.peek()
        try:
            if p.accept("labels"):
                # the labels read before an error in the list still count
                for name in p.comma_list(p.ident):
                    labels.append(name)
                p.expect(";")
            elif p.accept("class"):
                name = p.ident()
                p.expect("=")
                p.expect("{")
                members = tuple(p.comma_list(p.ident))
                p.expect("}")
                p.expect(";")
                classes.append((name, members))
            elif p.accept("op"):
                name = p.ident()
                p.expect(":")
                nat = p.expect("nat")
                try:
                    arity = int(nat.text)
                except ValueError:  # more digits than the interpreter converts
                    msg = f"arity of {name!r} has too many digits ({len(nat.text)})"
                    raise _Bail(Violation("SyntaxError", msg, nat.line, nat.col)) from None
                p.expect(";")
                ops.append((name, arity))
            elif p.at("rule"):
                templates.append(_parse_rule(p))
            else:
                raise _Bail(Violation("SyntaxError", f"unexpected {t.text!r}", t.line, t.col))
        except _Bail as bail:
            errs.append(bail.violation)
            p.skip_past_semicolon()

    if not toks and not errs:
        errs.append(Violation("SyntaxError", "empty specification"))
    if not labels:
        errs.append(Violation("UnknownLabel", "no labels declared"))
    elif len(set(labels)) != len(labels):
        errs.append(Violation("DuplicateId", "duplicate label declarations"))
    if errs:
        raise SpecParseError(errs)

    spec = GsosSpec(LabelSet(tuple(labels)), tuple(classes), tuple(ops), tuple(templates))
    violations = validate(spec)
    if violations:
        raise SpecParseError(violations)
    _ = spec.rules  # force expansion eagerly
    return spec


def _parse_rule(p: _Parser) -> RuleTemplate:
    kw = p.expect("rule")
    name = p.ident()
    bracketed = p.accept("[")
    foralls = tuple(p.comma_list(lambda: _parse_binding(p))) if p.accept("forall") else ()
    if bracketed:
        p.expect("]")
    p.expect(":")

    premises: list[Premise] = []
    if p.accept("premises"):
        while True:
            subj = p.expect("ident")
            p.expect("-[")
            lab = p.ident()
            p.expect("]->")
            premises.append(Premise(subj.text, lab, p.ident(), subj.line, subj.col))
            p.expect(";")
            if p.at("conclusion"):
                break
            if p.peek() is None:
                raise _Bail(Violation("SyntaxError", "missing conclusion"))

    p.expect("conclusion")
    source = _parse_rule_term(p)
    p.expect("-[")
    label = p.ident()
    p.expect("]->")
    target = _parse_rule_term(p)
    p.expect(";")
    return RuleTemplate(name, foralls, tuple(premises), source, label, target, kw.line, kw.col)


def _parse_binding(p: _Parser) -> tuple[str, str]:
    var = p.ident()
    p.expect("in")
    return var, p.ident()


# ---------------------------------------------------------------------------
# Structural validation.


def validate(spec: GsosSpec) -> list[Violation]:
    """Check every rule invariant; an empty list means the spec is valid."""
    out: list[Violation] = []
    sig = spec.arities
    if len(sig) != len(spec.operations):
        out.append(Violation("DuplicateId", "duplicate operation names"))
    out += [Violation("SyntaxError", f"operation name {f!r} is reserved") for f in sig if f in _RESERVED]
    class_names = set()
    for name, members in spec.label_classes:
        if name in class_names:
            out.append(Violation("DuplicateId", f"class name {name!r} reused"))
        class_names.add(name)
        out += [
            Violation("UnknownLabel", f"class {name!r} contains undeclared {m!r}")
            for m in members
            if m not in spec.labels
        ]

    rule_names = set()
    for tpl, (violations, _) in zip(spec.templates, spec._checks):
        out += violations
        where = (tpl.line, tpl.col, tpl.name)
        if tpl.name in rule_names:
            out.append(Violation("DuplicateId", f"rule name {tpl.name!r} reused", *where))
        if tpl.name in _RESERVED:
            out.append(Violation("SyntaxError", f"rule name {tpl.name!r} is reserved", *where))
        rule_names.add(tpl.name)
    return out


def _check_template(
    spec: GsosSpec, tpl: RuleTemplate
) -> tuple[list[Violation], tuple[tuple[str, ...], ...]]:
    """The violations of one template, and the labels of its premises grouped
    by argument (label variables not yet substituted)."""
    out: list[Violation] = []
    err = lambda kind, msg: out.append(Violation(kind, msg, tpl.line, tpl.col, tpl.name))

    class_names = {c for c, _ in spec.label_classes}
    label_vars = set()
    for v, c in tpl.foralls:
        if v in label_vars:
            err("DuplicateBoundVariable", f"label variable {v!r} bound twice")
        label_vars.add(v)
        if c not in class_names:
            err("UnknownLabel", f"label class {c!r} not declared")
    known = lambda lab: lab in spec.labels or lab in label_vars

    src, sig = tpl.conclusion_source, spec.arities
    if not isinstance(src, App) or src.op not in sig:
        err("NonGsosSource", "conclusion source must be a declared operation applied to variables")
        return out, ()
    n = sig[src.op]
    if len(src.args) != n:
        err("ArityMismatch", f"{src.op!r} has arity {n}, source applies it to {len(src.args)}")
        return out, ()
    xs = [f"x{i + 1}" for i in range(n)]
    if src.args != tuple(map(Var, xs)):
        err("NonGsosSource", f"conclusion source must be {src.op}({', '.join(xs)})")
        return out, ()

    groups: list[list[str]] = [[] for _ in range(n)]
    binders = set(xs)
    last = None
    for prem in tpl.premises:
        m = re.fullmatch(r"x(\d+)", prem.subject)
        if m and "x" + m.group(1).lstrip("0") not in xs:
            err("ArityMismatch", f"premise subject {prem.subject!r} exceeds arity {n}")
            continue
        if prem.subject not in xs:
            err("NonGsosSource", f"premise subject {prem.subject!r} is not an argument variable")
            continue
        i = xs.index(prem.subject)
        if not known(prem.label):
            err("UnknownLabel", f"premise label {prem.label!r} undeclared")
        if groups[i] and last != i:
            # premises for one argument must be contiguous so j-order is textual
            err("NonGsosSource", f"premises for {prem.subject!r} are not contiguous")
        want = f"y{i + 1}_{len(groups[i]) + 1}"
        if prem.binder in binders:
            err("DuplicateBoundVariable", f"binder {prem.binder!r} reused")
        elif prem.binder != want:
            err("SyntaxError", f"premise binder must be {want!r}, got {prem.binder!r}")
        binders.add(prem.binder)
        groups[i].append(prem.label)
        last = i

    if not known(tpl.conclusion_label):
        err("UnknownLabel", f"conclusion label {tpl.conclusion_label!r} undeclared")
    for name in term_vars(tpl.target):
        if name not in binders:
            err("UnboundTargetVariable", f"target variable {name!r} is not bound")
    stack = [tpl.target]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            if t.op not in sig:
                err("ArityMismatch", f"target uses undeclared operation {t.op!r}")
            elif sig[t.op] != len(t.args):
                err("ArityMismatch", f"target applies {t.op!r} to {len(t.args)} arguments")
            stack.extend(reversed(t.args))
    return out, tuple(map(tuple, groups))


# ---------------------------------------------------------------------------
# Template expansion.


def expand_templates(spec: GsosSpec) -> tuple[Rule, ...]:
    """Cartesian expansion of label variables, deduplicated, deterministic."""
    classes = dict(spec.label_classes)
    rules: dict[tuple, Rule] = {}
    for tpl, (_, groups) in zip(spec.templates, spec._checks):
        op = tpl.conclusion_source.op
        for assignment in product(*([(v, m) for m in classes[c]] for v, c in tpl.foralls)):
            env = dict(assignment)
            premise_labels = tuple(tuple(env.get(lab, lab) for lab in g) for g in groups)
            label = env.get(tpl.conclusion_label, tpl.conclusion_label)
            content = (op, label, premise_labels, tpl.target)
            if content not in rules:
                suffix = ",".join(f"{v}={m}" for v, m in assignment)
                name = f"{tpl.name}[{suffix}]" if assignment else tpl.name
                rules[content] = Rule(name, tpl.name, op, label, premise_labels, tpl.target)
    return tuple(rules.values())

