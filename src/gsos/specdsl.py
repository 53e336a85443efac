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
Premise subjects must be the conclusion variables x1..xn; the premise for
argument i, position j binds exactly y{i}_{j}.  The conclusion source must
be the operation applied to x1..xn in order — anything else is rejected,
which is precisely the format gate that keeps every generated system
well-behaved.

Schematic rule families (one rule per channel name, etc.) are finitized
here by label classes plus template expansion; the label set is finite and
declared up front so every downstream check stays decidable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Optional

from .errors import EmptyLabelClass, MalformedProof, SpecParseError, UnknownOperation
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
        return {
            "kind": self.kind,
            "message": self.message,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
        }


@dataclass(frozen=True)
class Signature:
    """Operation names with arities, in declaration order."""

    operations: tuple[tuple[str, int], ...]

    def has(self, op: str) -> bool:
        return any(f == op for f, _ in self.operations)

    def arity(self, op: str) -> int:
        for f, n in self.operations:
            if f == op:
                return n
        raise UnknownOperation(f"operation {op!r} not declared")


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

    @property
    def premise_counts(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.premise_labels)


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
    op: str
    premises: tuple[Premise, ...]
    conclusion_source: Term
    conclusion_label: str
    target: Term
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class GsosSpec:
    labels: LabelSet
    label_classes: tuple[tuple[str, tuple[str, ...]], ...]
    signature: Signature
    templates: tuple[RuleTemplate, ...]

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

    def rule_named(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise MalformedProof(f"no rule named {name!r}")

    def label_class(self, name: str) -> tuple[str, ...]:
        for n, members in self.label_classes:
            if n == name:
                return members
        raise EmptyLabelClass(f"label class {name!r} not declared")


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
        self.errs: list[Violation] = []

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def take(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise _Bail(Violation("SyntaxError", "unexpected end of input"))
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t is None or t.text != text:
            got = t.text if t else "end of input"
            raise _Bail(
                Violation(
                    "SyntaxError",
                    f"expected {text!r}, got {got!r}",
                    t.line if t else 0,
                    t.col if t else 0,
                )
            )
        return self.take()

    def expect_kind(self, kind: str) -> _Tok:
        t = self.peek()
        if t is None or t.kind != kind:
            got = t.text if t else "end of input"
            raise _Bail(
                Violation(
                    "SyntaxError",
                    f"expected {kind}, got {got!r}",
                    t.line if t else 0,
                    t.col if t else 0,
                )
            )
        return self.take()

    def skip_past_semicolon(self):
        while self.peek() is not None and not self.at(";"):
            self.take()
        if self.at(";"):
            self.take()


class _Bail(Exception):
    def __init__(self, violation: Violation):
        self.violation = violation


def _parse_rule_term(p: _Parser) -> Term:
    head = p.expect_kind("ident")
    if p.at("("):
        p.take()
        args = []
        if not p.at(")"):
            args.append(_parse_rule_term(p))
            while p.at(","):
                p.take()
                args.append(_parse_rule_term(p))
        p.expect(")")
        return App(head.text, tuple(args))
    if re.fullmatch(r"x\d+|y\d+_\d+", head.text):
        return Var(head.text)
    return App(head.text, ())


def parse_spec(text: str) -> GsosSpec:
    """Parse and validate; raises SpecParseError carrying all violations."""
    toks, errs = _tokenize(text)
    p = _Parser(toks)
    labels: list[str] = []
    classes: list[tuple[str, tuple[str, ...]]] = []
    ops: list[tuple[str, int]] = []
    templates: list[RuleTemplate] = []
    errs = list(errs)

    while p.peek() is not None:
        t = p.peek()
        try:
            if t.text == "labels":
                p.take()
                labels.append(p.expect_kind("ident").text)
                while p.at(","):
                    p.take()
                    labels.append(p.expect_kind("ident").text)
                p.expect(";")
            elif t.text == "class":
                p.take()
                name = p.expect_kind("ident").text
                p.expect("=")
                p.expect("{")
                members = [p.expect_kind("ident").text]
                while p.at(","):
                    p.take()
                    members.append(p.expect_kind("ident").text)
                p.expect("}")
                p.expect(";")
                classes.append((name, tuple(members)))
            elif t.text == "op":
                p.take()
                name = p.expect_kind("ident").text
                p.expect(":")
                arity = int(p.expect_kind("nat").text)
                p.expect(";")
                ops.append((name, arity))
            elif t.text == "rule":
                templates.append(_parse_rule(p))
            else:
                raise _Bail(
                    Violation("SyntaxError", f"unexpected {t.text!r}", t.line, t.col)
                )
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

    spec = GsosSpec(
        labels=LabelSet(tuple(labels)),
        label_classes=tuple(classes),
        signature=Signature(tuple(ops)),
        templates=tuple(templates),
    )
    violations = validate(spec)
    if violations:
        raise SpecParseError(violations)
    _ = spec.rules  # force expansion eagerly
    return spec


def _parse_rule(p: _Parser) -> RuleTemplate:
    kw = p.expect("rule")
    name = p.expect_kind("ident").text
    foralls: list[tuple[str, str]] = []
    bracketed = False
    if p.at("["):
        p.take()
        bracketed = True
    if p.at("forall"):
        p.take()
        v = p.expect_kind("ident").text
        p.expect("in")
        c = p.expect_kind("ident").text
        foralls.append((v, c))
        while p.at(","):
            p.take()
            v = p.expect_kind("ident").text
            p.expect("in")
            c = p.expect_kind("ident").text
            foralls.append((v, c))
    if bracketed:
        p.expect("]")
    p.expect(":")

    premises: list[Premise] = []
    if p.at("premises"):
        p.take()
        while True:
            subj = p.expect_kind("ident")
            p.expect("-[")
            lab = p.expect_kind("ident").text
            p.expect("]->")
            binder = p.expect_kind("ident")
            premises.append(Premise(subj.text, lab, binder.text, subj.line, subj.col))
            p.expect(";")
            if p.at("conclusion"):
                break
            if p.peek() is None:
                raise _Bail(Violation("SyntaxError", "missing conclusion"))

    p.expect("conclusion")
    source = _parse_rule_term(p)
    p.expect("-[")
    clabel = p.expect_kind("ident").text
    p.expect("]->")
    target = _parse_rule_term(p)
    p.expect(";")
    return RuleTemplate(
        name=name,
        foralls=tuple(foralls),
        op=source.op if isinstance(source, App) else "",
        premises=tuple(premises),
        conclusion_source=source,
        conclusion_label=clabel,
        target=target,
        line=kw.line,
        col=kw.col,
    )


# ---------------------------------------------------------------------------
# Structural validation.


def validate(spec: GsosSpec) -> list[Violation]:
    """Check every rule invariant; an empty list means the spec is valid."""
    out: list[Violation] = []
    declared = set(spec.labels)
    sig = {f: n for f, n in spec.signature.operations}

    if len(sig) != len(spec.signature.operations):
        out.append(Violation("DuplicateId", "duplicate operation names"))
    for f in sig:
        if f in _RESERVED:
            out.append(Violation("SyntaxError", f"operation name {f!r} is reserved"))
    for name, members in spec.label_classes:
        if not members:
            out.append(Violation("EmptyLabelClass", f"class {name!r} is empty"))
        for m in members:
            if m not in declared:
                out.append(Violation("UnknownLabel", f"class {name!r} contains undeclared {m!r}"))

    seen_rule_names = set()
    for tpl in spec.templates:
        v = _validate_template(spec, tpl, declared, sig)
        out.extend(v)
        if tpl.name in seen_rule_names:
            out.append(Violation("DuplicateId", f"rule name {tpl.name!r} reused", tpl.line, tpl.col, tpl.name))
        if tpl.name in _RESERVED:
            out.append(Violation("SyntaxError", f"rule name {tpl.name!r} is reserved", tpl.line, tpl.col, tpl.name))
        seen_rule_names.add(tpl.name)
    return out


def _validate_template(spec, tpl: RuleTemplate, declared, sig) -> list[Violation]:
    out: list[Violation] = []
    err = lambda kind, msg: out.append(Violation(kind, msg, tpl.line, tpl.col, tpl.name))

    label_vars = {}
    for v, c in tpl.foralls:
        if v in label_vars:
            err("DuplicateBoundVariable", f"label variable {v!r} bound twice")
        label_vars[v] = c
        try:
            spec.label_class(c)
        except EmptyLabelClass:
            err("UnknownLabel", f"label class {c!r} not declared")

    def label_ok(lab: str) -> bool:
        return lab in declared or lab in label_vars

    src = tpl.conclusion_source
    if not isinstance(src, App) or src.op not in sig:
        err("NonGsosSource", "conclusion source must be a declared operation applied to variables")
        return out
    n = sig[src.op]
    if len(src.args) != n:
        err("ArityMismatch", f"{src.op!r} has arity {n}, source applies it to {len(src.args)}")
        return out
    expected = tuple(Var(f"x{i + 1}") for i in range(n))
    if tuple(src.args) != expected:
        err(
            "NonGsosSource",
            f"conclusion source must be {src.op}({', '.join(f'x{i + 1}' for i in range(n))})",
        )
        return out

    groups: dict[int, list[Premise]] = {i: [] for i in range(n)}
    binders = {f"x{i + 1}" for i in range(n)}
    order_seen: list[int] = []
    for prem in tpl.premises:
        m = re.fullmatch(r"x(\d+)", prem.subject)
        if not m:
            err("NonGsosSource", f"premise subject {prem.subject!r} is not an argument variable")
            continue
        i = int(m.group(1)) - 1
        if i < 0 or i >= n:
            err("ArityMismatch", f"premise subject {prem.subject!r} exceeds arity {n}")
            continue
        if not label_ok(prem.label):
            err("UnknownLabel", f"premise label {prem.label!r} undeclared")
        if i not in order_seen:
            order_seen.append(i)
        elif order_seen and order_seen[-1] != i:
            # premises for one argument must be contiguous so j-order is textual
            err("NonGsosSource", f"premises for {prem.subject!r} are not contiguous")
        j = len(groups[i])
        want = f"y{i + 1}_{j + 1}"
        if prem.binder in binders:
            err("DuplicateBoundVariable", f"binder {prem.binder!r} reused")
        elif prem.binder != want:
            err("SyntaxError", f"premise binder must be {want!r}, got {prem.binder!r}")
        binders.add(prem.binder)
        groups[i].append(prem)

    if not label_ok(tpl.conclusion_label):
        err("UnknownLabel", f"conclusion label {tpl.conclusion_label!r} undeclared")

    for name in term_vars(tpl.target):
        if name not in binders:
            err("UnboundTargetVariable", f"target variable {name!r} is not bound")
    out.extend(_check_target_ops(tpl, sig))
    return out


def _check_target_ops(tpl: RuleTemplate, sig) -> list[Violation]:
    out = []

    def walk(t: Term):
        if isinstance(t, App):
            if t.op not in sig:
                out.append(
                    Violation("ArityMismatch",
                              f"target uses undeclared operation {t.op!r}",
                              tpl.line, tpl.col, tpl.name)
                )
            elif sig[t.op] != len(t.args):
                out.append(
                    Violation("ArityMismatch",
                              f"target applies {t.op!r} to {len(t.args)} arguments",
                              tpl.line, tpl.col, tpl.name)
                )
            for a in t.args:
                walk(a)

    walk(tpl.target)
    return out


# ---------------------------------------------------------------------------
# Template expansion.


def expand_templates(spec: GsosSpec) -> tuple[Rule, ...]:
    """Cartesian expansion of label variables, deduplicated, deterministic."""
    rules: list[Rule] = []
    seen_content = set()
    for tpl in spec.templates:
        if not tpl.foralls:
            assignments = [()]
        else:
            axes = []
            for v, c in tpl.foralls:
                members = spec.label_class(c)
                if not members:
                    raise EmptyLabelClass(f"class {c!r} is empty")
                axes.append([(v, m) for m in members])
            assignments = list(product(*axes))
        for assignment in assignments:
            env = dict(assignment)
            subst = lambda lab: env.get(lab, lab)
            n = len(tpl.conclusion_source.args) if isinstance(tpl.conclusion_source, App) else 0
            groups: list[list[str]] = [[] for _ in range(n)]
            for prem in tpl.premises:
                i = int(re.fullmatch(r"x(\d+)", prem.subject).group(1)) - 1
                groups[i].append(subst(prem.label))
            premise_labels = tuple(tuple(g) for g in groups)
            label = subst(tpl.conclusion_label)
            if assignment:
                suffix = ",".join(f"{v}={m}" for v, m in assignment)
                name = f"{tpl.name}[{suffix}]"
            else:
                name = tpl.name
            content = (tpl.op, label, premise_labels, tpl.target)
            if content in seen_content:
                continue
            seen_content.add(content)
            rules.append(
                Rule(
                    name=name,
                    base_name=tpl.name,
                    op=tpl.op,
                    label=label,
                    premise_labels=premise_labels,
                    target=tpl.target,
                )
            )
    return tuple(rules)


# ---------------------------------------------------------------------------
# Pretty printing (canonical form; reparses to an equal spec).


def pretty_print(spec: GsosSpec) -> str:
    lines = []
    lines.append("labels " + ", ".join(spec.labels) + " ;")
    for name, members in spec.label_classes:
        lines.append(f"class {name} = {{ " + ", ".join(members) + " } ;")
    lines.append("")
    for f, n in spec.signature.operations:
        lines.append(f"op {f} : {n} ;")
    lines.append("")
    for tpl in spec.templates:
        head = f"rule {tpl.name}"
        if tpl.foralls:
            head += " [forall " + ", ".join(f"{v} in {c}" for v, c in tpl.foralls) + "]"
        head += " :"
        lines.append(head)
        if tpl.premises:
            prems = " ; ".join(
                f"{pr.subject} -[{pr.label}]-> {pr.binder}" for pr in tpl.premises
            )
            lines.append(f"  premises {prems} ;")
        lines.append(
            f"  conclusion {_rule_term_str(tpl.conclusion_source)}"
            f" -[{tpl.conclusion_label}]-> {_rule_term_str(tpl.target)} ;"
        )
    return "\n".join(lines) + "\n"


def _rule_term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.op
    return f"{t.op}(" + ", ".join(_rule_term_str(a) for a in t.args) + ")"
