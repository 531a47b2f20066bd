"""The .sos rule language: parsing, validation, monotonicity.

A specification file fixes a behaviour kind, declares a signature, and lists
named rules.  Rules pair a chain of lookahead premises over bound variables
with a conclusion whose source is a single operator applied to distinct
variables and whose target is an arbitrary term template:

    behaviour stream nat
    ops sigma/1, otimes/1[1], ...
    rule sigma : x -n-> x', x' -m-> x'' |- sigma(x) -n-> otimes[n](otimes[m](sigma(x'')))

Premise labels are literals or binding label variables; conclusion labels are
arithmetic expressions over bound label variables when the label domain is
the naturals.  Negative premises (`x -a-/->`) are parsed but make the spec
non-monotone.

Most lines of a generated spec are ground axioms, `rule r : |- c -a-> d`.
parse_spec matches each line against one pattern for that shape (ASCII
identifiers, a label that is an identifier or a run of ASCII digits, blanks
and a trailing comment) and builds the rule from the match without
tokenizing the line.  The recogniser never raises, and it accepts only lines
the general parser parses to the same rule; every other line, including every
malformed one, goes to the tokenizer and the general parser, so every
ParseError comes from there, with the same message, line and column.
Blank and comment-only lines are skipped by the same match.

A ground axiom whose label is in the label set and whose head and target are
declared constants is a plain fact (ground_fact): it can produce no
diagnostic, so validate_spec passes it by, and the engine stores its move
without compiling it; Spec.facts classifies each rule once for both.  A
closed compound target, as in `c -1-> sigma(c)`, makes the rule no fact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter, mul
from typing import Mapping, Union

from .behaviour import BehaviourKind, CountableLTS, PartialStream, WeightedLTS
from .errors import LabelEvalError, ParseError, UnboundVariableError
from .terms import Signature, TokenCursor, Var, tokenize


# --- label expressions ----------------------------------------------------------


@dataclass(frozen=True)
class LabelLit:
    value: Union[int, str]


@dataclass(frozen=True)
class LabelVar:
    name: str


@dataclass(frozen=True)
class LabelAdd:
    left: "LabelExpr"
    right: "LabelExpr"


@dataclass(frozen=True)
class LabelMul:
    left: "LabelExpr"
    right: "LabelExpr"


LabelExpr = Union[LabelLit, LabelVar, LabelAdd, LabelMul]


def compile_label(e: LabelExpr, slots: Mapping[str, int]):
    """Function from an environment tuple to the value of e, each label
    variable read from its index in slots.

    A variable with no slot raises UnboundVariableError when it is reached,
    and arithmetic raises LabelEvalError once both operands are evaluated and
    one is not a natural: left operand first, so the errors come in
    evaluation order.
    """
    if isinstance(e, LabelLit):
        value = e.value
        return lambda env: value
    if isinstance(e, LabelVar):
        if e.name in slots:
            return itemgetter(slots[e.name])
        message = f"no binding for label variable {e.name!r}"

        def unbound(env):
            raise UnboundVariableError(message)
        return unbound
    left, right = compile_label(e.left, slots), compile_label(e.right, slots)
    op = add if isinstance(e, LabelAdd) else mul

    def arithmetic(env):
        a, b = left(env), right(env)
        if not isinstance(a, int) or not isinstance(b, int):
            raise LabelEvalError("label arithmetic over non-natural labels")
        return op(a, b)
    return arithmetic


def compile_param(e: LabelExpr, slots: Mapping[str, int]):
    """compile_label for an operator parameter, whose value must be a natural."""
    value = compile_label(e, slots)

    def param(env):
        v = value(env)
        if not isinstance(v, int) or v < 0:
            raise LabelEvalError(f"operator parameter evaluated to {v!r}, expected a natural")
        return v
    return param


def label_vars(e: LabelExpr) -> frozenset[str]:
    if isinstance(e, LabelLit):
        return frozenset()
    if isinstance(e, LabelVar):
        return frozenset((e.name,))
    return label_vars(e.left) | label_vars(e.right)


def label_lits(e: LabelExpr) -> frozenset:
    if isinstance(e, LabelLit):
        return frozenset((e.value,))
    if isinstance(e, LabelVar):
        return frozenset()
    return label_lits(e.left) | label_lits(e.right)


def has_arithmetic(e: LabelExpr) -> bool:
    return isinstance(e, (LabelAdd, LabelMul))


# --- target templates -----------------------------------------------------------


@dataclass(frozen=True)
class TemplateApp:
    """Operator node of a conclusion target; params are label expressions."""

    op: str
    params: tuple = ()
    args: tuple = ()


TargetTerm = Union[Var, TemplateApp]


def template_vars(tt: TargetTerm) -> frozenset[str]:
    if isinstance(tt, Var):
        return frozenset((tt.name,))
    out: frozenset[str] = frozenset()
    for a in tt.args:
        out |= template_vars(a)
    return out


def template_param_exprs(tt: TargetTerm):
    if isinstance(tt, TemplateApp):
        yield from tt.params
        for a in tt.args:
            yield from template_param_exprs(a)


def template_apps(tt: TargetTerm):
    if isinstance(tt, TemplateApp):
        yield tt
        for a in tt.args:
            yield from template_apps(a)


# --- rules and specs ------------------------------------------------------------


@dataclass(frozen=True)
class Positive:
    source: str
    label: LabelExpr  # literal or binding variable
    target: str


@dataclass(frozen=True)
class Negative:
    source: str
    label: LabelExpr  # literal only (validated)


Premise = Union[Positive, Negative]


@dataclass(frozen=True)
class Rule:
    name: str
    head_op: str
    head_params: tuple  # parameter variable names
    head_vars: tuple
    premises: tuple
    concl_label: LabelExpr
    concl_target: TargetTerm


class Spec:
    def __init__(self, kind: BehaviourKind, sig: Signature, rules: tuple):
        self.kind = kind
        self.sig = sig
        self.rules = tuple(rules)
        self.join_plan = None  # compiled by the engine on first use

    @cached_property
    def facts(self) -> tuple:
        """ground_fact of each rule, in rule order, computed on first use and
        shared by validate_spec and the engine's join plan."""
        return tuple(ground_fact(r, self.kind, self.sig) for r in self.rules)

    def __repr__(self):
        return f"Spec(kind={self.kind.name}, ops={len(self.sig.operators())}, rules={len(self.rules)})"


@dataclass(frozen=True)
class Diagnostic:
    rule: Union[str, None]
    message: str

    def __str__(self):
        return f"rule {self.rule}: {self.message}" if self.rule else self.message


@dataclass(frozen=True)
class MonotoneReport:
    monotone: bool
    offending_rules: tuple


# --- parser ---------------------------------------------------------------------

_KINDS = {cls.name: cls for cls in (CountableLTS, PartialStream, WeightedLTS)}


def _parse_behaviour_line(cur: TokenCursor, line: int) -> BehaviourKind:
    tok = cur.expect("ident")
    if tok.value not in _KINDS:
        raise ParseError(f"unknown behaviour kind {tok.value!r}", tok.line, tok.col)
    kind_cls = _KINDS[tok.value]
    if cur.peek().kind == "ident" and cur.peek().value == "labels":
        cur.next()
    labels: Union[frozenset, None]
    if cur.peek().kind == "eof":
        raise ParseError("behaviour line needs a label domain", line, cur.peek().col)
    if cur.peek().kind == "ident" and cur.peek().value == "nat":
        cur.next()
        labels = None
    else:
        names = [cur.expect("ident").value]
        while cur.eat_sym(","):
            names.append(cur.expect("ident").value)
        labels = frozenset(names)
    if cur.peek().kind != "eof":
        tok = cur.peek()
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    try:
        return kind_cls(labels)
    except ValueError as exc:  # a finite-alphabet kind given nat
        raise ParseError(str(exc), line, 1) from None


def _parse_ops_line(cur: TokenCursor) -> list:
    entries = []
    if cur.peek().kind == "eof":
        return entries
    while True:
        name = cur.expect("ident").value
        cur.expect_sym("/")
        arity = cur.nat()
        param_count = 0
        if cur.eat_sym("["):
            param_count = cur.nat()
            cur.expect_sym("]")
        entries.append((name, arity, param_count))
        if not cur.eat_sym(","):
            break
    tok = cur.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return entries


def _label_atom(cur: TokenCursor, kind: BehaviourKind) -> LabelExpr:
    tok = cur.peek()
    if tok.kind == "nat":
        return LabelLit(cur.nat())
    if tok.kind == "ident":
        cur.next()
        if kind.labels is not None and tok.value in kind.labels:
            return LabelLit(tok.value)
        return LabelVar(tok.value)
    raise ParseError(f"expected a label, got {tok.value!r}", tok.line, tok.col)


def _label_expr(cur: TokenCursor, kind: BehaviourKind) -> LabelExpr:
    def atom() -> LabelExpr:
        if cur.eat_sym("("):
            e = addition()
            cur.expect_sym(")")
            return e
        return _label_atom(cur, kind)

    def multiplication() -> LabelExpr:
        e = atom()
        while cur.eat_sym("*"):
            e = LabelMul(e, atom())
        return e

    def addition() -> LabelExpr:
        e = multiplication()
        while cur.eat_sym("+"):
            e = LabelAdd(e, multiplication())
        return e

    return addition()


def _parse_template(cur: TokenCursor, kind: BehaviourKind, sig: Signature) -> TargetTerm:
    tok = cur.expect("ident")
    params: tuple = ()
    if cur.at_sym("["):
        cur.next()
        acc = [_label_expr(cur, kind)]
        while cur.eat_sym(","):
            acc.append(_label_expr(cur, kind))
        cur.expect_sym("]")
        params = tuple(acc)
    args: list = []
    has_args = False
    if cur.eat_sym("("):
        has_args = True
        args.append(_parse_template(cur, kind, sig))
        while cur.eat_sym(","):
            args.append(_parse_template(cur, kind, sig))
        cur.expect_sym(")")
    if tok.value in sig or params or has_args:
        return TemplateApp(tok.value, params, tuple(args))
    return Var(tok.value)


def _parse_rule_line(cur: TokenCursor, kind: BehaviourKind, sig: Signature) -> Rule:
    name = cur.expect("ident").value
    cur.expect_sym(":")

    premises: list = []
    while not cur.at_sym("|-"):
        source = cur.expect("ident").value
        cur.expect_sym("-")
        label = _label_atom(cur, kind)
        if cur.eat_sym("-/->"):
            premises.append(Negative(source, label))
        else:
            cur.expect_sym("->")
            target = cur.expect("ident").value
            premises.append(Positive(source, label, target))
        if not cur.eat_sym(","):
            break
    cur.expect_sym("|-")

    head_tok = cur.expect("ident")
    head_params: list = []
    if cur.eat_sym("["):
        head_params.append(cur.expect("ident").value)
        while cur.eat_sym(","):
            head_params.append(cur.expect("ident").value)
        cur.expect_sym("]")
    head_vars: list = []
    if cur.eat_sym("("):
        head_vars.append(cur.expect("ident").value)
        while cur.eat_sym(","):
            head_vars.append(cur.expect("ident").value)
        cur.expect_sym(")")

    cur.expect_sym("-")
    concl_label = _label_expr(cur, kind)
    cur.expect_sym("->")
    concl_target = _parse_template(cur, kind, sig)
    tok = cur.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return Rule(name, head_tok.value, tuple(head_params), tuple(head_vars),
                tuple(premises), concl_label, concl_target)


# A ground axiom line, `rule NAME : |- HEAD -LABEL-> TARGET`, or a line with no
# declaration, each with optional blanks and "#" comment.  Every identifier is
# followed by a blank, a symbol, "#" or the end of the line, never by a
# character the tokenizer would join to it (a non-ASCII letter, "²", "٣"), so
# the tokenizer reads the matched line as the pattern's parts.
_ID = r"[A-Za-z_][A-Za-z0-9_']*"
_GROUND_AXIOM = re.compile(
    rf"(?:(?P<indent>[ \t]*)rule[ \t]+(?P<name>{_ID})[ \t]*:[ \t]*\|-[ \t]*(?P<head>{_ID})"
    rf"[ \t]*-[ \t]*(?:(?P<nat>[0-9]+)|(?P<label>{_ID}))[ \t]*->[ \t]*(?P<target>{_ID}))?"
    r"[ \t]*(?:#.*)?")


def _ground_axiom(m: re.Match, kind: BehaviourKind, sig: Signature) -> Rule:
    """The rule _parse_rule_line makes of a line _GROUND_AXIOM matched."""
    nat, label, target = m.group("nat", "label", "target")
    if nat is not None:
        lab: LabelExpr = LabelLit(int(nat))
    elif kind.labels is not None and label in kind.labels:
        lab = LabelLit(label)
    else:
        lab = LabelVar(label)
    tgt = TemplateApp(target) if target in sig else Var(target)
    return Rule(m["name"], m["head"], (), (), (), lab, tgt)


def parse_spec(text: str) -> Spec:
    """Parse a .sos document. Syntax only; use validate_spec for the rest."""
    kind: Union[BehaviourKind, None] = None
    sig = Signature(())
    has_ops = False
    rules: list = []
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _GROUND_AXIOM.fullmatch(raw)
        if m and m["name"] is None:
            continue  # blank or comment only
        if m and kind is not None:
            rule, col = _ground_axiom(m, kind, sig), m.end("indent") + 1
        else:
            cur = TokenCursor(tokenize(raw, lineno))
            first = cur.peek()  # not eof: the pattern took blank lines
            if first.kind != "ident":
                raise ParseError(f"expected a declaration, got {first.value!r}", lineno, first.col)
            keyword = first.value
            cur.next()
            if keyword == "behaviour":
                if kind is not None:
                    raise ParseError("duplicate behaviour line", lineno, first.col)
                kind = _parse_behaviour_line(cur, lineno)
                continue
            if keyword == "ops":
                if has_ops:
                    raise ParseError("duplicate ops line", lineno, first.col)
                if rules:
                    raise ParseError("ops line must precede rules", lineno, first.col)
                has_ops = True
                try:
                    sig = Signature(_parse_ops_line(cur))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, first.col) from None
                continue
            if keyword != "rule":
                raise ParseError(f"unknown declaration {keyword!r}", lineno, first.col)
            if kind is None:
                raise ParseError("behaviour line must precede rules", lineno, first.col)
            rule, col = _parse_rule_line(cur, kind, sig), first.col
        if rule.name in seen:
            raise ParseError(f"duplicate rule name {rule.name!r}", lineno, col)
        seen.add(rule.name)
        rules.append(rule)
    if kind is None:
        raise ParseError("missing behaviour line")
    return Spec(kind, sig, tuple(rules))


# --- validation -----------------------------------------------------------------


def ground_fact(rule: Rule, kind: BehaviourKind, sig: Signature):
    """The label and target operator name of a rule that is a plain fact,
    else None.

    A fact has no premises, head variables or head parameters, a literal label
    in the label set, and a declared constant (arity and parameter count 0) as
    both head and target.  It is valid and concludes the same move whenever it
    fires, so validate_spec passes it by and the engine stores that move
    instead of compiling a join plan.  The target is returned by name: a term
    built here and dropped would cost validate_spec more than the walk it
    skips.
    """
    if rule.premises or rule.head_vars or rule.head_params:
        return None
    label, target = rule.concl_label, rule.concl_target
    if (not isinstance(label, LabelLit) or not kind.has_label(label.value)
            or not isinstance(target, TemplateApp) or target.args or target.params):
        return None
    for name in (rule.head_op, target.op):
        if name not in sig:
            return None
        op = sig[name]
        if op.arity or op.param_count:
            return None
    return label.value, target.op


def _check_label_literals(kind, expr, rule, out, where):
    for lit in label_lits(expr):
        if not kind.has_label(lit):
            out.append(Diagnostic(rule, f"{where}: label literal {lit!r} not in label set"))


def validate_spec(spec: Spec) -> list:
    """Structural diagnostics. An empty list means the spec is well-formed."""
    out: list = []
    kind = spec.kind
    nat_labels = kind.labels is None
    for r, fact in zip(spec.rules, spec.facts):
        if fact is not None:
            continue
        if r.head_op not in spec.sig:
            out.append(Diagnostic(r.name, f"unknown head operator {r.head_op!r}"))
            continue
        op = spec.sig[r.head_op]
        if len(r.head_vars) != op.arity:
            out.append(Diagnostic(r.name, f"head arity mismatch: {r.head_op!r} has arity "
                                          f"{op.arity}, head binds {len(r.head_vars)}"))
        if len(r.head_params) != op.param_count:
            out.append(Diagnostic(r.name, f"head parameter mismatch: {r.head_op!r} takes "
                                          f"{op.param_count}, head binds {len(r.head_params)}"))
        if len(set(r.head_vars)) != len(r.head_vars):
            out.append(Diagnostic(r.name, "head variables not distinct"))
        if len(set(r.head_params)) != len(r.head_params):
            out.append(Diagnostic(r.name, "head parameter variables not distinct"))

        bound = list(r.head_vars)
        lab_vars = set(r.head_params)
        for p in r.premises:
            if p.source not in bound:
                out.append(Diagnostic(r.name, f"unbound premise source {p.source!r}"))
            _check_label_literals(kind, p.label, r.name, out, "premise")
            if isinstance(p, Positive):
                if p.target in bound:
                    out.append(Diagnostic(r.name, f"premise target {p.target!r} not fresh"))
                bound.append(p.target)
                lab_vars |= label_vars(p.label)
            else:
                if isinstance(p.label, LabelVar):
                    out.append(Diagnostic(r.name, "negative premise requires a literal label"))

        for v in sorted(label_vars(r.concl_label) - lab_vars):
            if nat_labels or kind.has_label(v):
                out.append(Diagnostic(r.name, f"conclusion label uses unbound variable {v!r}"))
            else:  # most likely a misspelt label
                out.append(Diagnostic(r.name, f"conclusion label {v!r} is not in the label "
                                              "set and no premise binds it"))
        _check_label_literals(kind, r.concl_label, r.name, out, "conclusion")
        if not nat_labels and has_arithmetic(r.concl_label):
            out.append(Diagnostic(r.name, "label arithmetic needs natural labels"))

        for v in sorted(template_vars(r.concl_target) - set(bound)):
            out.append(Diagnostic(r.name, f"conclusion target uses unbound variable {v!r}"))
        for node in template_apps(r.concl_target):
            if node.op not in spec.sig:
                out.append(Diagnostic(r.name, f"unknown operator {node.op!r} in conclusion target"))
                continue
            node_op = spec.sig[node.op]
            if len(node.args) != node_op.arity or len(node.params) != node_op.param_count:
                out.append(Diagnostic(r.name, f"arity/param mismatch for {node.op!r} "
                                              "in conclusion target"))
        # operator parameters must evaluate to naturals
        param_ok = set(r.head_params) | (lab_vars if nat_labels else set())
        for e in template_param_exprs(r.concl_target):
            for v in sorted(label_vars(e) - param_ok):
                out.append(Diagnostic(r.name, f"operator parameter uses variable {v!r} "
                                              "that cannot be a natural here"))
            for lit in label_lits(e):
                if not isinstance(lit, int):
                    out.append(Diagnostic(r.name, f"operator parameter literal {lit!r} "
                                                  "is not a natural"))
    return out


def check_monotone(spec: Spec) -> MonotoneReport:
    """Syntactic positivity: monotone iff no rule has a negative premise."""
    offending = tuple(r.name for r in spec.rules
                      if any(isinstance(p, Negative) for p in r.premises))
    return MonotoneReport(not offending, offending)


def lookahead_depth(rule: Rule) -> int:
    """Longest positive-premise dependency path from a head variable; 0 for axioms."""
    depth = {v: 0 for v in rule.head_vars}
    best = 0
    for p in rule.premises:
        if isinstance(p, Positive):
            d = depth.get(p.source, 0) + 1
            depth[p.target] = d
            best = max(best, d)
    return best
