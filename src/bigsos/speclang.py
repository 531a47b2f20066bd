"""The .sos rule language: parsing, printing, validation, monotonicity.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .behaviour import BehaviourKind, CountableLTS, PartialStream, WeightedLTS
from .errors import LabelEvalError, ParseError, UnboundVariableError
from .terms import App, Signature, Term, TokenCursor, Var, tokenize


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


def eval_label(e: LabelExpr, env) -> Union[int, str]:
    if isinstance(e, LabelLit):
        return e.value
    if isinstance(e, LabelVar):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(f"no binding for label variable {e.name!r}") from None
    left = eval_label(e.left, env)
    right = eval_label(e.right, env)
    if not isinstance(left, int) or not isinstance(right, int):
        raise LabelEvalError("label arithmetic over non-natural labels")
    return left + right if isinstance(e, LabelAdd) else left * right


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


def label_expr_str(e: LabelExpr, prec: int = 0) -> str:
    if isinstance(e, LabelLit):
        return str(e.value)
    if isinstance(e, LabelVar):
        return e.name
    if isinstance(e, LabelAdd):
        s = f"{label_expr_str(e.left, 1)}+{label_expr_str(e.right, 1)}"
        return f"({s})" if prec > 1 else s
    s = f"{label_expr_str(e.left, 2)}*{label_expr_str(e.right, 2)}"
    return f"({s})" if prec > 2 else s


# --- target templates -----------------------------------------------------------


@dataclass(frozen=True)
class TemplateApp:
    """Operator node of a conclusion target; params are label expressions."""

    op: str
    params: tuple = ()
    args: tuple = ()


TargetTerm = Union[Var, TemplateApp]


def instantiate_template(tt: TargetTerm, env) -> Term:
    """Evaluate the parameter expressions; variables are left in place."""
    if isinstance(tt, Var):
        return tt
    params = []
    for e in tt.params:
        v = eval_label(e, env)
        if not isinstance(v, int) or v < 0:
            raise LabelEvalError(f"operator parameter evaluated to {v!r}, expected a natural")
        params.append(v)
    return App(tt.op, tuple(params), tuple(instantiate_template(a, env) for a in tt.args))


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


def template_str(tt: TargetTerm) -> str:
    if isinstance(tt, Var):
        return tt.name
    out = tt.op
    if tt.params:
        out += "[" + ",".join(label_expr_str(p) for p in tt.params) + "]"
    if tt.args:
        out += "(" + ",".join(template_str(a) for a in tt.args) + ")"
    return out


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

    def __eq__(self, other):
        return (isinstance(other, Spec) and self.kind == other.kind
                and self.sig == other.sig and self.rules == other.rules)

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
        arity = int(cur.expect("nat").value)
        param_count = 0
        if cur.eat_sym("["):
            param_count = int(cur.expect("nat").value)
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
        cur.next()
        return LabelLit(int(tok.value))
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


def parse_spec(text: str) -> Spec:
    """Parse a .sos document. Syntax only; use validate_spec for the rest."""
    kind: Union[BehaviourKind, None] = None
    sig = Signature(())
    has_ops = False
    rules: list = []
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cur = TokenCursor(tokenize(raw, lineno))
        first = cur.peek()
        if first.kind == "eof":
            continue
        if first.kind != "ident":
            raise ParseError(f"expected a declaration, got {first.value!r}", lineno, first.col)
        keyword = first.value
        if keyword == "behaviour":
            cur.next()
            if kind is not None:
                raise ParseError("duplicate behaviour line", lineno, first.col)
            kind = _parse_behaviour_line(cur, lineno)
        elif keyword == "ops":
            cur.next()
            if has_ops:
                raise ParseError("duplicate ops line", lineno, first.col)
            if rules:
                raise ParseError("ops line must precede rules", lineno, first.col)
            has_ops = True
            try:
                sig = Signature(_parse_ops_line(cur))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, first.col) from None
        elif keyword == "rule":
            cur.next()
            if kind is None:
                raise ParseError("behaviour line must precede rules", lineno, first.col)
            rule = _parse_rule_line(cur, kind, sig)
            if rule.name in seen:
                raise ParseError(f"duplicate rule name {rule.name!r}", lineno, first.col)
            seen.add(rule.name)
            rules.append(rule)
        else:
            raise ParseError(f"unknown declaration {keyword!r}", lineno, first.col)
    if kind is None:
        raise ParseError("missing behaviour line")
    return Spec(kind, sig, tuple(rules))


# --- printer --------------------------------------------------------------------


def _premise_str(p: Premise) -> str:
    if isinstance(p, Positive):
        return f"{p.source} -{label_expr_str(p.label)}-> {p.target}"
    return f"{p.source} -{label_expr_str(p.label)}-/->"


def _head_str(r: Rule) -> str:
    out = r.head_op
    if r.head_params:
        out += "[" + ",".join(r.head_params) + "]"
    if r.head_vars:
        out += "(" + ",".join(r.head_vars) + ")"
    return out


def print_rule(r: Rule) -> str:
    premises = ", ".join(_premise_str(p) for p in r.premises)
    premises = premises + " " if premises else ""
    return (f"rule {r.name} : {premises}|- {_head_str(r)} "
            f"-{label_expr_str(r.concl_label)}-> {template_str(r.concl_target)}")


def print_spec(spec: Spec) -> str:
    if isinstance(spec.kind, PartialStream) and spec.kind.labels is None:
        lines = ["behaviour stream nat"]
    else:
        domain = ", ".join(sorted(spec.kind.labels))
        lines = [f"behaviour {spec.kind.name} labels {domain}"]
    ops = spec.sig.operators()
    if ops:
        entries = ", ".join(f"{o.name}/{o.arity}" + (f"[{o.param_count}]" if o.param_count else "")
                            for o in ops)
        lines.append(f"ops {entries}")
    lines.extend(print_rule(r) for r in spec.rules)
    return "\n".join(lines) + "\n"


# --- validation -----------------------------------------------------------------


def _check_label_literals(kind, expr, rule, out, where):
    for lit in label_lits(expr):
        if not kind.has_label(lit):
            out.append(Diagnostic(rule, f"{where}: label literal {lit!r} not in label set"))


def validate_spec(spec: Spec) -> list:
    """Structural diagnostics. An empty list means the spec is well-formed."""
    out: list = []
    kind = spec.kind
    nat_labels = isinstance(kind, PartialStream) and kind.labels is None
    for r in spec.rules:
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
            out.append(Diagnostic(r.name, f"conclusion label uses unbound variable {v!r}"))
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
