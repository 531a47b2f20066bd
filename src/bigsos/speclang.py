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
and a trailing comment) and reads the line from the match without
tokenizing it.  The recogniser never raises, and it accepts only lines the
general parser parses to the same rule; every other line, including every
malformed one, goes to the tokenizer and the general parser, so every
ParseError comes from there, with the same message, line and column.
Blank and comment-only lines are skipped by the same match, and a
well-formed ops line is read from one match of a pattern of its own.

A recognised ground axiom whose label is in the label set and whose head and
target are declared constants is a plain fact, a move of an explicit
coalgebra: parse_spec keeps it in Spec.facts as (head, label, target name),
in line order, and builds no Rule for it.  Spec.rules holds every other
rule, the ones the engine compiles.  A fact can produce no diagnostic and
has no premise, so validate_spec and check_monotone read the rules alone.
A rule the tokenizer reads, such as `c -1-> sigma(c)` with its closed
compound target, is no fact, and a Spec built directly has no facts.
"""

from __future__ import annotations

import re
from operator import ior
from typing import Union

from .behaviour import BehaviourKind, CountableLTS, PartialStream, WeightedLTS
from .errors import ParseError
from .terms import (Record, Signature, TokenCursor, Var, _set, quoted, subterms, tokenize,
                    variables)


# --- label expressions ----------------------------------------------------------


class LabelLit(Record):
    __slots__ = ("value",)  # a natural or a label name

    def __init__(self, value: Union[int, str]):
        _set(self, "value", value)


class LabelVar(Record):
    __slots__ = ("name",)


class LabelAdd(Record):
    __slots__ = ("left", "right")  # label expressions


class LabelMul(Record):
    __slots__ = ("left", "right")  # label expressions


LabelExpr = Union[LabelLit, LabelVar, LabelAdd, LabelMul]


def fold_label(e: LabelExpr, leaf, add, mul):
    """add(left, right) and mul(left, right) over the values leaf(x) of the
    literals and variables x of e, operands left to right before their
    operator, from a stack where True marks an operator whose operands are done."""
    todo, done = [(e, False)], []
    while todo:
        e, ready = todo.pop()
        if ready:
            right = done.pop()
            done[-1] = (add if isinstance(e, LabelAdd) else mul)(done[-1], right)
        elif isinstance(e, (LabelAdd, LabelMul)):
            todo += ((e, True), (e.right, False), (e.left, False))
        else:
            done.append(leaf(e))
    return done[0]


def label_vars(e: LabelExpr) -> frozenset[str]:
    return fold_label(e, lambda x: frozenset((x.name,) if isinstance(x, LabelVar) else ()),
                      frozenset.union, frozenset.union)


def label_lits(e: LabelExpr) -> tuple:
    """The literal values of e, left to right, each once (ior keeps key order)."""
    return tuple(fold_label(e, lambda x: {x.value: 0} if isinstance(x, LabelLit) else {}, ior, ior))


# --- target templates -----------------------------------------------------------


class TemplateApp(Record):
    """Operator node of a conclusion target; params are label expressions."""

    __slots__ = ("op", "params", "args")

    def __init__(self, op: str, params: tuple = (), args: tuple = ()):
        _set(self, "op", op)
        _set(self, "params", params)
        _set(self, "args", args)


TargetTerm = Union[Var, TemplateApp]


template_vars = variables  # a target's variables, walked as a term's


def template_param_exprs(tt: TargetTerm):
    return (e for n in template_apps(tt) for e in n.params)


def template_apps(tt: TargetTerm):
    return (n for n in subterms(tt) if isinstance(n, TemplateApp))


# --- rules and specs ------------------------------------------------------------


class Positive(Record):
    __slots__ = ("source", "label", "target")  # label: a literal or binding variable


class Negative(Record):
    __slots__ = ("source", "label")  # label: a literal only (validated)


Premise = Union[Positive, Negative]


class Rule(Record):
    __slots__ = ("name", "head_op", "head_params", "head_vars", "premises", "concl_label",
                 "concl_target")  # head_params and head_vars: variable names

    def __init__(self, name: str, head_op: str, head_params: tuple, head_vars: tuple,
                 premises: tuple, concl_label: LabelExpr, concl_target: TargetTerm):
        _set(self, "name", name)
        _set(self, "head_op", head_op)
        _set(self, "head_params", head_params)
        _set(self, "head_vars", head_vars)
        _set(self, "premises", premises)
        _set(self, "concl_label", concl_label)
        _set(self, "concl_target", concl_target)


class Spec:
    def __init__(self, kind: BehaviourKind, sig: Signature, rules: tuple, facts: tuple = ()):
        self.kind = kind
        self.sig = sig
        self.rules = tuple(rules)
        self.facts = tuple(facts)  # (head, label, target name) of each plain fact
        self.join_plan = None  # compiled by the engine on first use

    def __repr__(self):
        return (f"Spec(kind={self.kind.name}, ops={len(self.sig.operators())}, "
                f"rules={len(self.rules)}, facts={len(self.facts)})")


class Diagnostic(Record):
    __slots__ = ("rule", "message")  # rule: a rule name or None

    def __str__(self):
        return f"rule {self.rule}: {self.message}" if self.rule else self.message


class MonotoneReport(Record):
    __slots__ = ("monotone", "offending_rules")


# --- parser ---------------------------------------------------------------------

_KINDS = {cls.name: cls for cls in (CountableLTS, PartialStream, WeightedLTS)}


def _parse_behaviour_line(cur: TokenCursor, line: int) -> BehaviourKind:
    tok = cur.expect("ident")
    if tok.value not in _KINDS:
        raise ParseError(f"unknown behaviour kind {quoted(tok.value)}", tok.line, tok.col)
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
        labels = frozenset(cur.items(cur.ident))
    cur.expect_eof()
    try:
        return kind_cls(labels)
    except ValueError as exc:  # a finite-alphabet kind given nat
        raise ParseError(str(exc), line, 1) from None


def _parse_ops_line(cur: TokenCursor) -> tuple:
    def entry() -> tuple:
        name = cur.ident()
        cur.expect_sym("/")
        arity = cur.nat()
        param_count = 0
        if cur.eat_sym("["):
            param_count = cur.nat()
            cur.expect_sym("]")
        return name, arity, param_count

    entries = () if cur.peek().kind == "eof" else cur.items(entry)
    cur.expect_eof()
    return entries


def _label_atom(cur: TokenCursor, kind: BehaviourKind) -> LabelExpr:
    tok = cur.peek()
    if tok.kind == "nat":
        return LabelLit(cur.nat())
    if tok.kind == "ident":
        cur.next()
        if kind.has_label(tok.value):
            return LabelLit(tok.value)
        return LabelVar(tok.value)
    raise ParseError(f"expected a label, got {quoted(tok.value)}", tok.line, tok.col)


def _label_expr(cur: TokenCursor, kind: BehaviourKind) -> LabelExpr:
    """A sum of products of atoms, an atom being a label or a parenthesised
    expression; both operators associate to the left.  Read by precedence in
    loop form: each open parenthesis saves the sum and product before it."""
    outer: list = []
    total = product = None
    while True:
        if cur.eat_sym("("):
            outer.append((total, product))
            total = product = None
            continue
        e = _label_atom(cur, kind)
        while True:
            product = e if product is None else LabelMul(product, e)
            if cur.eat_sym("*"):
                break
            total, product = product if total is None else LabelAdd(total, product), None
            if cur.eat_sym("+"):
                break
            if not outer:
                return total
            cur.expect_sym(")")
            e, (total, product) = total, outer.pop()


def _parse_rule_line(cur: TokenCursor, kind: BehaviourKind, sig: Signature) -> Rule:
    name = cur.ident()
    cur.expect_sym(":")

    def premise() -> Premise:
        source = cur.ident()
        cur.expect_sym("-")
        label = _label_atom(cur, kind)
        if cur.eat_sym("-/->"):
            return Negative(source, label)
        cur.expect_sym("->")
        return Positive(source, label, cur.ident())

    def node(tok, params: tuple, args: tuple) -> TargetTerm:  # a conclusion target node
        if tok.value in sig or params or args:
            return TemplateApp(tok.value, params, args)
        return Var(tok.value)

    premises = () if cur.at_sym("|-") else cur.items(premise)
    cur.expect_sym("|-")

    head_op = cur.ident()
    head_params = cur.bracketed("[", cur.ident, "]")
    head_vars = cur.bracketed("(", cur.ident, ")")

    cur.expect_sym("-")
    concl_label = _label_expr(cur, kind)
    cur.expect_sym("->")
    concl_target = cur.tree(lambda: _label_expr(cur, kind), node)
    cur.expect_eof()
    return Rule(name, head_op, head_params, head_vars, premises, concl_label, concl_target)


# A ground axiom line, `rule NAME : |- HEAD -LABEL-> TARGET`, or a line with no
# declaration, each with optional blanks and "#" comment.  Every identifier is
# followed by a blank, a symbol, "#" or the end of the line, never by a
# character the tokenizer would join to it (a non-ASCII letter, "²", "٣"), so
# the tokenizer reads the matched line as the pattern's parts.
_ID = r"[A-Za-z_][A-Za-z0-9_']*"
_B = r"[\t-\r ]"  # the tokenizer's blanks [ \t\r\f\v] in a line, which holds no "\n"
_GROUND_AXIOM = re.compile(
    rf"(?:(?P<indent>{_B}*)rule{_B}+(?P<name>{_ID}){_B}*:{_B}*\|-{_B}*(?P<head>{_ID})"
    rf"{_B}*-{_B}*(?:(?P<nat>[0-9]+)|(?P<label>{_ID})){_B}*->{_B}*(?P<target>{_ID}))?"
    rf"{_B}*(?:#.*)?")


# A well-formed ops line, `ops NAME/ARITY[PARAMS], ...`, under the same rules;
# its entries are read from the match, and any other ops line is tokenized.
_OP = rf"({_ID}){_B}*/{_B}*([0-9]+)(?:{_B}*\[{_B}*([0-9]+){_B}*\])?"
_OPS_LINE = re.compile(rf"(?P<indent>{_B}*)ops(?P<ops>{_B}+{_OP}(?:{_B}*,{_B}*{_OP})*)?"
                       rf"{_B}*(?:#.*)?")


def _ground_axiom(m: re.Match, kind: BehaviourKind, sig: Signature,
                  constants: frozenset) -> Union[tuple, Rule, None]:
    """What _parse_rule_line makes of a line _GROUND_AXIOM matched: the fact
    (head, label, target name) if the label is a literal in the label set and
    the head and target are in constants, the declared constants; else the
    rule.  None if int() cannot read the label."""
    nat, label, head, target = m.group("nat", "label", "head", "target")
    try:
        value = label if nat is None else int(nat)
    except ValueError:
        return None
    in_set = kind.has_label(value)
    if in_set and head in constants and target in constants:
        return head, value, target
    return Rule(m["name"], head, (), (), (),
                LabelLit(value) if in_set or nat is not None else LabelVar(label),
                TemplateApp(target) if target in sig else Var(target))


def parse_spec(text: str) -> Spec:
    """Parse a .sos document. Syntax only; use validate_spec for the rest."""
    kind: Union[BehaviourKind, None] = None
    sig = Signature(())
    constants: frozenset = frozenset()
    has_ops = False
    rules: list = []
    facts: list = []
    seen: set = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):  # "\f", "\x85"... end no line
        m = _GROUND_AXIOM.fullmatch(raw)
        if m and m["name"] is None:
            continue  # blank or comment only
        entry = _ground_axiom(m, kind, sig, constants) if m and kind is not None else None
        if entry is not None:
            name, col = m["name"], m.end("indent") + 1
        else:
            ops = _OPS_LINE.fullmatch(raw)
            try:  # None if not matched, or if int() cannot convert a number
                entries = ops and [(name, int(arity), int(params or 0)) for name, arity, params
                                   in re.findall(_OP, ops["ops"] or "")]
            except ValueError:
                entries = None
            if entries is not None:
                keyword, col = "ops", ops.end("indent") + 1
            else:
                cur = TokenCursor(tokenize(raw, lineno))
                first = cur.next()
                if first.kind == "eof":
                    continue  # blank or comment only, with blanks the pattern lacks
                keyword, col = first.value, first.col
                if first.kind != "ident":
                    raise ParseError(f"expected a declaration, got {quoted(keyword)}", lineno, col)
            if keyword == "behaviour":
                if kind is not None:
                    raise ParseError("duplicate behaviour line", lineno, col)
                kind = _parse_behaviour_line(cur, lineno)
                continue
            if keyword == "ops":
                if has_ops:
                    raise ParseError("duplicate ops line", lineno, col)
                if seen:
                    raise ParseError("ops line must precede rules", lineno, col)
                has_ops = True
                try:
                    sig = Signature(entries if entries is not None else _parse_ops_line(cur))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, col) from None
                constants = frozenset(sig.constants())
                continue
            if keyword != "rule":
                raise ParseError(f"unknown declaration {quoted(keyword)}", lineno, col)
            if kind is None:
                raise ParseError("behaviour line must precede rules", lineno, col)
            entry = _parse_rule_line(cur, kind, sig)
            name = entry.name
        if name in seen:
            raise ParseError(f"duplicate rule name {quoted(name)}", lineno, col)
        seen.add(name)
        (facts if type(entry) is tuple else rules).append(entry)
    if kind is None:
        raise ParseError("missing behaviour line")
    return Spec(kind, sig, rules, facts)


# --- validation -----------------------------------------------------------------


def _check_label_literals(kind, expr, rule, out, where):
    for lit in label_lits(expr):
        if not kind.has_label(lit):
            out.append(Diagnostic(rule, f"{where}: label literal {quoted(lit)} not in label set"))


def validate_spec(spec: Spec) -> list:
    """Structural diagnostics. An empty list means the spec is well-formed."""
    out: list = []
    kind = spec.kind
    nat_labels = kind.labels is None
    for r in spec.rules:
        if r.head_op not in spec.sig:
            out.append(Diagnostic(r.name, f"unknown head operator {quoted(r.head_op)}"))
            continue
        op = spec.sig[r.head_op]
        if len(r.head_vars) != op.arity:
            out.append(Diagnostic(r.name, f"head arity mismatch: {quoted(r.head_op)} has arity "
                                          f"{op.arity}, head binds {len(r.head_vars)}"))
        if len(r.head_params) != op.param_count:
            out.append(Diagnostic(r.name, f"head parameter mismatch: {quoted(r.head_op)} takes "
                                          f"{op.param_count}, head binds {len(r.head_params)}"))
        if len(set(r.head_vars)) != len(r.head_vars):
            out.append(Diagnostic(r.name, "head variables not distinct"))
        if len(set(r.head_params)) != len(r.head_params):
            out.append(Diagnostic(r.name, "head parameter variables not distinct"))

        bound = list(r.head_vars)
        lab_vars = set(r.head_params)
        for p in r.premises:
            if p.source not in bound:
                out.append(Diagnostic(r.name, f"unbound premise source {quoted(p.source)}"))
            _check_label_literals(kind, p.label, r.name, out, "premise")
            if isinstance(p.label, (LabelAdd, LabelMul)):  # only a Spec built directly
                out.append(Diagnostic(r.name, "premise label must be a literal or a variable"))
            if isinstance(p, Positive):
                if p.target in bound:
                    out.append(Diagnostic(r.name, f"premise target {quoted(p.target)} not fresh"))
                bound.append(p.target)
                lab_vars |= label_vars(p.label)
            else:
                if isinstance(p.label, LabelVar):
                    out.append(Diagnostic(r.name, "negative premise requires a literal label"))

        for v in sorted(label_vars(r.concl_label) - lab_vars):
            if nat_labels or kind.has_label(v):
                out.append(Diagnostic(r.name, "conclusion label uses unbound variable "
                                              + quoted(v)))
            else:  # most likely a misspelt label
                out.append(Diagnostic(r.name, f"conclusion label {quoted(v)} is not in the label "
                                              "set and no premise binds it"))
        _check_label_literals(kind, r.concl_label, r.name, out, "conclusion")
        if not nat_labels and isinstance(r.concl_label, (LabelAdd, LabelMul)):
            out.append(Diagnostic(r.name, "label arithmetic needs natural labels"))

        for v in sorted(template_vars(r.concl_target) - set(bound)):
            out.append(Diagnostic(r.name, f"conclusion target uses unbound variable {quoted(v)}"))
        for node in template_apps(r.concl_target):
            if node.op not in spec.sig:
                out.append(Diagnostic(r.name, f"unknown operator {quoted(node.op)} "
                                              "in conclusion target"))
                continue
            node_op = spec.sig[node.op]
            if len(node.args) != node_op.arity or len(node.params) != node_op.param_count:
                out.append(Diagnostic(r.name, f"arity/param mismatch for {quoted(node.op)} "
                                              "in conclusion target"))
        # operator parameters must evaluate to naturals
        param_ok = set(r.head_params) | (lab_vars if nat_labels else set())
        for e in template_param_exprs(r.concl_target):
            for v in sorted(label_vars(e) - param_ok):
                out.append(Diagnostic(r.name, f"operator parameter uses variable {quoted(v)} "
                                              "that cannot be a natural here"))
            for lit in label_lits(e):
                if not (isinstance(lit, int) and lit >= 0):
                    out.append(Diagnostic(r.name, f"operator parameter literal {quoted(lit)} "
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
