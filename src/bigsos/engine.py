"""Least supported models by fixed-point iteration, and finite unfoldings.

The one-step operator interprets every rule against the current model: head
variables bind argument subterms, premises are matched by walking the model's
behaviour map (frontier terms read as bottom, so truncation under-approximates
soundly), and each complete match contributes its instantiated conclusion.
Each rule's premises and conclusion are compiled once per spec, so a term's
value is built in one pass from its derived (label, target, 1) moves, and
the join records every term it reads on the way.  A ground fact (an entry
of Spec.facts, see speclang) is no rule: it is stored as its move and never
compiled.  Iterating from the all-bottom model climbs an increasing chain for
monotone specs; the loop stops on a fixed point, on a detected period-2
oscillation (possible only with negative premises, behind the force flag), or
at the step budget.
The universe grows by the subterm closures of in-cap conclusion targets,
since rule heads need their argument subterms' behaviour.

The iteration is semi-naive, and a step costs what it re-derives.  A term's
derivation depends only on the value, frontier membership and taint of the
terms whose step it reads, so least_model keeps a reverse index, built from
those recorded reads, from each read term to the terms whose derivations
read it.  It keeps one model, the last step's, as mutable state.  A step
derives the readers of the terms the previous step changed or flipped, and
the newly promoted terms, against that model, and applies the results only
once all have run.  Only a term whose value or taint changed updates its
entry; the loop has converged when none did.  The states its new value
references outside the universe and the frontier enter the frontier, and
promotion examines only them.  A monotone value only gains states, so that
is all a monotone step does, at O(derivations + changed states) rather than
O(|universe|), and its models are those of full steps (phi_step).  A forced
non-monotone run also drops the frontier terms no value references any
more, and copies its last two models' values and taint, each at
O(|universe|) a step, and stops when a step gives the one two steps back.

A generator designates opaque variable states whose behaviour is injected
verbatim each step; running the same iteration over terms with generator
variables lifts a coalgebra on the generator states to one on all such terms.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import count
from typing import Iterable, Union

from .behaviour import BehaviourKind, CountableLTS
from .errors import (BigsosError, InconsistentStreamError, InvalidSpecError, LabelEvalError,
                     NonConvergenceError, NonMonotoneError, UnknownStateError)
from .speclang import (LabelLit, LabelVar, Positive, Rule, Spec, check_monotone, fold_label,
                       label_vars, template_param_exprs, template_vars, validate_spec)
from .terms import (App, Record, Term, UniversePolicy, Var, check_term, print_term,
                    subterms, term_key, term_size, variables)

MAX_ITERS = 1000  # the iteration budget least_model and lift_coalgebra default to


class Model(Record):
    """A behaviour map over a finite term universe.

    Frontier terms are referenced by behaviour values but not solved for;
    they read as bottom.  tainted collects universe terms whose derivations
    consulted a frontier or tainted term, i.e. whose recorded behaviour may
    be smaller than the untruncated one.
    """

    __slots__ = ("kind", "universe", "behaviour", "frontier", "tainted", "__dict__")
    _defaults = {"frontier": frozenset(), "tainted": frozenset()}

    def step(self, t: Term):
        try:
            return self.behaviour[t]
        except KeyError:
            if t in self.frontier:
                return self.kind.bottom()
            raise UnknownStateError(f"term {print_term(t)} outside universe and frontier") from None

    def carrier(self) -> tuple:
        """The universe, then the frontier in term order; built once."""
        return self._carrier

    @cached_property
    def _carrier(self) -> tuple:
        return self.universe + tuple(sorted(self.frontier, key=term_key))

    @cached_property
    def index(self) -> dict:
        """Each carrier state's position in carrier(); built once."""
        return {s: i for i, s in enumerate(self._carrier)}


class ConvergenceReport(Record):
    __slots__ = ("iterations", "converged", "oscillation_detected", "frontier_size")

    def to_json(self) -> dict:
        return {"iterations": self.iterations, "converged": self.converged,
                "oscillation_detected": self.oscillation_detected,
                "frontier_size": self.frontier_size}


class GenCoalgebra(Record):
    """Finitely many opaque states with one behaviour value each."""

    __slots__ = ("states", "dynamics")

    def validate(self, kind: BehaviourKind, sig) -> None:
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate generator states")
        known = set(self.states)
        for x in self.states:
            if x in sig:
                raise ValueError(f"generator state {x!r} collides with an operator name")
            if x not in self.dynamics:
                raise ValueError(f"generator dynamics missing for state {x!r}")
            for lab, s, _ in kind.moves(self.dynamics[x]):
                if s not in known:
                    raise ValueError(f"dynamics of {x!r} references unknown state {s!r}")
                if not kind.has_label(lab):
                    raise ValueError(f"dynamics of {x!r} uses label {lab!r} outside the domain")


def gen_to_model(kind: BehaviourKind, gen: GenCoalgebra) -> Model:
    """The generator itself, viewed as a model on variable terms."""
    universe = tuple(sorted((Var(x) for x in gen.states), key=term_key))
    beh = {Var(x): kind.map_states(lambda y: Var(y), gen.dynamics[x]) for x in gen.states}
    return Model(kind, universe, beh, frozenset())


# --- rule application -----------------------------------------------------------
#
# A spec's join plan holds, for each head operator, the (label, target, 1)
# moves of its ground facts, in line order, and the compiled plans of its
# rules.  A fact reads nothing and binds nothing, so a constant's moves start
# from its facts; an explicit LTS written as axioms has no rules and compiles
# no plan, and its facts share one target term per target name.
#
# Each rule is compiled once per spec into a generated function,
# run(row, read, memo, moves), which appends the move of every derivation for
# the head row args + params.  An environment holds the bindings still live
# at its point in the premise chain, those that a later premise or the
# conclusion reads; slots are named ("t", x) for term variables and ("l", n)
# for label variables, and each is a local variable v<i> of run.  Each premise
# runs over all environments and fills a dict g<n> whose keys, the one live
# slot or a tuple of them, are the next environments, so environments that
# agree on the live slots merge in first-derivation order and a chain of
# premises costs about the number of distinct live bindings, not of premise
# paths.  Premises read their sources' moves from a table shared across one
# step, and every source read goes into the caller's read set: the step takes
# the term's taint from it, and least_model its reverse index.
#
# The conclusion is straight-line statements of run: one per label operator
# and target node, each storing its value in a temporary t<n>.  Nested
# expressions would run into the Python parser's nesting limit on deep
# templates.  The plan is built only for a spec validate_spec accepts, so
# every variable is bound and arithmetic sees naturals.  Two checks are left:
# a conclusion label that is not a literal must be in the domain, as a head
# parameter is a natural whatever the alphabet, and a natural that arithmetic
# computes, the only source of new ones, must stay below 2**_MAX_BITS, which
# Python prints within its default digit limit.  They run in evaluation
# order: the label, its bound and domain, then the parameters in pre-order.
# The target's nodes are built bottom-up after every parameter, and a term's
# value is built from its moves by one kind.from_moves call.
#
# No spec text reaches the generated source.  Literal labels, operator names,
# rule names and kind.has_label are the arguments c<k> of a factory that
# returns run, so the source depends only on the rule's shape, and a name such
# as x''' or `row` never meets the generator's.  Each source's factory is
# compiled once per process and kept in a bounded cache, because every spec
# parse compiles its rules afresh and compiling source costs far more than the
# join it runs.


class _Rows(dict):
    """kind.moves of each term of model, read on first use."""

    __slots__ = ("model",)

    def __init__(self, model: Model):
        super().__init__()
        self.model = model

    def __missing__(self, t: Term) -> tuple:
        row = self[t] = self.model.kind.moves(self.model.step(t))
        return row


# The helpers the generated code calls, each raising the error of its check.

_MAX_BITS = 14284  # 2**14284 - 1 has 4300 digits, Python's default limit for str()


def _too_big(rule: str):
    raise NonConvergenceError(f"rule {rule}: label arithmetic made a natural of "
                              f"more than {_MAX_BITS} bits")


def _outside(rule: str, lab):
    raise LabelEvalError(f"rule {rule}: conclusion label {lab!r} outside the label domain")


def _compile_rule(kind: BehaviourKind, rule: Rule):
    """The rule's generated run function (see the notes above)."""
    concl = {("t", v) for v in template_vars(rule.concl_target)}
    for e in (rule.concl_label, *template_param_exprs(rule.concl_target)):
        concl |= {("l", v) for v in label_vars(e)}
    live = [concl]  # live[i]: names read by premise i or anything after it
    for p in reversed(rule.premises):
        live.append(live[-1] | {("t", p.source)} | {("l", v) for v in label_vars(p.label)})
    live.reverse()

    origin = {("t", v): i for i, v in enumerate(rule.head_vars)}
    origin.update({("l", v): len(rule.head_vars) + i for i, v in enumerate(rule.head_params)})
    layout = tuple(name for name in origin if name in live[0])  # the bound live slots
    local = {name: f"v{i}" for i, name in enumerate(origin)}  # binding order: slot -> its local
    consts: list = []  # the factory's arguments
    body = [f"  {local[name]} = row[{origin[name]}]" for name in layout]
    pad, temps = "  ", count()

    def tup(operands: list) -> str:
        return "(" + "".join(f"{x}, " for x in operands) + ")"

    def key(slots: tuple) -> str:
        return local[slots[0]] if len(slots) == 1 else tup([local[s] for s in slots])

    def const(value) -> str:
        consts.append(value)
        return f"c{len(consts) - 1}"

    def store(expr: str) -> str:
        """A fresh temporary, after appending the statement storing expr in it."""
        t = f"t{next(temps)}"
        body.append(f"{pad}{t} = {expr}")
        return t

    def leaf(e) -> str:
        return const(e.value) if isinstance(e, LabelLit) else local[("l", e.name)]

    def label(e) -> str:
        """An operand holding the value of e, after the statements computing
        it: the operands left to right, then their operator, then the bound."""
        value = fold_label(e, leaf, lambda a, b: store(f"{a} + {b}"),
                           lambda a, b: store(f"{a} * {b}"))
        if not isinstance(e, (LabelLit, LabelVar)):
            body.append(f"{pad}if {value}.bit_length() > {_MAX_BITS}: _too_big({const(rule.name)})")
        return value

    def target(tt) -> str:
        """An operand holding tt, after the statements computing its
        parameters in pre-order and then building its nodes bottom-up.  A
        template nests as deep as the parser reads, so its nodes are walked
        as a list, keyed by identity."""
        nodes = list(subterms(tt))  # pre-order
        params = {id(n): [label(e) for e in n.params] for n in nodes if not isinstance(n, Var)}
        value: dict = {}
        for n in reversed(nodes):
            value[id(n)] = (local[("t", n.name)] if isinstance(n, Var) else
                            const(App(n.op)) if not n.params and not n.args else
                            store(f"App({const(n.op)}, {tup(params[id(n)])}, "
                                  f"{tup([value[id(a)] for a in n.args])})"))
        return value[id(tt)]

    for i, p in enumerate(rule.premises):
        body.append(f"  g{i} = {{}}")
        if i:
            body.append(f"  for {key(layout)} in g{i - 1}:")
            pad = "   "
        src = local[("t", p.source)]
        body.append(f"{pad}read({src})")
        bind = (isinstance(p, Positive) and isinstance(p.label, LabelVar)
                and ("l", p.label.name) not in layout)
        test = None if bind else label(p.label)
        if isinstance(p, Positive):
            tgt = local.setdefault(("t", p.target), f"v{len(local)}")
        if bind:
            lab = local.setdefault(("l", p.label.name), f"v{len(local)}")
        layout = tuple(name for name in local if name in live[i + 1])
        keep = f"g{i}[{key(layout)}] = None"
        if not isinstance(p, Positive):
            body.append(f"{pad}if all(lab != {test} for lab, _, _ in memo[{src}]): {keep}")
        elif bind:
            body.append(f"{pad}for {lab}, {tgt}, _ in memo[{src}]: {keep}")
        else:
            body += [f"{pad}for lab, {tgt}, _ in memo[{src}]:", f"{pad} if lab == {test}: {keep}"]
    if rule.premises:  # the conclusion, once per environment
        body.append(f"  for {key(layout)} in g{len(rule.premises) - 1}:")
        pad = "   "
    lab = label(rule.concl_label)
    if not isinstance(rule.concl_label, LabelLit):
        body.append(f"{pad}if not {const(kind.has_label)}({lab}): "
                    f"_outside({const(rule.name)}, {lab})")
    body.append(f"{pad}moves.append(({lab}, {target(rule.concl_target)}, 1))")
    source = "\n".join([f"def factory{tup([f'c{k}' for k in range(len(consts))])}:",
                        " def run(row, read, memo, moves):", *body, "  return", " return run", ""])
    return _rule_factory(source)(*consts)


@lru_cache(maxsize=256)  # an internal bound on the sources kept
def _rule_factory(source: str):
    """The factory that source defines, compiled on first use."""
    namespace = {"App": App, "_too_big": _too_big, "_outside": _outside}
    exec(compile(source, "<rule plan>", "exec"), namespace)
    return namespace["factory"]


def _join_plan(spec: Spec) -> dict:
    """(facts, plans) by head operator, built on first use and kept on the
    spec: the moves of the ground facts in line order, and the run functions
    of the rules in rule order.  A spec with diagnostics compiles nothing and
    raises InvalidSpecError."""
    if spec.join_plan is None:
        diagnostics = validate_spec(spec)
        if diagnostics:
            raise InvalidSpecError(diagnostics)
        plan: dict = {}
        targets: dict = {}
        for head, label, target in spec.facts:
            if target not in targets:
                targets[target] = App(target)
            plan.setdefault(head, ([], []))[0].append((label, targets[target], 1))
        for rule in spec.rules:
            plan.setdefault(rule.head_op, ([], []))[1].append(_compile_rule(spec.kind, rule))
        spec.join_plan = plan
    return spec.join_plan


def apply_rules(spec: Spec, op: str, params: tuple, args: tuple, reads: set,
                memo: _Rows):
    """Join of all rule conclusions derivable for op[params](args) in the
    model whose move table is memo, which phi_step shares across a step.

    Every premise source read, negative premises included, is added to reads.
    """
    facts, plans = _join_plan(spec).get(op, ((), ()))
    moves = list(facts)  # the move of every derivation
    for run in plans:
        run(args + params, reads.add, memo, moves)
    try:
        return spec.kind.from_moves(moves)
    except InconsistentStreamError as exc:
        raise InconsistentStreamError(
            f"{print_term(App(op, params, args))}: {exc}") from None


def _derive(spec: Spec, gen: Union[GenCoalgebra, None], memo: _Rows, t: Term) -> tuple:
    """(value, reads, tainted) of universe term t after one step from the
    model memo reads: the set of terms its derivation read, and whether one
    of them is a frontier or tainted term of that model.  A generator
    variable takes its dynamics verbatim, states injected as variable terms.
    """
    read: set = set()
    if isinstance(t, Var):
        if gen is None or t.name not in gen.dynamics:
            raise UnknownStateError(f"variable term {t.name!r} has no generator dynamics")
        v = spec.kind.map_states(lambda y: Var(y), gen.dynamics[t.name])
    else:
        v = apply_rules(spec, t.op, t.params, t.args, read, memo)
    m = memo.model
    return v, read, not (read.isdisjoint(m.frontier) and read.isdisjoint(m.tainted))


def phi_step(spec: Spec, model: Model, gen: Union[GenCoalgebra, None] = None,
             reads: Union[dict, None] = None) -> Model:
    """One application of the rule bank across the universe.

    Conclusion targets outside the universe become frontier.  Terms whose
    derivation read a frontier or tainted term are tainted: their value may
    under-report the untruncated behaviour.  If reads is given, it receives,
    in universe order, each term mapped to the set of terms its derivation
    read.
    """
    kind = spec.kind
    memo = _Rows(model)
    beh = {}
    referenced: set = set()
    tainted: list = []
    for t in model.universe:
        v, read, taint = _derive(spec, gen, memo, t)
        beh[t] = v
        referenced |= kind.states(v)
        if taint:
            tainted.append(t)
        if reads is not None:
            reads[t] = read
    frontier = frozenset(referenced.difference(model.universe))
    return Model(kind, model.universe, beh, frontier, frozenset(tainted))


# --- fixed-point iteration ------------------------------------------------------


def _promotions(inside, entered: Iterable[Term], policy: UniversePolicy) -> list:
    """Terms that just entered the frontier (with their subterm closures) that
    fit the caps, given the universe terms inside.

    Every other frontier term was examined when it entered and not promoted,
    and none of them can fit now.  A term's size is fixed, and for its set of
    subterms outside the universe, len(new) - budget never decreases: each
    promoted term lowers budget by one and len(new) by at most one.
    """
    budget = policy.max_count - len(inside)
    promoted: list = []
    taken: set = set()
    for t in sorted(entered, key=term_key):
        if term_size(t) > policy.max_size:
            continue
        # inside and inside | taken are subterm-closed, so stop at their terms
        new: set = set()
        stack = [t]
        while stack:
            s = stack.pop()
            if s in inside or s in taken or s in new:
                continue
            new.add(s)
            if isinstance(s, App):
                stack.extend(s.args)
        if len(new) > budget:
            continue
        budget -= len(new)
        taken |= new
        promoted.extend(new)
    return sorted(promoted, key=term_key)


def least_model(spec: Spec, seeds: Union[Iterable[Term], None] = None,
                policy: UniversePolicy = UniversePolicy(), max_iters: int = MAX_ITERS,
                force: bool = False,
                gen: Union[GenCoalgebra, None] = None) -> tuple:
    """Kleene iteration from the all-bottom model; returns (model, report).

    Refuses non-monotone specs unless force is set, in which case a period-2
    oscillation stops the loop with oscillation_detected in the report.
    """
    mon = check_monotone(spec)
    if not mon.monotone and not force:
        raise NonMonotoneError(mon.offending_rules)
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    kind = spec.kind

    gen_states = set(gen.states) if gen is not None else set()
    if seeds is None:
        seeds = [App(name) for name in spec.sig.constants()]
    seeds = list(seeds)
    for s in seeds:
        check_term(s, spec.sig)
        loose = variables(s) - gen_states
        if loose:
            raise ValueError(f"seed {print_term(s)} has unbound variables {sorted(loose)}")
    if gen is not None:
        seeds.extend(Var(x) for x in gen.states)

    # The model of the last step, updated in place once each step's
    # derivations have all run.
    dirty = sorted({s for t in seeds for s in subterms(t)}, key=term_key)
    bottom = kind.bottom()
    beh = dict.fromkeys(dirty, bottom)
    frontier: set = set()
    tainted: set = set()
    view = Model(kind, (), beh, frontier, tainted)  # reads the live state
    # term -> universe terms whose derivations read it.  Entries are never
    # dropped: in a monotone chain a term's reads only grow, and a stale entry
    # costs one needless re-derivation.
    readers: dict = {}
    recent: list = []  # a forced run's last two models, oldest first
    converged = oscillating = False
    for iters in range(1, max_iters + 1):
        memo = _Rows(view)
        derived = [(t, *_derive(spec, gen, memo, t)) for t in dirty]
        changed: set = set()  # terms whose value or taint this step changed
        for t, v, read, taint in derived:
            for s in read:
                readers.setdefault(s, set()).add(t)
            old = beh[t]
            if old != v:
                if mon.monotone and not kind.leq(old, v):
                    raise BigsosError(
                        f"internal: iteration chain decreased at {print_term(t)}")
                beh[t] = v
            elif (t in tainted) == taint:
                continue
            changed.add(t)
            if taint:
                tainted.add(t)
            else:
                tainted.discard(t)
        if not changed:  # so no term can enter or leave the frontier either
            converged = True
            break
        # A changed value's states outside the universe and the frontier enter
        # the frontier.  A monotone value only gains states, and a frontier term
        # never fits the caps later (see _promotions), so none leaves; a forced
        # run looks among all values for those that none references any more.
        entered = {s for t in changed for s in kind.states(beh[t])
                   if s not in beh and s not in frontier}
        left = (set() if mon.monotone else
                frontier - set().union(*map(kind.states, beh.values())))
        promoted = _promotions(beh, entered, policy)
        beh.update(dict.fromkeys(promoted, bottom))
        flipped = entered.difference(promoted) | left  # terms that entered or left the frontier
        frontier.symmetric_difference_update(flipped)
        # A monotone chain only climbs, so only a non-monotone one can cycle:
        # it does when a step gives the model from two steps back.  The
        # frontier follows from the values, so they and the taint suffice.
        if not mon.monotone:
            now = (dict(beh), frozenset(tainted))
            if len(recent) == 2 and recent[0] == now:
                oscillating = True
                break
            recent = [*recent[-1:], now]
        # Frontier membership is read like a value.
        dirty = {r for s in (*changed, *flipped) for r in readers.get(s, ())}
        dirty = sorted(dirty.union(promoted), key=term_key)
    universe = tuple(sorted(beh, key=term_key))
    model = Model(kind, universe, {t: beh[t] for t in universe}, frozenset(frontier),
                  frozenset(tainted))
    return model, ConvergenceReport(iters, converged, oscillating, len(frontier))


def lift_coalgebra(spec: Spec, gen: GenCoalgebra,
                   seeds: Union[Iterable[Term], None] = None,
                   policy: UniversePolicy = UniversePolicy(),
                   max_iters: int = MAX_ITERS) -> Model:
    """Extend the generator's behaviour to all universe terms over its states."""
    gen.validate(spec.kind, spec.sig)
    model, report = least_model(spec, seeds, policy, max_iters, gen=gen)
    if not report.converged:
        n = report.iterations
        raise NonConvergenceError(
            f"lifting did not stabilize within {n} iteration{'' if n == 1 else 's'}")
    return model


# --- unfoldings -----------------------------------------------------------------


def unfold(model: Model, t: Term, depth: int) -> list:
    """Observe t in the model for `depth` steps: one pre-order row (level,
    label, weight, term, opaque) per node, the root's with level 0 and no
    label or weight.  A row above level `depth` is followed by one subtree
    per move of its term, in kind.moves order.  opaque marks a frontier or
    tainted term, whose step may under-report the untruncated behaviour."""
    if depth < 0:
        raise ValueError("depth must be a natural")
    rows, todo = [], [(0, None, None, t)]
    while todo:
        level, lab, w, s = todo.pop()
        value = model.step(s)  # also validates membership
        rows.append((level, lab, w, s, s in model.frontier or s in model.tainted))
        if level < depth:
            todo += [(level + 1, a, w2, s2) for a, s2, w2 in reversed(model.kind.moves(value))]
    return rows


# --- serialization --------------------------------------------------------------


def model_to_json(model: Model, report: Union[ConvergenceReport, None] = None) -> dict:
    return {
        "universe": [print_term(t) for t in model.universe],
        "frontier": [print_term(t) for t in sorted(model.frontier, key=term_key)],
        "behaviour": {print_term(t): model.kind.value_json(model.behaviour[t], print_term)
                      for t in model.universe},
        "report": report.to_json() if report is not None else {},
    }


def model_to_dot(model: Model) -> str:
    """Graphviz digraph; lts models only, ValueError for any other kind."""
    if not isinstance(model.kind, CountableLTS):
        raise ValueError("dot export is only defined for lts models")
    lines = ["digraph model {", "  rankdir=LR;"]
    ids = model.index
    for t, i in ids.items():
        style = ', style=dashed' if t in model.frontier else ""
        lines.append(f'  n{i} [label="{print_term(t)}"{style}];')
    for t in model.universe:
        for lab, target, _ in model.kind.moves(model.behaviour[t]):
            lines.append(f'  n{ids[t]} -> n{ids[target]} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def unfold_to_json(model: Model, rows: list, depth: int) -> dict:
    """The document of unfold(model, t, depth)'s rows, built bottom-up: a
    node's children are the finished subtrees one level down on the stack,
    and kind.tree_json puts their documents in its step."""
    done: list = []  # (level, term, document) of finished subtrees
    for level, _, _, s, opaque in reversed(rows):
        node: dict = {"term": print_term(s), "depth": depth - level}
        if opaque:
            node["opaque"] = True
        kids = {}
        while done and done[-1][0] == level + 1:
            _, kid, doc = done.pop()
            kids[kid] = doc
        node["step"] = (model.kind.tree_json(model.step(s), kids.__getitem__)
                        if level < depth else None)
        done.append((level, s, node))
    return done[0][2]
