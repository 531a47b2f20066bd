"""Least supported models by fixed-point iteration, and finite unfoldings.

The one-step operator interprets every rule against the current model: head
variables bind argument subterms, premises are matched by walking the model's
behaviour map (frontier terms read as bottom, so truncation under-approximates
soundly), and each complete match contributes its instantiated conclusion.
Each rule's premises and conclusion are compiled once per spec, so a term's
value is built in one pass from its derived (label, target) pairs, and the
join records every term it reads on the way.  Iterating from the all-bottom
model climbs an increasing chain for monotone specs; the loop stops on a
fixed point, on a detected period-2 oscillation (possible only with negative
premises, behind the force flag), or at the step budget.  The universe grows
by the subterm closures of in-cap conclusion targets, since rule heads need
their argument subterms' behaviour.

The iteration is semi-naive.  A term's derivation depends only on the value,
frontier membership and taint of the terms whose step it reads, so
least_model keeps a reverse index, built from those recorded reads, from each
read term to the terms whose derivations read it.  After each step the
changed terms are those whose value or taint changed and those that entered
or left the frontier; the next step re-derives only their readers and the
newly promoted terms, and every other term keeps its value and taint.  The
models are those of full steps, and the loop has converged when nothing
changed.

A generator designates opaque variable states whose behaviour is injected
verbatim each step; running the same iteration over terms with generator
variables lifts a coalgebra on the generator states to one on all such terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Union

from .behaviour import BehaviourKind, CountableLTS
from .errors import (BigsosError, InconsistentStreamError, LabelEvalError,
                     NonConvergenceError, NonMonotoneError, UnknownStateError)
from .speclang import (LabelLit, Positive, Premise, Rule, Spec, check_monotone,
                       eval_label, instantiate_template, label_vars,
                       template_param_exprs, template_vars)
from .terms import (App, Term, UniversePolicy, Var, check_term, print_term, subterms,
                    substitute, term_key, term_size, variables)


@dataclass(frozen=True)
class Model:
    """A behaviour map over a finite term universe.

    Frontier terms are referenced by behaviour values but not solved for;
    they read as bottom.  tainted collects universe terms whose derivations
    consulted a frontier or tainted term, i.e. whose recorded behaviour may
    be smaller than the untruncated one.
    """

    kind: BehaviourKind
    universe: tuple
    behaviour: Mapping
    frontier: frozenset = frozenset()
    tainted: frozenset = frozenset()

    def step(self, t: Term):
        try:
            return self.behaviour[t]
        except KeyError:
            if t in self.frontier:
                return self.kind.bottom()
            raise UnknownStateError(f"term {print_term(t)} outside universe and frontier") from None

    def carrier(self) -> tuple:
        return self.universe + tuple(sorted(self.frontier, key=term_key))


def bottom_model(kind: BehaviourKind, universe: Iterable[Term]) -> Model:
    terms = tuple(sorted(set(universe), key=term_key))
    return Model(kind, terms, {t: kind.bottom() for t in terms}, frozenset())


@dataclass(frozen=True)
class ConvergenceReport:
    iterations: int
    converged: bool
    oscillation_detected: bool
    frontier_size: int

    def to_json(self) -> dict:
        return {"iterations": self.iterations, "converged": self.converged,
                "oscillation_detected": self.oscillation_detected,
                "frontier_size": self.frontier_size}


@dataclass(frozen=True)
class GenCoalgebra:
    """Finitely many opaque states with one behaviour value each."""

    states: tuple
    dynamics: Mapping

    def validate(self, kind: BehaviourKind, sig) -> None:
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate generator states")
        known = set(self.states)
        for x in self.states:
            if x in sig:
                raise ValueError(f"generator state {x!r} collides with an operator name")
            if x not in self.dynamics:
                raise ValueError(f"generator dynamics missing for state {x!r}")
            v = self.dynamics[x]
            for s in kind.states(v):
                if s not in known:
                    raise ValueError(f"dynamics of {x!r} references unknown state {s!r}")
            for lab, _ in kind.transitions(v):
                if not kind.has_label(lab):
                    raise ValueError(f"dynamics of {x!r} uses label {lab!r} outside the domain")


def gen_to_model(kind: BehaviourKind, gen: GenCoalgebra) -> Model:
    """The generator itself, viewed as a model on variable terms."""
    universe = tuple(sorted((Var(x) for x in gen.states), key=term_key))
    beh = {Var(x): kind.map_states(lambda y: Var(y), gen.dynamics[x]) for x in gen.states}
    return Model(kind, universe, beh, frozenset())


# --- rule application -----------------------------------------------------------
#
# Each rule is compiled once per spec into a join plan.  An environment is the
# tuple of the bindings still live at its point in the premise chain: those
# that a later premise, the conclusion label or the conclusion target reads.
# Environments that agree on them are merged, so a chain of premises costs
# about the number of distinct live bindings rather than the number of premise
# paths.  Slots are named ("t", x) for term variables and ("l", n) for label
# variables, which live in separate namespaces.
#
# The conclusion is compiled as well, into a function from a final environment
# to its (label, target) pair: a literal label over a target without label
# parameters builds the target from slots (a bare variable target picks one),
# and any other conclusion is evaluated per environment.  A term's
# value is built from its pairs by one kind.from_transitions call, with no value
# per conclusion.  Premises read their sources' transitions from a table that
# phi_step shares across one step, and every source read goes into the caller's
# read set: phi_step takes the term's taint from it, and least_model its reverse
# index.


def _picker(indices: tuple):
    """Function from a sequence to the tuple of its items at indices."""
    if len(indices) == 1:
        i, = indices
        return lambda row: (row[i],)
    if not indices:
        return lambda row: ()
    return itemgetter(*indices)


def _names_env(layout: tuple, env: tuple, tag: str) -> dict:
    return {name: v for (t, name), v in zip(layout, env) if t == tag}


class _Rows(dict):
    """Transitions of each term of model, computed on first read."""

    __slots__ = ("model",)

    def __init__(self, model: Model):
        super().__init__()
        self.model = model

    def __missing__(self, t: Term) -> tuple:
        row = self[t] = self.model.kind.transitions(self.model.step(t))
        return row


# NamedTuples rather than dataclasses: they are cheaper to define at import and
# to build, and a spec of a few hundred axioms compiles a plan for each.
class _PremiseStep(NamedTuple):
    """One premise against environments laid out as `layout`.

    source is the slot of the premise source, or None when no slot binds it
    (no environment survives).  A premise compares its label with the literal
    label_lit or, if positive, with slot label_slot, or binds it when both are
    None; out builds the next environment from env + (target, label).
    """

    premise: Premise
    layout: tuple
    source: Union[int, None]
    label_lit: object
    label_slot: Union[int, None]
    out: object


class _RulePlan(NamedTuple):
    rule: Rule
    head: object       # picks the first environment from args + params
    steps: tuple
    conclude: object   # final environment -> (label, target)


def _premise_reads(p: Premise) -> set:
    return {("t", p.source)} | {("l", v) for v in label_vars(p.label)}


def _builder(target, slot: dict):
    """Function from an environment to the label-free template target, each
    variable read from its slot."""
    if isinstance(target, Var):
        return itemgetter(slot[("t", target.name)])
    op, kids = target.op, tuple(_builder(a, slot) for a in target.args)
    if not kids:
        leaf = App(op)
        return lambda env: leaf
    return lambda env: App(op, (), tuple([build(env) for build in kids]))


def _compile_conclusion(kind: BehaviourKind, rule: Rule, layout: tuple):
    """Function from an environment laid out as layout to the pair the rule
    concludes; a derivation raises the errors evaluating the pair raises."""
    label, target = rule.concl_label, rule.concl_target
    slot = {name: i for i, name in enumerate(layout)}
    if (isinstance(label, LabelLit) and kind.has_label(label.value)
            and next(template_param_exprs(target), None) is None
            and all(("t", v) in slot for v in template_vars(target))):
        lab, build = label.value, _builder(target, slot)
        return lambda env: (lab, build(env))

    def conclude(env: tuple) -> tuple:
        labenv = _names_env(layout, env, "l")
        lab = eval_label(label, labenv)
        if not kind.has_label(lab):
            raise LabelEvalError(
                f"rule {rule.name}: conclusion label {lab!r} outside the label domain")
        return lab, substitute(instantiate_template(target, labenv),
                               _names_env(layout, env, "t"))

    return conclude


def _compile_rule(kind: BehaviourKind, rule: Rule) -> _RulePlan:
    concl = {("t", v) for v in template_vars(rule.concl_target)}
    for e in (rule.concl_label, *template_param_exprs(rule.concl_target)):
        concl |= {("l", v) for v in label_vars(e)}
    live = [concl]  # live[i]: names read by premise i or anything after it
    for p in reversed(rule.premises):
        live.append(live[-1] | _premise_reads(p))
    live.reverse()

    # a repeated head variable keeps its last argument, as a dict would
    origin = {("t", v): i for i, v in enumerate(rule.head_vars)}
    origin.update({("l", v): len(rule.head_vars) + i for i, v in enumerate(rule.head_params)})
    layout = tuple(name for name in origin if name in live[0])
    head = _picker(tuple(origin[name] for name in layout))
    bound = list(origin)  # binding order, so that layouts are deterministic

    steps = []
    for i, p in enumerate(rule.premises):
        slot = {name: j for j, name in enumerate(layout)}
        label_lit = label_slot = None
        fresh: dict = {}  # names this premise binds -> index in env + (target, label)
        if isinstance(p.label, LabelLit):
            label_lit = p.label.value
        if isinstance(p, Positive):
            fresh[("t", p.target)] = len(layout)
            if label_lit is None and ("l", p.label.name) in slot:
                label_slot = slot[("l", p.label.name)]
            elif label_lit is None:
                fresh[("l", p.label.name)] = len(layout) + 1
            bound += [name for name in fresh if name not in bound]
        out_layout = tuple(name for name in bound if name in live[i + 1])
        out = _picker(tuple(fresh[name] if name in fresh else slot[name]
                            for name in out_layout))
        steps.append(_PremiseStep(p, layout, slot.get(("t", p.source)),
                                  label_lit, label_slot, out))
        layout = out_layout
    return _RulePlan(rule, head, tuple(steps), _compile_conclusion(kind, rule, layout))


def _join_plan(spec: Spec) -> dict:
    """Rule plans by head operator, compiled on first use and kept on the spec."""
    if spec.join_plan is None:
        plan: dict = {}
        for rule in spec.rules:
            plan.setdefault(rule.head_op, []).append(_compile_rule(spec.kind, rule))
        spec.join_plan = plan
    return spec.join_plan


def apply_rules(spec: Spec, op: str, params: tuple, args: tuple, reads: set,
                memo: _Rows):
    """Join of all rule conclusions derivable for op[params](args) in the
    model whose transition table is memo, which phi_step shares across a step.

    Every premise source read, negative premises included, is added to reads.
    """
    read = reads.add
    pairs: list = []  # (label, target) of every derivation
    for plan in _join_plan(spec).get(op, ()):
        rule = plan.rule
        if len(rule.head_vars) != len(args) or len(rule.head_params) != len(params):
            continue
        envs = (plan.head(args + params),)
        for step in plan.steps:
            if step.source is None:
                envs = ()
                break
            p, src, lit, out = step.premise, step.source, step.label_lit, step.out
            grown: dict = {}
            if isinstance(p, Positive):
                slot = step.label_slot
                for env in envs:
                    s = env[src]
                    read(s)
                    for lab, target in memo[s]:
                        if lit is not None:
                            if lab != lit:
                                continue
                        elif slot is not None and lab != env[slot]:
                            continue
                        grown[out(env + (target, lab))] = None
            else:
                for env in envs:
                    s = env[src]
                    read(s)
                    want = (lit if lit is not None else
                            eval_label(p.label, _names_env(step.layout, env, "l")))
                    if all(have != want for have, _ in memo[s]):
                        grown[out(env)] = None
            envs = grown
            if not envs:
                break
        pairs.extend(map(plan.conclude, envs))
    try:
        return spec.kind.from_transitions(pairs)
    except InconsistentStreamError as exc:
        raise InconsistentStreamError(
            f"{print_term(App(op, params, args))}: {exc}") from None


def phi_step(spec: Spec, model: Model, gen: Union[GenCoalgebra, None] = None,
             dirty: Union[set, frozenset, None] = None,
             reads: Union[dict, None] = None) -> Model:
    """One application of the rule bank across the universe.

    Generator variables take their dynamics verbatim (states injected as
    variable terms); conclusion targets outside the universe become frontier.
    Terms whose derivation read a frontier or tainted term are tainted: their
    value may under-report the untruncated behaviour.

    With a dirty set, only the universe terms in it are recomputed; every
    other term keeps its value and taint from model.  If reads is given, it
    receives, in universe order, each recomputed term mapped to the set of
    terms its derivation read.
    """
    kind = spec.kind
    old, old_tainted = model.behaviour, model.tainted
    unresolved = model.frontier | old_tainted
    memo = _Rows(model)
    beh = {}
    referenced: set = set()
    tainted: list = []
    for t in model.universe:
        if dirty is not None and t not in dirty:
            v = old[t]
            if t in old_tainted:
                tainted.append(t)
        elif isinstance(t, Var):
            if gen is None or t.name not in gen.dynamics:
                raise UnknownStateError(f"variable term {t.name!r} has no generator dynamics")
            v = kind.map_states(lambda y: Var(y), gen.dynamics[t.name])
            if reads is not None:
                reads[t] = set()
        else:
            read: set = set()
            v = apply_rules(spec, t.op, t.params, t.args, read, memo)
            if not read.isdisjoint(unresolved):
                tainted.append(t)
            if reads is not None:
                reads[t] = read
        beh[t] = v
        referenced |= kind.states(v)
    inside = set(model.universe)
    frontier = frozenset(s for s in referenced if s not in inside)
    return Model(kind, model.universe, beh, frontier, frozenset(tainted))


# --- fixed-point iteration ------------------------------------------------------


def _subterm_closure(seedlike: Iterable[Term]) -> set:
    out: set = set()
    for t in seedlike:
        out.update(subterms(t))
    return out


def _promotions(model: Model, policy: UniversePolicy, seen: frozenset) -> list:
    """Frontier terms (with their subterm closures) that fit the caps.

    seen is the frontier of the previous model, whose terms the previous call
    examined and did not promote; they are skipped, for none of them can fit
    now.  A term's size is fixed, and for its set of subterms outside the
    universe, len(new) - budget never decreases: each promoted term lowers
    budget by one and len(new) by at most one.
    """
    if not policy.grow:
        return []
    inside = set(model.universe)
    budget = policy.max_count - len(inside)
    promoted: list = []
    taken: set = set()
    for t in sorted(model.frontier - seen, key=term_key):
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
                policy: UniversePolicy = UniversePolicy(), max_iters: int = 1000,
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

    universe = tuple(sorted(_subterm_closure(seeds), key=term_key))
    m = bottom_model(kind, universe)
    # term -> universe terms whose derivations read it.  Entries are never
    # dropped: in a monotone chain a term's reads only grow, and a stale entry
    # costs one needless re-derivation.
    readers: dict = {}
    dirty: Union[set, None] = None  # None: recompute every term
    prev_prev: Union[Model, None] = None
    converged = oscillating = False
    iters = 0
    while iters < max_iters:
        iters += 1
        reads: dict = {}
        m2 = phi_step(spec, m, gen, dirty, reads)
        changed: set = set()
        for t, sources in reads.items():
            for s in sources:
                readers.setdefault(s, set()).add(t)
            old, new = m.behaviour[t], m2.behaviour[t]
            if old != new:
                if mon.monotone and not kind.leq(old, new):
                    raise BigsosError(
                        f"internal: iteration chain decreased at {print_term(t)}")
                changed.add(t)
            elif (t in m.tainted) != (t in m2.tainted):
                changed.add(t)
        promoted = _promotions(m2, policy, m.frontier)
        if promoted:
            new_universe = tuple(sorted(set(m2.universe) | set(promoted), key=term_key))
            beh = dict(m2.behaviour)
            for t in promoted:
                beh[t] = kind.bottom()
            # a promoted term's value is bottom, so it references nothing
            m2 = Model(kind, new_universe, beh, m2.frontier.difference(promoted),
                       m2.tainted)
        # Frontier membership is read like a value.  As long as a term is
        # promoted in the step that first references it or never, a term leaves
        # the frontier only when no value references it any more, so its readers
        # are dirty anyway; the index does not rely on that.
        changed |= m.frontier ^ m2.frontier
        if promoted:
            prev_prev = None  # only same-universe models are comparable
        elif not changed:
            converged = True
            m = m2
            break
        # a monotone chain only climbs, so only a non-monotone one can cycle
        elif not mon.monotone and m2 == prev_prev:
            oscillating = True
            m = m2
            break
        else:
            prev_prev = m
        dirty = {r for s in changed for r in readers.get(s, ())}
        dirty.update(promoted)
        m = m2
    return m, ConvergenceReport(iters, converged, oscillating, len(m.frontier))


def lift_coalgebra(spec: Spec, gen: GenCoalgebra,
                   seeds: Union[Iterable[Term], None] = None,
                   policy: UniversePolicy = UniversePolicy(),
                   max_iters: int = 1000) -> Model:
    """Extend the generator's behaviour to all universe terms over its states."""
    gen.validate(spec.kind, spec.sig)
    model, report = least_model(spec, seeds, policy, max_iters, gen=gen)
    if not report.converged:
        raise NonConvergenceError(
            f"lifting did not stabilize within {report.iterations} iterations")
    return model


# --- unfoldings -----------------------------------------------------------------


@dataclass(frozen=True)
class UnfoldTree:
    """Finite-depth observation tree; step states are child trees.

    depth is the remaining budget at this node (0 means no step recorded);
    opaque marks a frontier or tainted term, whose step may under-report the
    untruncated behaviour.
    """

    root: Term
    depth: int
    step: object = None
    opaque: bool = False

    def sort_key(self):
        # sibling trees always have distinct roots
        return ("tree", term_key(self.root))


def unfold(model: Model, t: Term, depth: int) -> UnfoldTree:
    """Observe t in the model for `depth` steps."""
    if depth < 0:
        raise ValueError("depth must be a natural")
    value = model.step(t)  # also validates membership
    opaque = t in model.frontier or t in model.tainted
    if depth == 0:
        return UnfoldTree(t, 0, None, opaque)
    step = model.kind.map_states(lambda s: unfold(model, s, depth - 1), value)
    return UnfoldTree(t, depth, step, opaque)


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
    """Graphviz digraph; labelled transition models only."""
    if not isinstance(model.kind, CountableLTS):
        raise ValueError("dot export is only defined for lts models")
    lines = ["digraph model {", "  rankdir=LR;"]
    carrier = model.carrier()
    ids = {t: f"n{i}" for i, t in enumerate(carrier)}
    for t in carrier:
        style = ', style=dashed' if t in model.frontier else ""
        lines.append(f'  {ids[t]} [label="{print_term(t)}"{style}];')
    for t in model.universe:
        for lab, target in model.kind.transitions(model.behaviour[t]):
            lines.append(f'  {ids[t]} -> {ids[target]} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def unfold_to_json(kind: BehaviourKind, tree: UnfoldTree) -> dict:
    node: dict = {"term": print_term(tree.root), "depth": tree.depth}
    if tree.opaque:
        node["opaque"] = True
    node["step"] = (None if tree.step is None else
                    kind.tree_json(tree.step, lambda sub: unfold_to_json(kind, sub)))
    return node
