"""Least supported models by fixed-point iteration, and finite unfoldings.

The one-step operator interprets every rule against the current model: head
variables bind argument subterms, premises are matched by walking the model's
behaviour map (frontier terms read as bottom, so truncation under-approximates
soundly), and each complete match contributes its instantiated conclusion.
Each rule's premises and conclusion are compiled once per spec, so a term's
value is built in one pass from its derived (label, target, 1) moves, and
the join records every term it reads on the way.  A ground fact (see
speclang.ground_fact and Spec.facts) is stored as its move and never
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
read it.  It keeps the last step's model as mutable state, with a count per
state of the universe values that reference it.  A step derives the readers
of the terms the previous step changed, and the newly promoted terms,
against the previous model, and applies the results only once all have run.
Only a term whose value or taint changed updates its entry and the reference
counts; a state outside the universe enters the frontier when its count
leaves 0 and leaves it when the count reaches 0; promotion examines only the
terms that just entered.  A step's delta is the earlier value and taint of
each term it changed and the set of terms that entered or left the
frontier.  The loop has converged when a delta is empty, and a model equals
the one two steps back exactly when the two deltas change the same terms,
the second restores each to its value and taint from before the first, and
both flip the same frontier terms.  So a step costs O(derivations + changed
states) rather than O(|universe|), and its models are those of full steps
(phi_step).

A generator designates opaque variable states whose behaviour is injected
verbatim each step; running the same iteration over terms with generator
variables lifts a coalgebra on the generator states to one on all such terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, Union

from .behaviour import BehaviourKind, CountableLTS
from .errors import (BigsosError, InconsistentStreamError, LabelEvalError,
                     NonConvergenceError, NonMonotoneError, UnboundVariableError,
                     UnknownStateError)
from .speclang import (LabelLit, Positive, Premise, Rule, Spec, check_monotone,
                       compile_label, compile_param, label_vars, template_param_exprs,
                       template_vars)
from .terms import (App, Term, UniversePolicy, Var, check_term, print_term, subterms,
                    term_key, term_size, variables)


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
        """The universe, then the frontier in term order; built once."""
        return self._carrier

    @cached_property
    def _carrier(self) -> tuple:
        return self.universe + tuple(sorted(self.frontier, key=term_key))

    @cached_property
    def index(self) -> dict:
        """Each carrier state's position in carrier(); built once."""
        return {s: i for i, s in enumerate(self._carrier)}


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
# moves of its ground facts and the compiled plans of its other rules.  A fact
# reads nothing and binds nothing, so a constant's moves start from its facts;
# an explicit LTS written as axioms compiles no plan.
#
# Each other rule is compiled once per spec into a generated function,
# run(row, read, memo, moves), which appends the move of every derivation for
# the head row args + params.  An environment holds the bindings still live
# at its point in the premise chain, those that a later premise or the
# conclusion reads; slots are named ("t", x) for term variables and ("l", n)
# for label variables, and each is a local variable of run.  Each premise
# runs over all environments and fills a dict whose keys, the one live slot
# or a tuple of them, are the next environments, so environments that agree
# on the live slots merge in first-derivation order and a chain of premises
# costs about the number of distinct live bindings, not of premise paths.
# Premises read their sources' moves from a table shared across one step,
# and every source read goes into the caller's read set: the step takes the
# term's taint from it, and least_model its reverse index.
#
# The conclusion is compiled into a function from a final environment to its
# (label, target, 1) move, with label expressions, operator parameters and
# the target compiled over the slots.  run calls it, and a negative premise's
# compiled label, per environment, so errors keep their text and order; only
# a literal label in the domain with a bound variable as target cannot fail,
# and run builds that move itself.  A term's value is built from its moves by
# one kind.from_moves call.
#
# No spec text reaches the generated source.  Literal labels and compiled
# closures are the arguments of a factory that returns run, so the source
# depends only on the plan's shape (head slots; per premise its source slot,
# label test, polarity and output slots), and a name such as x''' or `row`
# never meets the generator's.  Each shape's factory is compiled once per
# process and kept in a bounded cache, because every spec parse compiles its
# rules afresh and compiling source costs far more than the join it runs.


class _Rows(dict):
    """kind.moves of each term of model, read on first use."""

    __slots__ = ("model",)

    def __init__(self, model: Model):
        super().__init__()
        self.model = model

    def __missing__(self, t: Term) -> tuple:
        row = self[t] = self.model.kind.moves(self.model.step(t))
        return row


def _premise_reads(p: Premise) -> set:
    return {("t", p.source)} | {("l", v) for v in label_vars(p.label)}


def _label_slots(slot: dict) -> dict:
    return {name: i for (tag, name), i in slot.items() if tag == "l"}


def _builder(target, slot: dict):
    """Function from an environment to the conclusion target, each variable
    read from its slot and each parameter evaluated from the label slots.

    Evaluation raises what instantiating the template and then substituting
    into it raises: the parameters' errors in pre-order, then an unbound
    term variable, the first one in pre-order.
    """
    labels = _label_slots(slot)
    unbound: list = []

    def compile_node(tt):
        if isinstance(tt, Var):
            if ("t", tt.name) not in slot:
                unbound.append(tt.name)
                return None
            return itemgetter(slot[("t", tt.name)])
        op = tt.op
        params = tuple([compile_param(e, labels) for e in tt.params])
        kids = tuple([compile_node(a) for a in tt.args])
        if params:
            return lambda env: App(op, tuple([p(env) for p in params]),
                                   tuple([build(env) for build in kids]))
        if kids:
            return lambda env: App(op, (), tuple([build(env) for build in kids]))
        leaf = App(op)
        return lambda env: leaf

    build = compile_node(target)
    if not unbound:
        return build
    params = [compile_param(e, labels) for e in template_param_exprs(target)]
    message = f"no binding for variable {unbound[0]!r}"

    def fail(env):
        for param in params:
            param(env)
        raise UnboundVariableError(message)
    return fail


def _compile_conclusion(kind: BehaviourKind, rule: Rule, layout: tuple):
    """Function from an environment laid out as layout to the move the rule
    concludes.  It raises, in this order, what evaluating the label raises, a
    label outside the domain, and what building the target raises."""
    slot = {name: i for i, name in enumerate(layout)}
    build = _builder(rule.concl_target, slot)
    label = rule.concl_label
    if isinstance(label, LabelLit) and kind.has_label(label.value):
        lab = label.value
        return lambda env: (lab, build(env), 1)
    value, has_label = compile_label(label, _label_slots(slot)), kind.has_label

    def conclude(env: tuple) -> tuple:
        lab = value(env)
        if not has_label(lab):
            raise LabelEvalError(
                f"rule {rule.name}: conclusion label {lab!r} outside the label domain")
        return lab, build(env), 1

    return conclude


def _compile_rule(kind: BehaviourKind, rule: Rule):
    """The rule's generated run function (see the notes above)."""
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
    local = {name: i for i, name in enumerate(origin)}  # binding order: slot -> its local
    head = tuple((local[name], origin[name]) for name in layout)
    consts: list = []  # the factory's arguments

    def const(value) -> int:
        consts.append(value)
        return len(consts) - 1

    steps = []  # (test, argument, source, target, output locals) per premise
    for i, p in enumerate(rule.premises):
        slot = {name: j for j, name in enumerate(layout)}
        if ("t", p.source) not in slot:
            break  # no environment survives
        if not isinstance(p, Positive):
            test, arg, target = "want", const(compile_label(p.label, _label_slots(slot))), None
        else:
            target = local.setdefault(("t", p.target), len(local))
            if isinstance(p.label, LabelLit):
                test, arg = "lit", const(p.label.value)
            elif ("l", p.label.name) in slot:
                test, arg = "slot", local[("l", p.label.name)]
            else:
                test, arg = "bind", local.setdefault(("l", p.label.name), len(local))
        layout = tuple(name for name in local if name in live[i + 1])
        steps.append((test, arg, local[("t", p.source)], target,
                      tuple(local[name] for name in layout)))
    else:  # the conclusion, as a last step
        label, target = rule.concl_label, rule.concl_target
        if (isinstance(label, LabelLit) and kind.has_label(label.value)
                and isinstance(target, Var) and ("t", target.name) in layout):
            steps.append(("move", const(label.value), None, local[("t", target.name)], None))
        else:
            steps.append(("call", const(_compile_conclusion(kind, rule, layout)), None, None,
                          None))
    return _rule_factory((len(consts), head, tuple(steps)))(*consts)


def _rule_source(shape: tuple) -> str:
    """Source of the factory from a plan's constants c0, c1, ... to its run
    function.  Local v<i> holds slot i, and g<n> the environments after
    step n."""
    nconst, head, steps = shape
    env = lambda slots: "(" + "".join(f"v{i}, " for i in slots) + ")"
    key = lambda slots: f"v{slots[0]}" if len(slots) == 1 else env(slots)
    lines = [f"def factory({''.join(f'c{k}, ' for k in range(nconst))}):",
             " def run(row, read, memo, moves):", *(f"  v{i} = row[{j}]" for i, j in head)]
    layout = tuple(i for i, _ in head)
    for n, (test, arg, src, target, out) in enumerate(steps):
        pad = "   " if n else "  "  # under the loop over the last step's environments
        if out is not None:
            lines.append(f"  g{n} = {{}}")
        if n:
            lines.append(f"  for {key(layout)} in g{n - 1}:")
        if test == "move":
            lines.append(f"{pad}moves.append((c{arg}, v{target}, 1))")
        elif test == "call":
            lines.append(f"{pad}moves.append(c{arg}({env(layout)}))")
        else:
            keep = f"g{n}[{key(out)}] = None"
            lines.append(f"{pad}read(v{src})")
            if test == "want":
                lines += [f"{pad}want = c{arg}({env(layout)})",
                          f"{pad}if all(lab != want for lab, _, _ in memo[v{src}]): {keep}"]
            elif test == "bind":
                lines.append(f"{pad}for v{arg}, v{target}, _ in memo[v{src}]: {keep}")
            else:
                lines += [f"{pad}for lab, v{target}, _ in memo[v{src}]:",
                          f"{pad} if lab == {'c' if test == 'lit' else 'v'}{arg}: {keep}"]
        layout = out
    return "\n".join(lines + ["  return", " return run", ""])


@lru_cache(maxsize=256)  # an internal bound on the shapes kept
def _rule_factory(shape: tuple):
    """The factory of plans of this shape, compiled on first use."""
    namespace: dict = {}
    exec(compile(_rule_source(shape), "<rule plan>", "exec"), namespace)
    return namespace["factory"]


def _join_plan(spec: Spec) -> dict:
    """(facts, plans) by head operator, arity and parameter count, built on
    first use and kept on the spec: the moves of the ground facts, and the
    run functions of the other rules in rule order."""
    if spec.join_plan is None:
        plan: dict = {}
        for rule, fact in zip(spec.rules, spec.facts):
            facts, plans = plan.setdefault(
                (rule.head_op, len(rule.head_vars), len(rule.head_params)), ([], []))
            if fact is None:
                plans.append(_compile_rule(spec.kind, rule))
            else:
                label, target = fact
                facts.append((label, App(target), 1))
        spec.join_plan = plan
    return spec.join_plan


def apply_rules(spec: Spec, op: str, params: tuple, args: tuple, reads: set,
                memo: _Rows):
    """Join of all rule conclusions derivable for op[params](args) in the
    model whose move table is memo, which phi_step shares across a step.

    Every premise source read, negative premises included, is added to reads.
    """
    facts, plans = _join_plan(spec).get((op, len(args), len(params)), ((), ()))
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


def _subterm_closure(seedlike: Iterable[Term]) -> set:
    out: set = set()
    for t in seedlike:
        out.update(subterms(t))
    return out


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

    # The model of the last step, updated in place once each step's
    # derivations have all run.
    dirty = sorted(_subterm_closure(seeds), key=term_key)
    bottom = kind.bottom()
    beh = dict.fromkeys(dirty, bottom)
    frontier: set = set()
    tainted: set = set()
    held: dict = {}  # universe term -> the states its value references
    refs: dict = {}  # state -> the number of universe values that reference it
    view = Model(kind, (), beh, frontier, tainted)  # reads the live state
    # term -> universe terms whose derivations read it.  Entries are never
    # dropped: in a monotone chain a term's reads only grow, and a stale entry
    # costs one needless re-derivation.
    readers: dict = {}
    # (changed, flipped) of the previous step when its universe was this one
    prev: Union[tuple, None] = None
    converged = oscillating = False
    iters = 0
    while iters < max_iters:
        iters += 1
        memo = _Rows(view)
        derived = [(t, *_derive(spec, gen, memo, t)) for t in dirty]
        changed: dict = {}  # term -> (value, taint) before this step
        touched: set = set()  # states whose reference count changed
        for t, v, read, taint in derived:
            for s in read:
                readers.setdefault(s, set()).add(t)
            old, was = beh[t], t in tainted
            if old != v:
                if mon.monotone and not kind.leq(old, v):
                    raise BigsosError(
                        f"internal: iteration chain decreased at {print_term(t)}")
                beh[t] = v
                before, after = held.get(t, frozenset()), kind.states(v)
                held[t] = after
                gone, new = before - after, after - before
                for s in gone:
                    refs[s] -= 1
                for s in new:
                    refs[s] = refs.get(s, 0) + 1
                touched.update(gone, new)
            elif was == taint:
                continue
            changed[t] = (old, was)
            if taint:
                tainted.add(t)
            else:
                tainted.discard(t)
        # terms that entered or left the frontier
        flipped = {s for s in touched
                   if (refs[s] > 0 and s not in beh) != (s in frontier)}
        frontier.symmetric_difference_update(flipped)
        promoted = _promotions(beh, flipped & frontier, policy)
        beh.update(dict.fromkeys(promoted, bottom))  # a bottom value references nothing
        moved = frontier.intersection(promoted)
        frontier.difference_update(moved)
        flipped.symmetric_difference_update(moved)
        if promoted:
            prev = None  # only same-universe models are comparable
        elif not changed and not flipped:
            converged = True
            break
        # A monotone chain only climbs, so only a non-monotone one can cycle.
        # This model equals the one two steps back when this step undid the
        # previous one: it changed the same terms back to their values and
        # taint from before it, and flipped the same frontier terms back.
        elif (not mon.monotone and prev is not None and prev[1] == flipped
              and prev[0].keys() == changed.keys()
              and all(prev[0][t] == (beh[t], t in tainted) for t in changed)):
            oscillating = True
            break
        else:
            prev = (changed, flipped)
        # Frontier membership is read like a value.  As long as a term is
        # promoted in the step that first references it or never, a term leaves
        # the frontier only when no value references it any more, so its readers
        # are dirty anyway; the index does not rely on that.
        dirty = {r for s in (*changed, *flipped) for r in readers.get(s, ())}
        dirty = sorted(dirty.union(promoted), key=term_key)
    universe = tuple(sorted(beh, key=term_key))
    model = Model(kind, universe, {t: beh[t] for t in universe}, frozenset(frontier),
                  frozenset(tainted))
    return model, ConvergenceReport(iters, converged, oscillating, len(frontier))


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
