"""Engine: rule application, Kleene iteration, unfoldings, serialization."""

import inspect
import io
import random
import re
import sys
import tokenize
from itertools import count

import pytest

from bigsos import cli, engine
from bigsos.behaviour import BOTTOM, CountableLTS, PartialStream, StreamStep, WeightedLTS
from bigsos.engine import (ConvergenceReport, GenCoalgebra, Model, gen_to_model,
                           least_model, lift_coalgebra, model_to_dot, model_to_json,
                           phi_step, unfold, unfold_to_json)
from bigsos.errors import (BigsosError, InconsistentStreamError, InvalidSpecError,
                           LabelEvalError, NonConvergenceError, NonMonotoneError,
                           UnknownStateError)
from bigsos.relations import default_generators
from bigsos.speclang import (LabelAdd, LabelLit, LabelVar, Negative, Positive, Rule, Spec,
                             check_monotone, label_vars, parse_spec, template_param_exprs,
                             template_vars, validate_spec)
from bigsos.terms import (MAX_NESTING, App, UniversePolicy, Var, parse_term, print_term,
                          substitute, subterms, term_key, term_size)
from conftest import (eval_label, fixture_path, fixture_text, instantiate_template, lts_value,
                      wts_value)
from spec_gen import (FACT_HEADER, FACT_SHAPES, RULE_SEEDS, UNIVERSE_TEXTS, fact_rules,
                      random_ground_lts_text, random_monotone_lts_spec, random_monotone_lts_text,
                      random_rule_spec_text)


def fx(name):
    return parse_spec(fixture_text(name))


def pt(spec, text):
    return parse_term(text, spec.sig)


def bottom_model(kind, universe):
    terms = tuple(sorted(set(universe), key=term_key))
    return Model(kind, terms, {t: kind.bottom() for t in terms})


# --- independent rule-application oracle ---------------------------------------------
#
# A deliberately naive reimplementation used to cross-check apply_rules: every
# premise path is enumerated by explicit backtracking over a table of each term's
# transitions, with no projection or merging of environments.


def _satisfy(premises, rows, var_bind, lab_bind, consulted):
    if not premises:
        yield var_bind, lab_bind
        return
    p, rest = premises[0], premises[1:]
    src = var_bind[p.source]
    consulted.add(src)
    row = rows.get(src, ())
    if isinstance(p, Positive):
        for lab, tgt in row:
            if isinstance(p.label, LabelLit):
                if p.label.value != lab:
                    continue
                lab2 = lab_bind
            elif p.label.name in lab_bind:
                if lab_bind[p.label.name] != lab:
                    continue
                lab2 = lab_bind
            else:
                lab2 = {**lab_bind, p.label.name: lab}
            yield from _satisfy(rest, rows, {**var_bind, p.target: tgt}, lab2, consulted)
    else:
        if all(lab != p.label.value for lab, _ in row):
            yield from _satisfy(rest, rows, var_bind, lab_bind, consulted)


def oracle_step(spec, rows, term):
    """Every conclusion derivable for term, and the sources the premises read.

    rows: Term -> tuple of (label, target) transitions; missing terms are silent.
    """
    conclusions, consulted = [], set()
    for rule in spec.rules + fact_rules(spec):
        if rule.head_op != term.op:
            continue
        base = dict(zip(rule.head_vars, term.args))
        params = dict(zip(rule.head_params, term.params))
        for var_bind, lab_bind in _satisfy(rule.premises, rows, base, params, consulted):
            lab = eval_label(rule.concl_label, lab_bind)
            target = substitute(instantiate_template(rule.concl_target, lab_bind),
                                var_bind)
            conclusions.append((lab, target))
    return conclusions, consulted


def oracle_value(kind, conclusions):
    """The behaviour value the conclusions denote, built per kind by hand."""
    if kind.name == "stream":
        steps = set(conclusions)
        assert len(steps) <= 1, steps
        return StreamStep(*steps.pop()) if steps else BOTTOM
    grouped = {}
    for lab, target in conclusions:
        grouped.setdefault(lab, set()).add(target)
    if kind.name == "lts":
        return lts_value(grouped)
    return wts_value({lab: dict.fromkeys(targets, 1.0)
                          for lab, targets in grouped.items()})


def check_phi_step(spec, model, gen=None):
    """Compare one phi step on model with the oracle, term by term, taint and
    recorded reads included."""
    reads = {}
    nxt = phi_step(spec, model, gen, reads=reads)
    assert list(reads) == list(model.universe)
    rows = {t: spec.kind.transitions(model.step(t)) for t in model.carrier()}
    unresolved = model.frontier | model.tainted
    for t in model.universe:
        if isinstance(t, Var):
            continue
        conclusions, consulted = oracle_step(spec, rows, t)
        assert nxt.behaviour[t] == oracle_value(spec.kind, conclusions), print_term(t)
        assert reads[t] == consulted, print_term(t)
        assert (t in nxt.tainted) == bool(consulted & unresolved), print_term(t)
    return nxt


def check_iterates(spec, universe, steps):
    """Check phi on the first iterates from the all-bottom model on a fixed universe."""
    m = bottom_model(spec.kind, universe)
    for _ in range(steps):
        m2 = check_phi_step(spec, m)
        if m2 == m:
            break
        m = m2
    return m


# A label variable read again by a later premise or fixed by a head parameter,
# and a head variable the conclusion still reads after two premises.
SHARED_LABELS = """behaviour lts labels a, b
ops c/0, d/0, f/1, g/2, h/1
rule c1 : |- c -a-> d
rule c2 : |- c -b-> c
rule d1 : |- d -a-> c
rule d2 : |- d -b-> d
rule f : x -l-> y, y -l-> z |- f(x) -l-> f(z)
rule fa : x -a-> y, y -b-> z |- f(x) -b-> g(x, z)
rule g : x -l-> x', y -l-> y' |- g(x, y) -l-> g(y', x')
rule h : x -l-> y, y -l-> z |- h(x) -a-> z
"""
HEAD_PARAMS = """behaviour stream nat
ops ones/0, up/1, pick/1[1], only/1[1]
rule ones : |- ones -1-> ones
rule up : x -n-> y |- up(x) -n+1-> up(y)
rule pick : x -m-> y |- pick[m](x) -m-> pick[m](y)
rule only : x -m-> y |- only[m](x) -1-> y
"""

ORACLE_SPECS = {
    # name: (spec text, seed terms, policy, force)
    "lookahead2": (fixture_text("lookahead2"), ("sigma(tau(c))", "sigma(tau(d))"),
                   UniversePolicy(40, 8), False),
    "transclosure": (fixture_text("transclosure"), ("sigma(sigma(c))",),
                     UniversePolicy(40, 8), False),
    # label variables n and m feed the otimes[n] template parameters
    "factstream": (fixture_text("factstream"), ("c", "pos", "sigma(pos)", "sigma(c)"),
                   UniversePolicy(400, 16), False),
    "wchain": (fixture_text("wchain"), ("f(f(c))", "f(d)"), UniversePolicy(40, 8), False),
    "negloop": (fixture_text("negloop"), ("sigma(sigma(c))",),
                UniversePolicy(10, 0), True),
    "shared-labels": (SHARED_LABELS, ("f(f(c))", "f(d)", "g(c, d)", "g(f(c), c)", "h(c)", "h(d)"),
                      UniversePolicy(60, 7), False),
    "head-params": (HEAD_PARAMS, ("pick[1](ones)", "pick[2](ones)", "pick[2](up(ones))",
                                  "only[1](ones)", "only[2](ones)"),
                    UniversePolicy(30, 6), False),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_phi_step_matches_oracle(name):
    text, seed_texts, policy, force = ORACLE_SPECS[name]
    spec = parse_spec(text)
    model, _ = least_model(spec, [pt(spec, s) for s in seed_texts], policy,
                           max_iters=60, force=force)
    # replay one phi step over the final model, then the climb from bottom
    check_phi_step(spec, model)
    check_iterates(spec, model.universe, 12)


def test_phi_step_matches_oracle_on_random_specs():
    rng = random.Random(5)
    for i in range(50):
        spec = random_monotone_lts_spec(random.Random(i))
        universe = [pt(spec, s) for s in UNIVERSE_TEXTS]
        last = check_iterates(spec, universe, 6)
        for _ in range(4):
            beh = {t: lts_value({"a": {s for s in universe if rng.random() < 0.5}})
                   for t in last.universe}
            check_phi_step(spec, Model(spec.kind, last.universe, beh))


def count_calls(monkeypatch, cls, names):
    """Counter of calls to the named methods of cls, patched for the test."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        inner = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in names:
        wrapper = counting(name)
        if isinstance(vars(cls)[name], staticmethod):
            wrapper = staticmethod(wrapper)
        monkeypatch.setattr(cls, name, wrapper)
    return calls


def spy_derivations(monkeypatch):
    """The read set of every apply_rules call, in call order."""
    derivations = []

    def spy(spec, op, params, args, reads, memo):
        derivations.append(reads)
        return apply_rules(spec, op, params, args, reads, memo)

    apply_rules = engine.apply_rules
    monkeypatch.setattr(engine, "apply_rules", spy)
    return derivations


def test_phi_step_work_per_term_on_the_tower(monkeypatch):
    """Counts, not times: in every iteration of least_model on the K=18
    transclosure tower the premise table reads each read term's moves once,
    and each derived term's value is built by one from_moves call, with no
    value per conclusion.  Iteration k's work is that of a run stopped after
    k iterations less that of a run stopped after k - 1."""
    calls = count_calls(monkeypatch, CountableLTS, ("from_moves", "conclusion_value", "join"))
    table = count_calls(monkeypatch, engine._Rows, ("__missing__",))
    derivations = spy_derivations(monkeypatch)
    spec = fx("transclosure")
    seed = pt(spec, _tower(18))
    policy = UniversePolicy(max_count=20, max_size=20)
    model, report = least_model(spec, [seed], policy)
    assert report.converged and report.iterations > 2
    runs = []
    for k in range(report.iterations + 1):
        for counter in (calls, table):
            counter.update(dict.fromkeys(counter, 0))
        derivations.clear()
        if k:
            least_model(spec, [seed], policy, max_iters=k)
        runs.append(({**calls, **table}, list(derivations)))
    steps = 0
    for (before, done), (after, reads) in zip(runs, runs[1:]):
        assert reads[:len(done)] == done
        reads = reads[len(done):]
        counts = {name: after[name] - before[name] for name in after}
        assert counts["__missing__"] == len(set().union(*reads))
        assert counts["from_moves"] == len(reads)
        assert counts["conclusion_value"] == counts["join"] == 0
        steps += len(reads)
    assert steps == len(runs[-1][1]) > len(model.universe)


def test_kleene_steps_read_states_of_changed_values_only(monkeypatch):
    """On the grow-and-lift unfold of sigma(pos) (caps 48/8000) a step reads
    the states of a value only when the value changes: at most two calls per
    derivation (228 derivations in 34 iterations), where a walk of the
    universe makes one call per universe term per iteration (2,355)."""
    calls = count_calls(monkeypatch, PartialStream, ("states",))
    derivations = spy_derivations(monkeypatch)
    spec, seeds, policy, _ = seminaive_case("factstream-sized")
    model, report = least_model(spec, seeds, policy)
    assert report.converged and report.iterations > 30
    assert 0 < calls["states"] <= 2 * len(derivations)


def _tower(j):
    return "sigma(" * j + "c" + ")" * j


def test_deep_tower_matches_an_integer_kleene_oracle():
    """sigma^40(c) under caps 42, twice the benchmark's largest K, against
    Kleene iteration on integer successor sets.  sigma^j(c) is j: j steps to
    j+1 (axiom_c, unfold) and, for j >= 1, to every z that three steps from
    j-1 reach (chain3); sigma^42(c) is the one frontier term and has no
    steps.  Universe, frontier and every successor list must come out in
    integer order."""
    k = 40
    top = k + 1
    succ = {j: set() for j in range(top + 1)}
    changed = True
    while changed:
        changed = False
        for j in range(top + 1):
            new = {j + 1}
            for y1 in succ[j - 1] if j else ():
                for y2 in succ.get(y1, ()):
                    new |= succ.get(y2, set())
            if new != succ[j]:
                succ[j], changed = new, True
    spec = fx("transclosure")
    model, report = least_model(spec, [pt(spec, _tower(k))],
                                UniversePolicy(max_count=k + 2, max_size=k + 2))
    assert report.converged
    got = model_to_json(model)
    assert got["universe"] == [_tower(j) for j in range(top + 1)]
    assert got["frontier"] == [_tower(top + 1)]
    assert list(got["behaviour"].items()) == [
        (_tower(j), {"a": [_tower(z) for z in sorted(succ[j])]}) for j in range(top + 1)]
    assert len(succ[1]) == top  # sigma(c) steps to every tower above it


# --- compiled conclusions versus the reference evaluators ------------------------------

# Valid rules whose conclusions raise: a head parameter used as the label of a
# finite alphabet, and squares that can pass the engine's bound on computed
# naturals.
PARAM_LABEL = """behaviour lts labels a, b
ops c/0, p/1[1]
rule p : x -a-> y |- p[n](x) -n-> p[n](y)
"""
SQUARES = """behaviour stream nat
ops c/0, sq/1[1]
rule sq : x -n-> y |- sq[m](x) -n*n-> sq[m*m](y)
"""
MAX_BITS = 14284  # the engine's bound on the bit length of a computed natural


def slot_values(layout, env, tag) -> dict:
    """The values env gives the slots of layout tagged tag, by name."""
    return {name: v for (t, name), v in zip(layout, env) if t == tag}


def reference_value(rule, e, labels):
    """e's value under labels, held below the bound if arithmetic computes it."""
    v = eval_label(e, labels)
    if not isinstance(e, (LabelLit, LabelVar)) and v.bit_length() > MAX_BITS:
        raise NonConvergenceError(f"rule {rule.name}: label arithmetic made a natural of "
                                  f"more than {MAX_BITS} bits")
    return v


def reference_conclusion(kind, rule, labels, terms):
    lab = reference_value(rule, rule.concl_label, labels)
    if not kind.has_label(lab):
        raise LabelEvalError(
            f"rule {rule.name}: conclusion label {lab!r} outside the label domain")
    for e in template_param_exprs(rule.concl_target):  # in pre-order
        reference_value(rule, e, labels)
    return lab, substitute(instantiate_template(rule.concl_target, labels), terms), 1


def outcome(thunk):
    try:
        return thunk()
    except BigsosError as exc:
        return type(exc), str(exc)


def generated_conclusion(kind, rule, layout, env):
    """The moves of rule's generated code with its premises dropped and the
    environment env bound by its head: the term slots of layout as arguments
    and its label slots as parameters, each in layout order."""
    args = tuple(v for (tag, _), v in zip(layout, env) if tag == "t")
    params = tuple(v for (tag, _), v in zip(layout, env) if tag == "l")
    run = engine._compile_rule(kind, Rule(
        rule.name, rule.head_op, tuple(name for tag, name in layout if tag == "l"),
        tuple(name for tag, name in layout if tag == "t"), (), rule.concl_label,
        rule.concl_target))
    moves = []
    run(args + params, None, None, moves)
    return moves


def test_compiled_conclusions_match_the_reference_evaluators():
    """Every valid rule's generated conclusion, over random layouts and
    environments whose slots hold values of their types, gives the
    reference's move or raises its error with the same message."""
    texts = [fixture_text(name) for name in ("empty", "explicit", "factstream", "lookahead2",
                                             "negloop", "transclosure", "wchain")]
    texts += [SHARED_LABELS, HEAD_PARAMS, PARAM_LABEL, SQUARES]
    rng = random.Random(3)
    pool = (App("c"), App("d", (), (App("c"),)), Var("gx"))
    naturals = (0, 1, 2, 3, 5, 2 ** (MAX_BITS // 2) - 1, 2 ** (MAX_BITS // 2))
    seen = set()
    for text in texts:
        spec = parse_spec(text)
        assert validate_spec(spec) == []
        labels = naturals if spec.kind.labels is None else sorted(spec.kind.labels)
        for rule in spec.rules + fact_rules(spec):
            bound = {("t", v) for v in rule.head_vars}
            bound |= {("l", v) for v in rule.head_params}
            for p in rule.premises:
                if isinstance(p, Positive):
                    bound.add(("t", p.target))
                    if isinstance(p.label, LabelVar):
                        bound.add(("l", p.label.name))
            layout = sorted(bound)
            for _ in range(30):
                rng.shuffle(layout)
                env = tuple(rng.choice(pool) if tag == "t" else
                            rng.choice(naturals if name in rule.head_params else labels)
                            for tag, name in layout)
                got = outcome(lambda: generated_conclusion(spec.kind, rule, layout, env))
                want = outcome(lambda: [reference_conclusion(
                    spec.kind, rule, slot_values(layout, env, "l"),
                    slot_values(layout, env, "t"))])
                assert got == want, (rule.name, layout, env)
                seen.add(got[1] if isinstance(got[0], type) else "pair")
    assert {"pair", "rule p: conclusion label 0 outside the label domain",
            f"rule sq: label arithmetic made a natural of more than {MAX_BITS} bits"} <= seen


# --- generated joins versus the plan interpreter ---------------------------------------
#
# The premise-step loop that apply_rules ran before rule plans became generated
# functions, kept as their reference: the same layouts, one environment tuple per
# distinct live binding and one premise at a time over all environments.  Labels
# and conclusions are read by the reference evaluators, not by generated code.


def _picker(indices):
    return lambda row: tuple(row[i] for i in indices)


def interpreted_plan(kind, rule):
    """(head, steps, conclude): head picks the first environment from args +
    params, and each step is (source slot or None, literal label, label slot,
    want, out), out building the next environment from env + (target, label)."""
    concl = {("t", v) for v in template_vars(rule.concl_target)}
    for e in (rule.concl_label, *template_param_exprs(rule.concl_target)):
        concl |= {("l", v) for v in label_vars(e)}
    live = [concl]
    for p in reversed(rule.premises):
        live.append(live[-1] | {("t", p.source)} | {("l", v) for v in label_vars(p.label)})
    live.reverse()
    origin = {("t", v): i for i, v in enumerate(rule.head_vars)}
    origin.update({("l", v): len(rule.head_vars) + i for i, v in enumerate(rule.head_params)})
    layout = tuple(name for name in origin if name in live[0])
    head = _picker(tuple(origin[name] for name in layout))
    bound = list(origin)
    steps = []
    for i, p in enumerate(rule.premises):
        slot = {name: j for j, name in enumerate(layout)}
        label_lit = p.label.value if isinstance(p.label, LabelLit) else None
        label_slot, fresh = None, {}
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
        want = None if isinstance(p, Positive) else reference_label(p.label, layout)
        steps.append((slot.get(("t", p.source)), label_lit, label_slot, want, out))
        layout = out_layout
    return head, steps, lambda env: reference_conclusion(
        kind, rule, slot_values(layout, env, "l"), slot_values(layout, env, "t"))


def reference_label(e, layout):
    return lambda env: eval_label(e, slot_values(layout, env, "l"))


def interpreted_apply_rules(spec, op, params, args, reads, memo):
    """apply_rules by the premise-step loop."""
    read = reads.add
    moves = [(label, App(target), 1) for head, label, target in spec.facts if head == op]
    for rule in spec.rules:
        if (rule.head_op != op or len(rule.head_vars) != len(args)
                or len(rule.head_params) != len(params)):
            continue
        head, steps, conclude = interpreted_plan(spec.kind, rule)
        envs = (head(args + params),)
        for source, lit, slot, want, out in steps:
            if source is None:
                envs = ()
                break
            grown = {}
            for env in envs:
                s = env[source]
                read(s)
                if want is not None:
                    label = want(env)
                    if all(have != label for have, _, _ in memo[s]):
                        grown[out(env)] = None
                    continue
                for lab, target, _ in memo[s]:
                    if lit is not None:
                        if lab != lit:
                            continue
                    elif slot is not None and lab != env[slot]:
                        continue
                    grown[out(env + (target, lab))] = None
            envs = grown
            if not envs:
                break
        moves.extend(map(conclude, envs))
    try:
        return spec.kind.from_moves(moves)
    except InconsistentStreamError as exc:
        raise InconsistentStreamError(f"{print_term(App(op, params, args))}: {exc}") from None


def record_from_moves(monkeypatch):
    """The moves of every from_moves call, in call order, as lists."""
    calls = []
    for cls in (PartialStream, CountableLTS, WeightedLTS):
        def spy(moves, inner=cls.from_moves):
            calls.append(list(moves))
            return inner(calls[-1])
        monkeypatch.setattr(cls, "from_moves", staticmethod(spy))
    return calls


def join_outcome(apply, spec, t, memo, calls):
    """The value or error of one derivation, the terms it read, and the moves
    it passed to from_moves, in order."""
    reads = set()
    calls.clear()
    try:
        got = apply(spec, t.op, t.params, t.args, reads, memo)
    except BigsosError as exc:
        got = type(exc), str(exc)
    return got, reads, calls[-1] if calls else None


def assert_same_joins(spec, model, calls) -> set:
    """apply_rules and the interpreter agree on every term of model; returns
    the error messages seen."""
    memo, errors = engine._Rows(model), set()
    for t in model.universe:
        if isinstance(t, Var):
            continue
        want = join_outcome(interpreted_apply_rules, spec, t, memo, calls)
        assert join_outcome(engine.apply_rules, spec, t, memo, calls) == want, print_term(t)
        if isinstance(want[0], tuple):
            errors.add(want[0][1])
    return errors


# Valid rules over hand-built models whose labels leave the domain.  The
# conclusions of some, mixed and lit leave it on some environments only, with
# one message per label, so the first environment in derivation order decides
# the error.  neg, mixed and lit test a literal label by a negative premise
# before their conclusions run, and pair reads the head variable w after two
# premises.
JOIN_ERRORS = """behaviour lts labels a, b
ops c/0, d/0, f/1, g/1, h/2
rule some : x -l-> y |- f(x) -l-> g(y)
rule neg : x -a-> y, y -b-/-> |- f(x) -a-> y
rule mixed : x -l-> y, y -a-/-> |- g(x) -l-> h(y, y)
rule lit : x -l-> y, y -b-/-> |- h(x, w) -l-> f(y)
rule pair : x -l-> y, y -l-> z |- h(x, w) -b-> h(w, z)
"""
JOIN_ERROR_TERMS = ("c", "d", "f(c)", "f(d)", "g(c)", "g(d)", "h(c, d)", "h(d, d)", "f(f(c))")


def join_errors_model(spec, moves):
    universe = tuple(pt(spec, s) for s in JOIN_ERROR_TERMS)
    return Model(spec.kind, universe,
                 {t: spec.kind.from_moves(moves.get(t, ())) for t in universe})


def test_generated_joins_match_the_plan_interpreter(monkeypatch):
    calls = record_from_moves(monkeypatch)
    cases = [(parse_spec(text), seeds, policy, force)
             for text, seeds, policy, force in ORACLE_SPECS.values()]
    cases += [(fx(name), (), UniversePolicy(), False) for name in ("explicit", "empty")]
    cases.append((fx("transclosure"), (_tower(12),), UniversePolicy(14, 14), False))
    for spec, seed_texts, policy, force in cases:
        seeds = [App(c) for c in spec.sig.constants()] + [pt(spec, s) for s in seed_texts]
        model, report = least_model(spec, seeds, policy, max_iters=60, force=force)
        for k in range(1, min(report.iterations, 6)):
            assert_same_joins(spec, least_model(spec, seeds, policy, k, force=force)[0], calls)
        assert_same_joins(spec, model, calls)
    rng = random.Random(8)
    for i in range(50):
        spec = random_monotone_lts_spec(random.Random(i))
        universe = [pt(spec, s) for s in UNIVERSE_TEXTS]
        for _ in range(4):
            beh = {t: lts_value({"a": {s for s in universe if rng.random() < 0.5}})
                   for t in universe}
            assert_same_joins(spec, Model(spec.kind, tuple(universe), beh), calls)

    spec = parse_spec(JOIN_ERRORS)
    assert validate_spec(spec) == []
    universe = [pt(spec, s) for s in JOIN_ERROR_TERMS]
    errors = set()
    for _ in range(80):
        errors |= assert_same_joins(spec, join_errors_model(spec, {
            t: [(lab, s, 1) for lab in ("a", "b", 1, 2, "z") for s in universe
                if rng.random() < 0.1] for t in universe}), calls)
    assert errors >= {"rule some: conclusion label 1 outside the label domain",
                      "rule some: conclusion label 'z' outside the label domain",
                      "rule mixed: conclusion label 2 outside the label domain",
                      "rule lit: conclusion label 'z' outside the label domain"}


# --- the generated source --------------------------------------------------------------
#
# Spec identifiers that are Python keywords or the generated code's own names,
# and variables with primes, which are not Python names at all.

KEYWORD_OPS = """behaviour lts labels a, b
ops def/1, None/0, lambda/2, row/1, read/0, memo/1, moves/1, lab/0, s/1, App/2, _nat/0, _add/1, t0/1, _unbound/1, _outside/0
rule def : x -a-> y |- def(x) -a-> row(y)
rule None : |- None -a-> def(None)
rule lambda : x -l-> x', y -l-> y' |- lambda(x, y) -l-> lambda(y', x')
rule row : x -a-> y, y -a-> z |- row(x) -b-> memo(z)
rule read : |- read -b-> lambda(read, None)
rule memo : x -l-> y |- memo(x) -l-> moves(y)
rule moves : x -a-> y |- moves(x) -a-> s(y)
rule s : x -b-> y, y -a-/-> |- s(x) -b-> y
rule lab : |- lab -a-> lab
rule App : x -a-> z |- App(x, y) -b-> _add(t0(z))
rule _nat : |- _nat -a-> App(_nat, _outside)
rule _add : x -l-> y |- _add(x) -l-> _unbound(t0(y))
rule t0 : x -b-> y |- t0(x) -a-> _add(y)
rule _unbound : x -a-> y |- _unbound(x) -b-> y
rule _outside : |- _outside -b-> _nat
"""
KEYWORD_VARS = """behaviour stream nat
ops sigma/1, ones/0, pos/0, plus/2, times/1[1], shift/1[1]
rule ones : |- ones -1-> ones
rule pos : |- pos -1-> plus(ones, pos)
rule plus : def -None-> def', lambda -lab-> lambda' |- plus(def, lambda) -None+lab-> plus(def', lambda')
rule sigma : row -read-> row', row' -memo-> row'' |- sigma(row) -read-> times[memo](sigma(row''))
rule times : s -lab-> s' |- times[moves](s) -moves*lab-> times[moves](s')
rule shift : App -_nat-> App', App' -t0-> _add |- shift[_mul](App) -_nat+t0*_mul-> shift[_nat+_mul](shift[t0](_add))
"""
KEYWORD_CHAIN = """behaviour lts labels a, b
ops sigma/1, c/0
rule axiom_c : |- c -a-> sigma(c)
rule unfold : |- sigma(row) -b-> sigma(sigma(row))
rule chain3 : read -a-> read', read' -lab-> read'', read'' -lab-> read''' |- sigma(read) -lab-> read'''
"""
KEYWORD_CASES = [
    (KEYWORD_OPS, ("def(None)", "lambda(read, None)", "row(None)", "memo(lab)", "s(lab)",
                   "App(_nat, lab)", "_add(_nat)", "t0(_outside)", "_unbound(_nat)"),
     UniversePolicy(60, 6), True),
    (KEYWORD_VARS, ("sigma(pos)", "times[2](pos)", "plus(pos, ones)", "shift[1](pos)"),
     UniversePolicy(400, 16), False),
    (KEYWORD_CHAIN, ("sigma(sigma(c))",), UniversePolicy(40, 8), False),
]
# the words of the generated code
GENERATED_NAME = re.compile(r"[cgtv][0-9]+|factory|run|row|read|memo|moves|lab|_|all|append"
                            r"|App|_too_big|_outside|bit_length|def|for|in|if|not|return|None")


def generated_sources(monkeypatch) -> list:
    """The source of every factory compiled from now on, with the cache emptied."""
    sources = []

    def spy(source):
        misses = rule_factory.cache_info().misses
        factory = rule_factory(source)
        if rule_factory.cache_info().misses > misses:
            sources.append(source)
        return factory

    rule_factory = engine._rule_factory
    rule_factory.cache_clear()
    monkeypatch.setattr(engine, "_rule_factory", spy)
    return sources


def assert_reference_model(monkeypatch, spec, seeds, policy, force=False):
    """least_model gives the model it gives with the plan interpreter."""
    got = least_model(spec, seeds, policy, force=force)
    with monkeypatch.context() as patched:
        patched.setattr(engine, "apply_rules", interpreted_apply_rules)
        assert got == least_model(spec, seeds, policy, force=force)
    return got


def test_generated_source_holds_no_spec_text(monkeypatch):
    sources = generated_sources(monkeypatch)
    for text, seed_texts, policy, force in KEYWORD_CASES:
        spec = parse_spec(text)
        assert validate_spec(spec) == []
        seeds = [App(c) for c in spec.sig.constants()] + [pt(spec, s) for s in seed_texts]
        model, _ = assert_reference_model(monkeypatch, spec, seeds, policy, force)
        assert sum(not spec.kind.is_bottom(v) for v in model.behaviour.values()) > 5
    assert len(sources) >= 8
    for source in sources:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert [t for t in tokens if t.type == tokenize.STRING] == []
        names = {t.string for t in tokens if t.type == tokenize.NAME}
        assert [name for name in names if not GENERATED_NAME.fullmatch(name)] == [], source


# The errors a valid spec's run may end in: a conclusion label outside a finite
# alphabet, two stream steps, and a computed natural past the bound.
RUN_ERRORS = re.compile(r"rule r[0-9]: conclusion label .* outside the label domain"
                        r"|.*: inconsistent stream step: .*"
                        r"|rule r[0-9]: label arithmetic made a natural of more than "
                        rf"{MAX_BITS} bits")


def test_generated_code_matches_the_plan_interpreter_on_random_valid_specs(monkeypatch):
    valid, errors = 0, set()
    for i in count():
        text = random_rule_spec_text(random.Random(i))
        spec = parse_spec(text)
        if validate_spec(spec):
            continue
        got = _outcome(spec, RULE_SEEDS, force=True)
        with monkeypatch.context() as patched:
            patched.setattr(engine, "apply_rules", interpreted_apply_rules)
            assert got == _outcome(spec, RULE_SEEDS, force=True), text
        if isinstance(got[0], type):
            assert RUN_ERRORS.fullmatch(got[1]), got
            errors.add(got[0])
        valid += 1
        if valid == 400:
            break
    assert errors == {LabelEvalError, InconsistentStreamError, NonConvergenceError}


# The same plans up to literal labels and operator names.
TWIN = """behaviour lts labels a, b
ops {op}/1, {c}/0
rule axiom : |- {c} -{l}-> {op}({c})
rule unfold : |- {op}(x) -{l}-> {op}({op}(x))
rule chain3 : x -{l}-> x', x' -{l}-> x'', x'' -{l}-> x''' |- {op}(x) -{l}-> x'''
"""
SHAPE_TWINS = [(TWIN.format(op=op, c=c, l=label), f"{op}({op}({c}))")
               for op, c, label in (("sigma", "c", "a"), ("tau", "d", "b"))]


def test_plans_of_one_shape_share_their_code(monkeypatch):
    sources = generated_sources(monkeypatch)
    specs = [parse_spec(text) for text, _ in SHAPE_TWINS]
    models = [assert_reference_model(monkeypatch, spec, [pt(spec, seed)], UniversePolicy(40, 8))[0]
              for spec, (_, seed) in zip(specs, SHAPE_TWINS)]
    assert len(models[0].universe) == len(models[1].universe) > 4
    codes = [[run.__code__ for _, runs in engine._join_plan(spec).values() for run in runs]
             for spec in specs]
    assert len(codes[0]) == 3 and all(a is b for a, b in zip(*codes))
    assert len(sources) == 3


# A target's statements: its parameters in pre-order, with each label's
# operands before its operator and its bound after it, then its nodes in
# reverse pre-order, each after its arguments.
MIXED_TARGETS = """behaviour stream nat
ops c/0, f/1[1], h/2[2], k/0[1], g/1
rule a : x -n-> y, y -m-> w |- g(x) -n+m-> h[n*m, n+1](f[n](c), h[m, 2](k[n], w))
"""
MIXED_STATEMENTS = [
    "t0 = v2 + v4", "if t0.bit_length() > 14284: _too_big(c0)",
    "if not c1(t0): _outside(c2, t0)",
    "t1 = v2 * v4", "if t1.bit_length() > 14284: _too_big(c3)",
    "t2 = v2 + c4", "if t2.bit_length() > 14284: _too_big(c5)",
    "t3 = App(c7, (v2, ), ())", "t4 = App(c8, (v4, c6, ), (t3, v3, ))",
    "t5 = App(c10, (v2, ), (c9, ))", "t6 = App(c11, (t1, t2, ), (t5, t4, ))",
    "moves.append((t0, t6, 1))"]


def test_target_statements_keep_their_order(monkeypatch):
    sources = generated_sources(monkeypatch)
    spec = parse_spec(MIXED_TARGETS)
    run = engine._compile_rule(spec.kind, spec.rules[0])
    lines = [line.strip() for line in sources[0].splitlines()]
    start = lines.index(MIXED_STATEMENTS[0])
    assert lines[start:start + len(MIXED_STATEMENTS)] == MIXED_STATEMENTS, sources[0]
    assert len(sources) == 1
    c, moves = App("c"), []
    run((c,), lambda s: None, {c: [(2, c, 1)]}, moves)
    assert moves == [(4, pt(spec, "h[4, 3](f[2](c), h[2, 2](k[2], c))"), 1)]


# Deep templates: the generated code stores one value per statement, so a
# template nests no expression, and the compiler walks a target from its own
# stack, so only the parser and the validator recurse on it.  n+1+...+1
# parses, without recursion, to the label (((n+1)+1)...+1).
DEEP_TARGET = """behaviour stream nat
ops c/0, f/1[1], g/1
rule c : |- c -1-> c
rule g : x -n-> y |- g(x) -n-> {}
"""
DEEP_LABEL = """behaviour stream nat
ops c/0, g/1
rule c : |- c -1-> c
rule g : x -n-> y |- g(x) -{}-> y
"""


def deep_spec(tmp_path, text) -> str:
    path = tmp_path / "deep.sos"
    path.write_text(text, encoding="utf-8")
    return str(path)


def cli_model(path) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["model", path, "g(c)", "--format", "json"], out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text", [
    *(DEEP_TARGET.format("f[n](" * n + "y" + ")" * n) for n in (150, 450, 900)),
    *(DEEP_LABEL.format("n" + "+1" * n) for n in (250, 320))],
    ids=["target-150", "target-450", "target-900", "label-250", "label-320"])
def test_deep_templates_give_the_reference_model(monkeypatch, tmp_path, text):
    path = deep_spec(tmp_path, text)
    got = cli_model(path)
    # the reference evaluators recurse through a generator per target node
    monkeypatch.setattr(engine, "apply_rules", interpreted_apply_rules)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit * 4)
    try:
        want = cli_model(path)
    finally:
        sys.setrecursionlimit(limit)
    assert want[0] == 0 and '"g(c)"' in want[1]
    assert got == want


def too_deep(line: int, column: int) -> tuple:
    return 1, "", f"error: input nested too deeply (line {line}, column {column})\n"


# The bracket past MAX_NESTING in a deep target is the "[" of its
# (MAX_NESTING + 1)-th f; each f starts 5 columns after the one before.
TARGET_OVER = too_deep(4, DEEP_TARGET.splitlines()[3].index("{") + 2 + 5 * MAX_NESTING)


def test_a_target_too_deep_to_parse_is_a_clean_error(tmp_path):
    path = deep_spec(tmp_path, DEEP_TARGET.format("f[n](" * 1200 + "y" + ")" * 1200))
    assert cli_model(path) == TARGET_OVER


def test_a_label_at_the_bottom_of_a_deep_target_is_not_blamed(tmp_path):
    # the target goes over the limit long before the label at its bottom
    path = deep_spec(tmp_path, DEEP_TARGET.format("f[n](" * 1200 + "f[(n)](y)" + ")" * 1200))
    assert cli_model(path) == TARGET_OVER
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["check", path], out, err) == 1
    assert ("", err.getvalue()) == TARGET_OVER[1:]


def test_no_step_takes_stack_in_proportion_to_depth(tmp_path):
    # Parsing, validation, compilation, iteration and printing each take
    # input MAX_NESTING brackets deep, or a label of 5000 terms, with 100
    # frames to spare; one bracket more is refused at that bracket.  The laws
    # substitute into the lifted terms of a 60-deep target, about 500 deep.
    target, label = str(tmp_path / "target.sos"), str(tmp_path / "label.sos")
    total = deep_spec(tmp_path, DEEP_LABEL.format("n" + "+1" * 5000))
    tower = tmp_path / "tower.sos"
    tower.write_text("behaviour lts labels a\nops s/1\nrule r : |- s(x) -a-> "
                     + "s(" * 60 + "x" + ")" * 60 + "\n", encoding="utf-8")

    def outcomes(depth):
        seed = "sigma(" * depth + "c" + ")" * depth
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(DEEP_TARGET.format("f[n](" * depth + "y" + ")" * depth))
        with open(label, "w", encoding="utf-8") as fh:
            fh.write(DEEP_LABEL.format("(" * depth + "n" + "+1)" * depth))
        runs = [["unfold", fixture_path("lookahead2"), seed, "-d", "1"],
                *(argv for path in (target, label, total)
                  for argv in (["model", path, "g(c)"], ["check", path])),
                ["laws", str(tower), "--universe-size", "500", "--universe-count", "500"]]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            got = []
            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                got.append((cli.run(argv, out, err), out.getvalue(), err.getvalue()))
            return got
        finally:
            sys.setrecursionlimit(limit)

    n = MAX_NESTING
    model = "c -1-> c\ng(c) -{}\n-- iterations 3, converged yes, oscillation no, frontier {}\n"
    checked = (0, "monotone: yes\n", "")
    fixed = [(0, model.format("5001-> c", 0), ""), checked,
             (0, "L3: pass\nL2: pass\nT1: pass\nT2-eta: pass\nT2-mu: pass\n", "")]
    assert outcomes(n) == [
        (0, "sigma(" * n + "c" + ")" * n + "\n", ""),
        (0, model.format("1-> " + "f[1](" * n + "c" + ")" * n, 1), ""), checked,
        (0, model.format(f"{n + 1}-> c", 0), ""), checked, *fixed]
    label_over = too_deep(4, DEEP_LABEL.splitlines()[3].index("{") + n + 1)
    assert outcomes(n + 1) == [too_deep(1, 6 * (n + 1)), TARGET_OVER, TARGET_OVER,
                               label_over, label_over, *fixed]


# --- semi-naive iteration versus the naive loop ----------------------------------------


def naive_promotions(model, policy):
    """Frontier terms (with their subterm closures) that fit the caps: every
    frontier term examined on every call, with a full subterm walk."""
    inside = set(model.universe)
    budget = policy.max_count - len(inside)
    promoted: list = []
    taken: set = set()
    for t in sorted(model.frontier, key=term_key):
        if term_size(t) > policy.max_size:
            continue
        new = {s for s in subterms(t) if s not in inside and s not in taken}
        if len(new) > budget:
            continue
        budget -= len(new)
        taken |= new
        promoted.extend(new)
    return sorted(promoted, key=term_key)


def naive_least_model(spec, seeds, policy, max_iters, force=False, gen=None):
    """Kleene iteration with a full phi_step every iteration and whole-model
    comparisons: the loop least_model ran before semi-naive evaluation."""
    kind = spec.kind
    monotone = check_monotone(spec).monotone
    assert monotone or force
    seeds = list(seeds) + ([Var(x) for x in gen.states] if gen is not None else [])
    m = bottom_model(kind, {s for seed in seeds for s in subterms(seed)})
    prev_prev = None
    converged = oscillating = False
    iters = 0
    while iters < max_iters:
        iters += 1
        m2 = phi_step(spec, m, gen)
        if monotone:
            assert all(kind.leq(m.behaviour[t], m2.behaviour[t]) for t in m.universe)
        promoted = naive_promotions(m2, policy)
        if promoted:
            beh = dict(m2.behaviour)
            beh.update((t, kind.bottom()) for t in promoted)
            universe = tuple(sorted(beh, key=term_key))
            referenced = set().union(*(kind.states(v) for v in beh.values()))
            m = Model(kind, universe, beh, frozenset(referenced - set(universe)), m2.tainted)
            prev_prev = None
            continue
        if m2 == m:
            converged = True
            m = m2
            break
        if prev_prev is not None and m2 == prev_prev:
            oscillating = True
            m = m2
            break
        prev_prev, m = m, m2
    return m, ConvergenceReport(iters, converged, oscillating, len(m.frontier))


def assert_same_iteration(spec, seeds, policy, max_iters=200, force=False, gen=None,
                          sweep=False):
    """least_model equals the naive loop, and so does every shorter run if sweep.
    The sweep also checks that a monotone spec's runs only climb: universe,
    frontier and taint only grow, and each value is below its successor."""
    want = naive_least_model(spec, seeds, policy, max_iters, force, gen)
    got = least_model(spec, seeds, policy, max_iters, force=force, gen=gen)
    assert got == want, (got[1], want[1])
    assert got[0].universe == want[0].universe
    if sweep:
        models = []
        for k in range(1, want[1].iterations):
            run = least_model(spec, seeds, policy, k, force=force, gen=gen)
            assert run == naive_least_model(spec, seeds, policy, k, force, gen), k
            models.append(run[0])
        if check_monotone(spec).monotone:
            for k, (m, m2) in enumerate(zip(models, [*models[1:], got[0]]), 1):
                assert set(m.universe) <= set(m2.universe), k
                assert m.frontier <= m2.frontier and m.tainted <= m2.tainted, k
                assert all(spec.kind.leq(m.behaviour[t], m2.behaviour[t])
                           for t in m.universe), k
    return got


# sigma(c) moves to d(c') only while c' = sigma(c) has no move, so d(sigma(c))
# enters the frontier in step 2 and leaves it in step 3, when the value that
# referenced it is gone.
LEFT_FRONTIER = """behaviour lts labels a
ops sigma/1, c/0, d/1
rule axiom_c : |- c -a-> sigma(c)
rule sigma : x -a-> x', x' -a-/-> |- sigma(x) -a-> d(x')
"""

# f(c) goes from bottom to b -> f(c), to a -> f(c) and back to b -> f(c): two
# steps change the same term before one undoes the step before it.
SWAP_MOVES = """behaviour lts labels a, b
ops c/0, f/1
rule c : |- c -a-> f(c)
rule flip : x -a-> y, y -b-/-> |- f(x) -b-> y
rule follow : x -a-> y, y -b-> z |- f(x) -a-> z
"""

# c moves to sigma(c), and sigma(c) to h(c') only while c' = sigma(c) has no
# move.  h(x) loops, so a promoted h(sigma(c)) grows the universe before the
# run settles into its 2-cycle; under a cap of 2 terms, h(sigma(c)) only
# enters and leaves the frontier.
GROWING_CYCLE = """behaviour lts labels a
ops sigma/1, c/0, h/1
rule axiom_c : |- c -a-> sigma(c)
rule sigma : x -a-> x', x' -a-/-> |- sigma(x) -a-> h(x')
rule h : |- h(x) -a-> h(x)
"""

# sigma(c) oscillates from step 2, while g(c), which reads the frontier term
# k(c), is tainted in step 2 and each h above it one step later: the
# behaviour repeats long before the taint does.
SLOW_TAINT = """behaviour lts labels a, b
ops sigma/1, c/0, k/1, g/1, h/1
rule axiom_c : |- c -a-> sigma(c)
rule sigma : x -a-> x', x' -a-/-> |- sigma(x) -a-> x'
rule k : |- c -b-> k(c)
rule g : x -b-> y, y -b-> z |- g(x) -b-> z
rule h : x -b-> y |- h(x) -b-> y
"""

SEMINAIVE_CASES = {
    # name: (spec text, seed terms, policy, force)
    "lookahead2": (fixture_text("lookahead2"), ("sigma(tau(c))", "sigma(tau(d))"),
                   UniversePolicy(40, 8), False),
    "transclosure": (fixture_text("transclosure"), ("sigma(sigma(c))",),
                     UniversePolicy(40, 8), False),
    "transclosure-capped": (fixture_text("transclosure"), ("sigma(c)",), UniversePolicy(6, 8),
                            False),
    "transclosure-fixed": (fixture_text("transclosure"), ("sigma(c)",), UniversePolicy(10, 0),
                           False),
    "factstream": (fixture_text("factstream"), ("c", "pos", "sigma(pos)", "sigma(c)"),
                   UniversePolicy(400, 16), False),
    "factstream-capped": (fixture_text("factstream"), ("sigma(pos)",), UniversePolicy(12, 7),
                          False),
    "factstream-sized": (fixture_text("factstream"), ("sigma(pos)",), UniversePolicy(8000, 48),
                         False),
    "wchain": (fixture_text("wchain"), ("f(f(c))", "f(d)"), UniversePolicy(40, 8), False),
    "wchain-capped": (fixture_text("wchain"), ("f(f(f(c)))",), UniversePolicy(4, 8), False),
    "negloop": (fixture_text("negloop"), ("sigma(sigma(c))",), UniversePolicy(10, 0), True),
    "negloop-growing": (fixture_text("negloop"), ("sigma(c)",), UniversePolicy(8, 6), True),
    "left-frontier": (LEFT_FRONTIER, ("sigma(c)",), UniversePolicy(8, 2), True),
    "swap-moves": (SWAP_MOVES, ("f(c)",), UniversePolicy(4, 2), True),
    "growing-cycle": (GROWING_CYCLE, ("c", "sigma(c)"), UniversePolicy(10, 4), True),
    "growing-cycle-capped": (GROWING_CYCLE, ("c", "sigma(c)"), UniversePolicy(2, 4), True),
    "slow-taint": (SLOW_TAINT, ("sigma(c)", "h(h(h(h(g(c)))))"), UniversePolicy(20, 0), True),
    "empty": (fixture_text("empty"), (), UniversePolicy(), False),
}


def seminaive_case(name):
    text, seed_texts, policy, force = SEMINAIVE_CASES[name]
    spec = parse_spec(text)
    seeds = [App(c) for c in spec.sig.constants()] + [pt(spec, s) for s in seed_texts]
    return spec, seeds, policy, force


@pytest.mark.parametrize("name", sorted(SEMINAIVE_CASES))
def test_least_model_matches_naive_loop(name):
    spec, seeds, policy, force = seminaive_case(name)
    assert_same_iteration(spec, seeds, policy, force=force, sweep=name != "factstream-sized")


def test_naive_loop_cases_reach_taint_promotion_and_oscillation():
    """The cases above exercise what the changed set must track, a term
    leaving the frontier included, and a 2-cycle after the universe grew."""
    seen = set()
    for name in SEMINAIVE_CASES:
        spec, seeds, policy, force = seminaive_case(name)
        model, report = least_model(spec, seeds, policy, 200, force=force)
        start = {s for seed in seeds for s in subterms(seed)}
        seen |= {"tainted"} if model.tainted else set()
        seen |= {"frontier"} if model.frontier else set()
        seen |= {"promoted"} if len(model.universe) > len(start) else set()
        seen |= {"oscillation"} if report.oscillation_detected else set()
        if report.oscillation_detected and len(model.universe) > len(start):
            seen.add("grown-oscillation")
        seen |= {"unconverged"} if not report.converged else set()
        if name != "factstream-sized":
            frontiers = [least_model(spec, seeds, policy, k, force=force)[0].frontier
                         for k in range(1, report.iterations + 1)]
            if any(f - g - set(model.universe) for f, g in zip(frontiers, frontiers[1:])):
                seen.add("left-frontier")
    assert seen == {"tainted", "frontier", "promoted", "oscillation", "unconverged",
                    "left-frontier", "grown-oscillation"}


def test_least_model_matches_naive_loop_on_random_specs():
    for i in range(50):
        spec = random_monotone_lts_spec(random.Random(i))
        seeds = [pt(spec, s) for s in UNIVERSE_TEXTS]
        for policy in (UniversePolicy(), UniversePolicy(2, 2), UniversePolicy(3, 0)):
            assert_same_iteration(spec, seeds, policy, sweep=True)


def test_generator_lifts_match_naive_loop():
    for fixture in ("lookahead2", "transclosure", "factstream", "wchain"):
        spec = fx(fixture)
        for gen in default_generators(spec.kind, spec.sig):
            x0 = Var(gen.states[0])
            seeds = [App(c) for c in spec.sig.constants()]
            seeds += [App(op.name, (1,) * op.param_count, (x0,) * op.arity)
                      for op in spec.sig.operators() if op.arity >= 1]
            for policy in (UniversePolicy(60, 6), UniversePolicy(12, 4)):
                model, report = assert_same_iteration(spec, seeds, policy, gen=gen,
                                                      sweep=True)
                if report.converged:
                    assert lift_coalgebra(spec, gen, seeds, policy, 200) == model


def test_promotion_counts_a_shared_new_subterm_once():
    """f(g(c)) and h(g(c), c) both need g(c); once the first is promoted, the
    second costs one slot, so both fit the four-term cap."""
    spec = parse_spec("behaviour lts labels a\nops f/1, g/1, h/2, c/0\n"
                      "rule one : |- c -a-> f(g(c))\nrule two : |- c -a-> h(g(c), c)\n")
    model, _ = assert_same_iteration(spec, [App("c")], UniversePolicy(4, 8))
    assert model.universe == tuple(pt(spec, s) for s in ("c", "g(c)", "f(g(c))", "h(g(c), c)"))


# --- hand-computed Lookahead2 iterations ----------------------------------------------


LOOK2_SEEDS = ("c", "d", "tau(c)", "tau(d)", "sigma(tau(c))", "sigma(tau(d))")


def look2_model():
    spec = fx("lookahead2")
    seeds = [pt(spec, s) for s in LOOK2_SEEDS]
    return spec, least_model(spec, seeds, UniversePolicy(max_count=50, max_size=10))


def test_lookahead2_first_iteration_by_hand():
    spec = fx("lookahead2")
    seeds = [pt(spec, s) for s in LOOK2_SEEDS]
    m0 = bottom_model(spec.kind, seeds)
    m1 = phi_step(spec, m0)
    want_tau_c = lts_value({"a": {pt(spec, "sigma(tau(c))")}})
    assert m1.behaviour[pt(spec, "tau(c)")] == want_tau_c
    assert spec.kind.is_bottom(m1.behaviour[pt(spec, "c")])
    assert spec.kind.is_bottom(m1.behaviour[pt(spec, "sigma(tau(c))")])


def test_lookahead2_converges_fast():
    spec, (model, report) = look2_model()
    assert report.converged
    assert report.iterations <= 3
    # tau terms move, sigma terms stay silent: two-step lookahead never completes
    for text in ("tau(c)", "tau(d)"):
        t = pt(spec, text)
        assert model.behaviour[t] == lts_value({"a": {App("sigma", (), (t,))}})
    for text in ("sigma(tau(c))", "sigma(tau(d))", "c", "d"):
        assert spec.kind.is_bottom(model.behaviour[pt(spec, text)])


def test_lookahead2_sigma_fires_on_a_two_step_generator():
    # same sigma rule, but a generator state that really has two a-steps ahead
    spec = fx("lookahead2")
    gen = GenCoalgebra(("gp", "gq"), {
        "gp": lts_value({"a": {"gq"}}),
        "gq": lts_value({"a": {"gq"}}),
    })
    model = lift_coalgebra(spec, gen, seeds=[App("sigma", (), (Var("gp"),))],
                           policy=UniversePolicy(max_count=30, max_size=6))
    v = model.behaviour[App("sigma", (), (Var("gp"),))]
    assert v.successors("a") == (Var("gq"),)


# --- Kleene iteration ------------------------------------------------------------------


def test_chain_grows_monotonically():
    spec = fx("transclosure")
    m = bottom_model(spec.kind, [pt(spec, "c"), pt(spec, "sigma(c)"),
                                 pt(spec, "sigma(sigma(c))")])
    for _ in range(6):
        m2 = phi_step(spec, m)
        for t in m.universe:
            assert spec.kind.leq(m.behaviour[t], m2.behaviour[t])
        m = m2


def test_empty_spec_is_all_bottom():
    spec = fx("empty")
    model, report = least_model(spec)
    assert report.converged
    assert report.iterations == 1
    assert all(spec.kind.is_bottom(v) for v in model.behaviour.values())


def test_bad_axiom_stops_every_run():
    # the axiom for d concludes a label outside the domain: the engine runs no
    # rule of the spec, whatever the seeds
    spec = parse_spec("behaviour lts labels a\nops c/0, d/0\n"
                      "rule r : |- d -1-> c\nrule s : |- c -a-> c\n")
    assert ([r.name for r in spec.rules], spec.facts) == (["r"], (("c", "a", "c"),))
    for seeds in ([App("c")], [App("d")], None):
        with pytest.raises(InvalidSpecError,
                           match="^rule r: conclusion: label literal 1 not in label set$"):
            least_model(spec, seeds)


# Unbound variables, arithmetic over a finite alphabet, a literal outside it.
INVALID = """behaviour lts labels a, b
ops c/0, f/1, g/1[1]
rule r : x -m-> w |- f(x) -a-> y
rule s : x -a-> y |- g[p](x) -p+1-> g[q](z)
rule t : |- c -1-> c
"""


def test_an_invalid_spec_runs_no_rule(monkeypatch):
    compiled = []
    monkeypatch.setattr(engine, "_compile_rule", lambda kind, rule: compiled.append(rule))
    spec = parse_spec(INVALID)
    diagnostics = validate_spec(spec)
    assert len(diagnostics) >= 6
    with pytest.raises(NonMonotoneError):  # refused before any rule runs
        least_model(parse_spec(INVALID + "rule n : x -a-/-> |- f(x) -a-> x\n"))
    gen = GenCoalgebra(("v",), {"v": lts_value({"a": ["v"]})})
    for run in (lambda: least_model(spec),
                lambda: phi_step(spec, bottom_model(spec.kind, [App("c")])),
                lambda: lift_coalgebra(spec, gen, [pt(spec, "f(v)")])):
        with pytest.raises(InvalidSpecError) as got:
            run()
        assert got.value.diagnostics == diagnostics
        assert str(got.value) == "; ".join(map(str, diagnostics))
        assert got.value.exit_code == 2
    assert compiled == [] and spec.join_plan is None
    # with no rule to apply, nothing is checked
    assert phi_step(spec, bottom_model(spec.kind, ())).universe == ()


# --- ground facts -------------------------------------------------------------------
#
# Lines that parse_spec recognises as facts are stored as (head, label, target)
# entries and never compiled.  The same facts rebuilt as rules in a Spec built
# directly take the general path, which is the reference the fact path must
# agree with.


def _outcome(spec, seed_texts=(), force=False):
    seeds = [App(c) for c in spec.sig.constants()] + [pt(spec, s) for s in seed_texts]
    try:
        model, report = least_model(spec, seeds, UniversePolicy(max_count=30, max_size=6),
                                    force=force)
    except BigsosError as exc:  # the reference must raise the same error
        return type(exc), str(exc)
    return (model.universe, dict(model.behaviour), model.frontier, model.tainted,
            report.to_json())


def test_fact_path_matches_the_compiled_path():
    cases = [(fixture_text(name), ()) for name in
             ("factstream", "lookahead2", "transclosure", "wchain", "empty", "explicit")]
    cases += [(random_monotone_lts_text(random.Random(seed)), ("u(c)",)) for seed in range(40)]
    rng = random.Random(7)
    cases += [(random_ground_lts_text(rng), ("f(s0)",)) for _ in range(60)]
    header = FACT_HEADER + "rule q : |- c -b-> d\n"  # each shape beside a fact for c
    cases += [(header + line + "\n", ()) for line, _ in FACT_SHAPES]
    facts, fast = 0, []
    for text, seeds in cases:
        spec = parse_spec(text)
        facts += len(spec.facts)
        fast.append(_outcome(spec, seeds))
        rebuilt = Spec(spec.kind, spec.sig, spec.rules + fact_rules(spec))
        assert fast[-1] == _outcome(rebuilt, seeds), text
    assert facts > 500
    assert sum(isinstance(o[0], type) for o in fast) >= 2  # the error outcomes ran


def assert_rebuilt_facts_agree(text):
    """The least model of text's spec is that of the spec with its facts
    rebuilt as rules."""
    spec = parse_spec(text)
    rebuilt = Spec(spec.kind, spec.sig, spec.rules + fact_rules(spec))
    force = not check_monotone(spec).monotone
    assert least_model(spec, force=force) == least_model(rebuilt, force=force), text


@pytest.mark.parametrize("name", ("empty", "explicit", "factstream", "lookahead2", "negloop",
                                  "transclosure", "wchain"))
def test_facts_rebuilt_as_rules_give_the_same_least_model(name):
    assert_rebuilt_facts_agree(fixture_text(name))


def test_facts_rebuilt_as_rules_give_the_same_least_model_on_generated_specs():
    for seed in range(50):
        assert_rebuilt_facts_agree(random_monotone_lts_text(random.Random(seed)))
        assert_rebuilt_facts_agree(random_ground_lts_text(random.Random(seed)))


def test_a_fact_the_tokenizer_reads_compiles_to_the_same_move():
    # non-ASCII names fail the recogniser's pattern, so the rule is no fact
    spec = parse_spec("behaviour lts labels a\nops c\u00e9/0, d/0\nrule r : |- c\u00e9 -a-> d\n")
    assert (len(spec.rules), spec.facts) == (1, ())
    model, _ = least_model(spec, [App("c\u00e9")])
    assert model.behaviour[App("c\u00e9")] == lts_value({"a": [App("d")]})


def test_conflicting_stream_facts_keep_the_error_text():
    spec = parse_spec("behaviour stream nat\nops c/0, d/0\n"
                      "rule a : |- c -1-> c\nrule b : |- c -2-> d\n")
    assert (spec.rules, spec.facts) == ((), (("c", 1, "c"), ("c", 2, "d")))
    with pytest.raises(InconsistentStreamError) as got:
        least_model(spec, [App("c")])
    assert str(got.value) == "c: inconsistent stream step: (1, c), (2, d)"


def test_ground_axiom_specs_compile_no_rule(monkeypatch):
    compiled = []

    def counting_compile(kind, rule):
        compiled.append(rule.name)
        return compile_rule(kind, rule)

    compile_rule = engine._compile_rule
    monkeypatch.setattr(engine, "_compile_rule", counting_compile)
    rng = random.Random(1)
    lines = ["behaviour lts labels a, b", "ops " + ", ".join(f"s{i}/0" for i in range(40))]
    lines += [f"rule r{i} : |- s{rng.randrange(40)} -{rng.choice('ab')}-> s{rng.randrange(40)}"
              for i in range(140)]
    model, report = least_model(parse_spec("\n".join(lines) + "\n"))
    assert report.converged and len(model.universe) == 40
    assert compiled == []
    # a closed compound target is not a fact
    lines[1] += ", f/1"
    lines.append("rule g : |- s0 -a-> f(s1)")
    least_model(parse_spec("\n".join(lines) + "\n"))
    assert compiled == ["g"]


def test_negloop_refused_then_forced():
    spec = fx("negloop")
    with pytest.raises(NonMonotoneError):
        least_model(spec)
    model, report = least_model(spec, force=True, max_iters=50)
    assert not report.converged
    assert report.oscillation_detected
    assert report.iterations <= 10


def test_max_iters_bounds_work():
    spec = fx("lookahead2")
    seeds = [pt(spec, s) for s in LOOK2_SEEDS]
    model, report = least_model(spec, seeds, max_iters=1)
    assert not report.converged
    assert report.iterations == 1
    with pytest.raises(ValueError):
        least_model(spec, seeds, max_iters=0)


# --- universe management ---------------------------------------------------------------


def test_universe_growth_promotes_targets():
    spec = fx("factstream")
    model, report = least_model(spec, [pt(spec, "pos")],
                                UniversePolicy(max_count=30, max_size=8))
    assert report.converged
    # pos -1-> oplus(ones, pos) forces the target into the universe
    assert pt(spec, "oplus(ones, pos)") in model.universe
    assert pt(spec, "ones") in model.universe


def test_no_growth_leaves_frontier():
    spec = fx("transclosure")
    policy = UniversePolicy(max_count=10, max_size=0)
    model, report = least_model(spec, [pt(spec, "sigma(c)")], policy)
    assert report.converged
    assert set(model.universe) == {pt(spec, "c"), pt(spec, "sigma(c)")}
    assert pt(spec, "sigma(sigma(c))") in model.frontier


def test_frontier_terms_step_to_bottom():
    spec = fx("transclosure")
    policy = UniversePolicy(max_count=10, max_size=0)
    model, _ = least_model(spec, [pt(spec, "sigma(c)")], policy)
    ghost = pt(spec, "sigma(sigma(c))")
    assert spec.kind.is_bottom(model.step(ghost))
    with pytest.raises(UnknownStateError):
        model.step(pt(spec, "sigma(sigma(sigma(c)))"))


# --- taint -------------------------------------------------------------------------------


def test_truncation_taints_consumers():
    spec = fx("transclosure")
    policy = UniversePolicy(max_count=10, max_size=0)
    model, _ = least_model(spec, [pt(spec, "sigma(c)")], policy)
    # chain3 walks through the frontier, so sigma(c)'s value may under-report
    assert pt(spec, "sigma(c)") in model.tainted
    assert pt(spec, "c") not in model.tainted


def test_genuine_bottom_is_not_tainted():
    spec = fx("factstream")
    model, report = least_model(spec, [pt(spec, "c"), pt(spec, "sigma(c)")],
                                UniversePolicy(max_count=400, max_size=16))
    assert report.converged
    # sigma(c) is semantically bottom: its lookahead never completes
    assert spec.kind.is_bottom(model.behaviour[pt(spec, "sigma(c)")])
    assert pt(spec, "sigma(c)") not in model.tainted


def test_unfold_marks_taint_opaque():
    spec = fx("transclosure")
    policy = UniversePolicy(max_count=10, max_size=0)
    model, _ = least_model(spec, [pt(spec, "sigma(c)")], policy)
    root, *kids = unfold(model, pt(spec, "sigma(c)"), 1)
    assert root[3] == pt(spec, "sigma(c)") and root[4]
    assert all(level == 1 for level, *_ in kids)


# --- unfoldings --------------------------------------------------------------------------


def factstream_model():
    spec = fx("factstream")
    seeds = [pt(spec, s) for s in ("c", "pos", "sigma(pos)")]
    model, report = least_model(spec, seeds, UniversePolicy(max_count=400, max_size=16))
    assert report.converged
    return spec, model


def test_factstream_unfoldings():
    # a stream unfolds to one path: one row per level, each labelled by its step
    spec, model = factstream_model()
    rows = unfold(model, pt(spec, "sigma(pos)"), 3)
    assert [(level, lab, w) for level, lab, w, _, _ in rows] == [
        (0, None, None), (1, 1, 1), (2, 6, 1), (3, 120, 1)]
    assert [lab for _, lab, _, _, _ in unfold(model, pt(spec, "pos"), 5)[1:]] == [1, 2, 3, 4, 5]
    # c steps once, to a bottom term, whose row has no successor rows
    rows = unfold(model, pt(spec, "c"), 2)
    assert [(level, lab) for level, lab, _, _, _ in rows] == [(0, None), (1, 1)]
    assert spec.kind.is_bottom(model.step(rows[1][3]))


def test_unfold_depth_zero_has_no_step():
    spec, model = factstream_model()
    assert unfold(model, pt(spec, "pos"), 0) == [(0, None, None, pt(spec, "pos"), False)]
    with pytest.raises(ValueError):
        unfold(model, pt(spec, "pos"), -1)


def test_unfold_rows_are_the_model_moves_in_preorder():
    # each row above the depth is followed by one subtree per move, in moves order
    _, (lmodel, _) = look2_model()
    wspec = fx("wchain")
    wmodel, _ = least_model(wspec, [pt(wspec, "f(f(c))")])
    for model, t in ((m, t) for m in (lmodel, wmodel) for t in m.carrier()):
        rows = unfold(model, t, 3)
        assert rows[0][:3] == (0, None, None) and rows[0][3] == t
        pos = 0

        def subtree(level):
            nonlocal pos
            _, _, _, s, opaque = rows[pos]
            assert opaque == (s in model.frontier or s in model.tainted)
            pos += 1
            if level < 3:
                for lab, target, w in model.kind.moves(model.step(s)):
                    assert rows[pos][:4] == (level + 1, lab, w, target)
                    subtree(level + 1)

        subtree(0)
        assert pos == len(rows)


# --- generator coalgebras ------------------------------------------------------------------


def lts_kind():
    return CountableLTS(frozenset({"a"}))


def test_gen_validate_rejects_bad_shapes():
    kind = lts_kind()
    sig = fx("lookahead2").sig
    ok = GenCoalgebra(("gx",), {"gx": lts_value({"a": {"gx"}})})
    ok.validate(kind, sig)
    with pytest.raises(ValueError, match="duplicate"):
        GenCoalgebra(("gx", "gx"), {"gx": lts_value({})}).validate(kind, sig)
    with pytest.raises(ValueError, match="collides"):
        GenCoalgebra(("sigma",), {"sigma": lts_value({})}).validate(kind, sig)
    with pytest.raises(ValueError, match="missing"):
        GenCoalgebra(("gx",), {}).validate(kind, sig)
    with pytest.raises(ValueError, match="unknown state"):
        GenCoalgebra(("gx",), {"gx": lts_value({"a": {"gy"}})}).validate(kind, sig)
    with pytest.raises(ValueError, match="label"):
        GenCoalgebra(("gx",), {"gx": lts_value({"b": {"gx"}})}).validate(kind, sig)


def test_gen_to_model_wraps_states():
    kind = lts_kind()
    gen = GenCoalgebra(("gx",), {"gx": lts_value({"a": {"gx"}})})
    model = gen_to_model(kind, gen)
    assert model.universe == (Var("gx"),)
    assert model.behaviour[Var("gx")] == lts_value({"a": {Var("gx")}})


def test_lift_coalgebra_single_state():
    spec = fx("transclosure")
    gen = GenCoalgebra(("gx",), {"gx": lts_value({"a": {"gx"}})})
    seed = App("sigma", (), (Var("gx"),))
    model = lift_coalgebra(spec, gen, seeds=[seed],
                           policy=UniversePolicy(max_count=25, max_size=6))
    assert Var("gx") in model.universe
    # unfold axiom fires over the opaque state
    assert App("sigma", (), (seed,)) in model.behaviour[seed].successors("a")


# --- serialization ---------------------------------------------------------------------


def test_model_json_shape():
    spec, (model, report) = look2_model()
    doc = model_to_json(model, report)
    assert sorted(doc) == ["behaviour", "frontier", "report", "universe"]
    assert doc["report"] == report.to_json()
    assert doc["universe"] == [print_term(t) for t in model.universe]
    assert model_to_json(model)["report"] == {}


def test_report_json_roundtrip():
    rep = ConvergenceReport(4, True, False, 2)
    assert rep.to_json() == {"iterations": 4, "converged": True,
                             "oscillation_detected": False, "frontier_size": 2}


def test_dot_is_lts_only():
    spec, (model, _) = look2_model()
    dot = model_to_dot(model)
    assert dot.startswith("digraph model {")
    assert '->' in dot
    stream_spec = fx("factstream")
    smodel, _ = least_model(stream_spec, [pt(stream_spec, "ones")],
                            UniversePolicy(max_count=10, max_size=4))
    with pytest.raises(ValueError):
        model_to_dot(smodel)


def test_unfold_json_shapes():
    spec, model = factstream_model()
    c = pt(spec, "c")
    doc = unfold_to_json(model, unfold(model, c, 2), 2)
    assert doc["term"] == "c"
    assert doc["step"]["label"] == 1
    assert doc["step"]["next"]["depth"] == 1
    assert doc["step"]["next"]["step"] is None  # bottom
    assert unfold_to_json(model, unfold(model, c, 0), 0) == {"term": "c", "depth": 0,
                                                              "step": None}

    lspec, (lmodel, _) = look2_model()
    tau = pt(lspec, "tau(c)")
    ldoc = unfold_to_json(lmodel, unfold(lmodel, tau, 1), 1)
    assert list(ldoc["step"]) == ["a"]
    assert [kid["term"] for kid in ldoc["step"]["a"]] == [
        print_term(s) for s in lmodel.step(tau).successors("a")]

    # weighted steps list {"weight", "next"} rows, since subtrees cannot be keys
    wspec = fx("wchain")
    wmodel, _ = least_model(wspec, [pt(wspec, "f(c)")])
    wdoc = unfold_to_json(wmodel, unfold(wmodel, pt(wspec, "f(c)"), 2), 2)
    assert wdoc["step"] == {"b": [{"weight": 1.0,
                                   "next": {"term": "f(d)", "depth": 1, "step": {}}}]}
