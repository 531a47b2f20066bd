"""Engine: rule application, Kleene iteration, unfoldings, serialization."""

import random

import pytest

from bigsos import engine, speclang
from bigsos.behaviour import (BOTTOM, CountableLTS, LtsValue, PartialStream,
                              StreamStep, WtsValue)
from bigsos.engine import (ConvergenceReport, GenCoalgebra, Model, gen_to_model,
                           least_model, lift_coalgebra, model_to_dot, model_to_json,
                           phi_step, unfold, unfold_to_json)
from bigsos.errors import (BigsosError, InconsistentStreamError, LabelEvalError,
                           NonMonotoneError, UnknownStateError)
from bigsos.relations import default_generators
from bigsos.speclang import (LabelLit, LabelVar, Positive, check_monotone, ground_fact,
                             parse_spec, validate_spec)
from bigsos.terms import (App, UniversePolicy, Var, parse_term, print_term,
                          substitute, subterms, term_key, term_size)
from conftest import eval_label, fixture_text, instantiate_template
from spec_gen import (FACT_HEADER, FACT_SHAPES, UNIVERSE_TEXTS, random_ground_lts_text,
                      random_monotone_lts_spec, random_monotone_lts_text)


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
    for rule in spec.rules:
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
        return LtsValue.make(grouped)
    return WtsValue.make({lab: dict.fromkeys(targets, 1.0)
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
            beh = {t: LtsValue.make({"a": {s for s in universe if rng.random() < 0.5}})
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

# Unvalidated rules whose conclusions raise: arithmetic over a non-natural
# label, a label outside the domain, a parameter from a non-natural label, an
# unbound label or term variable, and two errors at once (the first to be
# raised wins).
CONCLUSION_ERRORS = """behaviour lts labels a, b
ops c/0, f/1, g/1[1], h/2
rule arith : x -l-> y |- f(x) -l+1-> y
rule domain : x -l-> y |- f(x) -1-> y
rule param : x -l-> y |- f(x) -a-> g[l](y)
rule free : x -a-> y |- f(x) -m-> y
rule unbound : x -l-> y |- f(x) -a-> h(y, z)
rule order : x -l-> y |- f(x) -a-> h(z, g[l](y))
rule first : x -l-> y |- f(x) -l*2-> g[l](z)
"""


def reference_conclusion(kind, rule, labels, terms):
    lab = eval_label(rule.concl_label, labels)
    if not kind.has_label(lab):
        raise LabelEvalError(
            f"rule {rule.name}: conclusion label {lab!r} outside the label domain")
    return lab, substitute(instantiate_template(rule.concl_target, labels), terms), 1


def outcome(thunk):
    try:
        return thunk()
    except BigsosError as exc:
        return type(exc), str(exc)


def test_compiled_conclusions_match_the_reference_evaluators():
    """Every rule's compiled conclusion, over random layouts and environments,
    gives the reference's pair or raises its error with the same message."""
    texts = [fixture_text(name) for name in ("empty", "explicit", "factstream", "lookahead2",
                                             "negloop", "transclosure", "wchain")]
    texts += [SHARED_LABELS, HEAD_PARAMS, CONCLUSION_ERRORS]
    rng = random.Random(3)
    pool = (App("c"), App("d", (), (App("c"),)), Var("gx"))
    label_values = (0, 1, 2, 3, 5, "a", "b")
    seen = set()
    for text in texts:
        spec = parse_spec(text)
        for rule in spec.rules:
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
                env = tuple(rng.choice(pool) if tag == "t" else rng.choice(label_values)
                            for tag, _ in layout)
                names = {tag: {name: v for (t, name), v in zip(layout, env) if t == tag}
                         for tag in "tl"}
                conclude = engine._compile_conclusion(spec.kind, rule, tuple(layout))
                got = outcome(lambda: conclude(env))
                want = outcome(lambda: reference_conclusion(spec.kind, rule, names["l"],
                                                            names["t"]))
                assert got == want, (rule.name, layout, env)
                seen.add(got[1] if isinstance(got[0], type) else "pair")
    assert {"pair", "label arithmetic over non-natural labels",
            "rule domain: conclusion label 1 outside the label domain",
            "operator parameter evaluated to 'a', expected a natural",
            "no binding for label variable 'm'", "no binding for variable 'z'"} <= seen


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
    """least_model equals the naive loop, and so does every shorter run if sweep."""
    want = naive_least_model(spec, seeds, policy, max_iters, force, gen)
    got = least_model(spec, seeds, policy, max_iters, force=force, gen=gen)
    assert got == want, (got[1], want[1])
    assert got[0].universe == want[0].universe
    if sweep:
        for k in range(1, want[1].iterations):
            assert (least_model(spec, seeds, policy, k, force=force, gen=gen)
                    == naive_least_model(spec, seeds, policy, k, force, gen)), k
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
    leaving the frontier included."""
    seen = set()
    for name in SEMINAIVE_CASES:
        spec, seeds, policy, force = seminaive_case(name)
        model, report = least_model(spec, seeds, policy, 200, force=force)
        start = {s for seed in seeds for s in subterms(seed)}
        seen |= {"tainted"} if model.tainted else set()
        seen |= {"frontier"} if model.frontier else set()
        seen |= {"promoted"} if len(model.universe) > len(start) else set()
        seen |= {"oscillation"} if report.oscillation_detected else set()
        seen |= {"unconverged"} if not report.converged else set()
        if name != "factstream-sized":
            frontiers = [least_model(spec, seeds, policy, k, force=force)[0].frontier
                         for k in range(1, report.iterations + 1)]
            if any(f - g - set(model.universe) for f, g in zip(frontiers, frontiers[1:])):
                seen.add("left-frontier")
    assert seen == {"tainted", "frontier", "promoted", "oscillation", "unconverged",
                    "left-frontier"}


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
    want_tau_c = LtsValue.make({"a": {pt(spec, "sigma(tau(c))")}})
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
        assert model.behaviour[t] == LtsValue.make({"a": {App("sigma", (), (t,))}})
    for text in ("sigma(tau(c))", "sigma(tau(d))", "c", "d"):
        assert spec.kind.is_bottom(model.behaviour[pt(spec, text)])


def test_lookahead2_sigma_fires_on_a_two_step_generator():
    # same sigma rule, but a generator state that really has two a-steps ahead
    spec = fx("lookahead2")
    gen = GenCoalgebra(("gp", "gq"), {
        "gp": LtsValue.make({"a": {"gq"}}),
        "gq": LtsValue.make({"a": {"gq"}}),
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


def test_bad_axiom_fails_only_when_it_fires():
    # an unvalidated spec: the axiom for d concludes a label outside the domain
    spec = parse_spec("behaviour lts labels a\nops c/0, d/0\n"
                      "rule r : |- d -1-> c\nrule s : |- c -a-> c\n")
    assert [ground_fact(r, spec.kind, spec.sig) for r in spec.rules] == [None, ("a", "c")]
    model, report = least_model(spec, [App("c")])
    assert report.converged and list(model.universe) == [App("c")]
    with pytest.raises(LabelEvalError,
                       match="^rule r: conclusion label 1 outside the label domain$"):
        least_model(spec, [App("d")])


# --- ground facts -------------------------------------------------------------------
#
# Rules that speclang.ground_fact accepts are stored as (label, target) pairs and
# never compiled.  With ground_fact patched to accept nothing, every rule takes
# the general path, which is the reference the fact path must agree with.


def _outcome(text, seed_texts=()):
    spec = parse_spec(text)
    seeds = [App(c) for c in spec.sig.constants()] + [pt(spec, s) for s in seed_texts]
    try:
        model, report = least_model(spec, seeds, UniversePolicy(max_count=30, max_size=6))
    except BigsosError as exc:  # the reference must raise the same error
        return type(exc), str(exc)
    return (model.universe, dict(model.behaviour), model.frontier, model.tainted,
            report.to_json())


def test_fact_path_matches_the_compiled_path(monkeypatch):
    cases = [(fixture_text(name), ()) for name in
             ("factstream", "lookahead2", "transclosure", "wchain", "empty", "explicit")]
    cases += [(random_monotone_lts_text(random.Random(seed)), ("u(c)",)) for seed in range(40)]
    rng = random.Random(7)
    cases += [(random_ground_lts_text(rng), ("f(s0)",)) for _ in range(60)]
    header = FACT_HEADER + "rule q : |- c -b-> d\n"  # each shape beside a fact for c
    cases += [(header + line + "\n", ()) for line, _ in FACT_SHAPES]
    fast = [_outcome(text, seeds) for text, seeds in cases]
    facts = sum(ground_fact(r, spec.kind, spec.sig) is not None
                for spec in (parse_spec(text) for text, _ in cases) for r in spec.rules)
    monkeypatch.setattr(speclang, "ground_fact", lambda rule, kind, sig: None)
    assert [_outcome(text, seeds) for text, seeds in cases] == fast
    assert facts > 500
    assert sum(isinstance(o[0], type) for o in fast) >= 2  # the error outcomes ran


def test_each_rule_is_classified_once(monkeypatch):
    classified = []

    def counting_ground_fact(rule, kind, sig):
        classified.append(rule.name)
        return ground_fact(rule, kind, sig)

    monkeypatch.setattr(speclang, "ground_fact", counting_ground_fact)
    texts = [fixture_text(name) for name in ("explicit", "transclosure", "factstream")]
    texts += [random_ground_lts_text(random.Random(seed)) for seed in range(3)]
    for text in texts:
        spec = parse_spec(text)
        assert validate_spec(spec) == validate_spec(spec) == []
        least_model(spec, [App(c) for c in spec.sig.constants()],
                    UniversePolicy(max_count=30, max_size=6))
        assert sorted(classified) == sorted(r.name for r in spec.rules)
        classified.clear()


def test_conflicting_stream_facts_keep_the_error_text():
    spec = parse_spec("behaviour stream nat\nops c/0, d/0\n"
                      "rule a : |- c -1-> c\nrule b : |- c -2-> d\n")
    assert [ground_fact(r, spec.kind, spec.sig) for r in spec.rules] == [
        (1, "c"), (2, "d")]
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
    ok = GenCoalgebra(("gx",), {"gx": LtsValue.make({"a": {"gx"}})})
    ok.validate(kind, sig)
    with pytest.raises(ValueError, match="duplicate"):
        GenCoalgebra(("gx", "gx"), {"gx": LtsValue.make({})}).validate(kind, sig)
    with pytest.raises(ValueError, match="collides"):
        GenCoalgebra(("sigma",), {"sigma": LtsValue.make({})}).validate(kind, sig)
    with pytest.raises(ValueError, match="missing"):
        GenCoalgebra(("gx",), {}).validate(kind, sig)
    with pytest.raises(ValueError, match="unknown state"):
        GenCoalgebra(("gx",), {"gx": LtsValue.make({"a": {"gy"}})}).validate(kind, sig)
    with pytest.raises(ValueError, match="label"):
        GenCoalgebra(("gx",), {"gx": LtsValue.make({"b": {"gx"}})}).validate(kind, sig)


def test_gen_to_model_wraps_states():
    kind = lts_kind()
    gen = GenCoalgebra(("gx",), {"gx": LtsValue.make({"a": {"gx"}})})
    model = gen_to_model(kind, gen)
    assert model.universe == (Var("gx"),)
    assert model.behaviour[Var("gx")] == LtsValue.make({"a": {Var("gx")}})


def test_lift_coalgebra_single_state():
    spec = fx("transclosure")
    gen = GenCoalgebra(("gx",), {"gx": LtsValue.make({"a": {"gx"}})})
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
