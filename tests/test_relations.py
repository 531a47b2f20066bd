"""Relations: simulation, bisimilarity, congruence, law suite."""

import copy
import io
import itertools
import pickle
import random

import pytest

from bigsos import cli, relations
from bigsos.behaviour import (BOTTOM, CountableLTS, PartialStream, Relation, StreamStep,
                              WeightedLTS)
from bigsos.engine import (GenCoalgebra, Model, gen_to_model, least_model, lift_coalgebra,
                           phi_step)
from bigsos.errors import (BigsosError, CarrierMismatchError, NonConvergenceError,
                           UnknownStateError)
from bigsos.relations import (LAW_POLICY, CongruenceReport, CongruenceViolation,
                              EquivResult, _lift_seeds, _square,
                              bisimilarity_classes, check_equivalence,
                              congruence_test, default_generators,
                              depth_similarity, distinguishing_depth,
                              doubled_lift, greatest_simulation, is_homomorphism,
                              law_flatten_hom, law_hom_preserves_similarity,
                              law_pointwise_unfolding, law_suite, law_term_map_hom,
                              law_unit_hom, suite_to_json)
from bigsos.speclang import parse_spec
from bigsos.terms import App, UniversePolicy, Var, parse_term, print_term, term_key
from conftest import fixture_path, fixture_text, lts_value, unfold_tree, wts_value
from spec_gen import UNIVERSE_TEXTS, random_monotone_lts_spec
from test_cli_golden import SMALL_CAPS, TERMS


def fx(name):
    return parse_spec(fixture_text(name))


def pt(spec, text):
    return parse_term(text, spec.sig)


LOOK2_SEEDS = ("c", "d", "tau(c)", "tau(d)", "sigma(tau(c))", "sigma(tau(d))")


def look2_model():
    spec = fx("lookahead2")
    seeds = [pt(spec, s) for s in LOOK2_SEEDS]
    model, report = least_model(spec, seeds, UniversePolicy(max_count=50, max_size=10))
    assert report.converged
    return spec, model


def tiny_model(name, seed_text):
    spec = fx(name)
    policy = UniversePolicy(max_count=12, max_size=0)
    model, _ = least_model(spec, [pt(spec, seed_text)], policy)
    return spec, model


# --- greatest simulation vs brute force ------------------------------------------------


def brute_greatest_simulation(kind, m1, m2):
    """Union of every relation that is a simulation; exponential, tiny inputs only."""
    pairs = tuple(itertools.product(m1.carrier(), m2.carrier()))
    best = set()
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = frozenset(p for p, keep in zip(pairs, bits) if keep)
        if all(kind.rel_lift(rel, m1.step(s), m2.step(t)) for s, t in rel):
            best |= rel
    return frozenset(best)


@pytest.mark.parametrize("name,seed", [("lookahead2", "tau(c)"),
                                       ("transclosure", "sigma(c)")])
def test_greatest_simulation_matches_brute_force(name, seed):
    spec, model = tiny_model(name, seed)
    assert len(model.carrier()) <= 4  # keeps 2^(n*n) tractable
    sim = greatest_simulation(model, model)
    assert sim.pairs == brute_greatest_simulation(spec.kind, model, model)


def test_greatest_simulation_is_reflexive_on_one_model():
    _, model = look2_model()
    sim = greatest_simulation(model, model)
    for s in model.carrier():
        assert (s, s) in sim


def test_greatest_simulation_kind_mismatch():
    _, model1 = look2_model()
    spec2 = fx("wchain")
    model2, _ = least_model(spec2, policy=UniversePolicy(max_count=10, max_size=4))
    with pytest.raises(CarrierMismatchError):
        greatest_simulation(model1, model2)


def test_greatest_simulation_rejects_a_successor_outside_the_carrier():
    kind = CountableLTS(frozenset({"a"}))
    gx = Var("gx")
    model = Model(kind, (gx,), {gx: lts_value({"a": {Var("gy")}})}, frozenset())
    with pytest.raises(UnknownStateError, match="gy is outside the carrier"):
        greatest_simulation(model, model)


# --- bisimilarity classes ---------------------------------------------------------------


def test_lookahead2_classes():
    spec, model = look2_model()
    classes = bisimilarity_classes(model)
    by_term = {t: i for i, cl in enumerate(classes) for t in cl}
    c, d = pt(spec, "c"), pt(spec, "d")
    sc, sd = pt(spec, "sigma(tau(c))"), pt(spec, "sigma(tau(d))")
    tc, td = pt(spec, "tau(c)"), pt(spec, "tau(d)")
    assert by_term[c] == by_term[d]
    assert by_term[sc] == by_term[sd]
    assert by_term[tc] == by_term[td]
    assert by_term[tc] != by_term[c]


def test_classes_partition_carrier():
    _, model = look2_model()
    classes = bisimilarity_classes(model)
    flat = [t for cl in classes for t in cl]
    assert sorted(map(str, flat)) == sorted(map(str, model.carrier()))
    assert len(flat) == len(set(flat))


def test_classes_refine_mutual_similarity():
    _, model = look2_model()
    sim = greatest_simulation(model, model)
    for cl in bisimilarity_classes(model):
        for s, t in itertools.product(cl, cl):
            assert (s, t) in sim and (t, s) in sim


# --- depth-bounded similarity -------------------------------------------------------------


def factstream_model():
    spec = fx("factstream")
    seeds = [pt(spec, s) for s in ("c", "pos", "sigma(pos)")]
    model, report = least_model(spec, seeds, UniversePolicy(max_count=400, max_size=16))
    assert report.converged
    return spec, model


def test_depth_zero_is_vacuous():
    spec, model = factstream_model()
    c, pos = pt(spec, "c"), pt(spec, "pos")
    assert depth_similarity(model, c, model, pos, 0)
    assert depth_similarity(model, pos, model, c, 0)


def test_stream_prefix_similarity():
    # different roots: drop the node-label requirement, compare behaviour only
    spec, model = factstream_model()
    c, pos = pt(spec, "c"), pt(spec, "pos")
    # c emits 1 then bottoms out, pos emits 1 2: bottom pads below anything
    assert depth_similarity(model, c, model, pos, 2, require_labels=False)
    assert not depth_similarity(model, pos, model, c, 2, require_labels=False)


def test_depth_similarity_compares_transition_labels():
    spec, model = factstream_model()
    pos, fact = pt(spec, "pos"), pt(spec, "sigma(pos)")
    # 1,2 vs 1,6 diverge at the second emitted label
    assert not depth_similarity(model, pos, model, fact, 2, require_labels=False)
    assert depth_similarity(model, pos, model, fact, 1, require_labels=False)


def test_depth_similarity_requires_equal_roots_by_default():
    spec, model = factstream_model()
    c, pos = pt(spec, "c"), pt(spec, "pos")
    assert not depth_similarity(model, c, model, pos, 1)
    assert depth_similarity(model, c, model, c, 1)


def test_depth_similarity_rejects_a_negative_depth():
    spec, model = factstream_model()
    pos = pt(spec, "pos")
    with pytest.raises(ValueError, match="natural"):
        depth_similarity(model, pos, model, pos, -1)


def test_depth_similarity_rejects_unknown_terms_and_mixed_kinds():
    spec, model = factstream_model()
    with pytest.raises(UnknownStateError):
        depth_similarity(model, pt(spec, "pos"), model, Var("x"), 0)
    _, lts = look2_model()
    with pytest.raises(CarrierMismatchError):
        depth_similarity(model, pt(spec, "pos"), lts, lts.universe[0], 1)


def tree_depth_similarity(kind, u1, u2, depth, require_labels=True):
    """Depth-bounded similarity read off unfolding trees (conftest.unfold_tree),
    as it was defined before it read models: an oracle that shares only
    rel_lift with it."""
    if depth > u1.depth or depth > u2.depth:
        raise ValueError("depth exceeds a recorded tree depth")
    if depth == 0:
        return True
    if require_labels and u1.root != u2.root:
        return False
    related = frozenset((a, b) for a in kind.states(u1.step) for b in kind.states(u2.step)
                        if tree_depth_similarity(kind, a, b, depth - 1, require_labels))
    return kind.rel_lift(related, u1.step, u2.step)


def test_depth_similarity_matches_the_tree_oracle():
    seen = set()
    for name, model in itertools.chain(fixture_models(), spec_gen_models(15)):
        pairs = list(itertools.product(model.carrier(), repeat=2))
        pairs = random.Random(name).sample(pairs, min(len(pairs), 50))
        for depth in range(4):
            trees = {s: unfold_tree(model, s, depth) for p in pairs for s in p}
            for s, t in pairs:
                for labels in (True, False):
                    want = tree_depth_similarity(model.kind, trees[s], trees[t],
                                                 depth, labels)
                    got = depth_similarity(model, s, model, t, depth, labels)
                    assert got == want, (name, s, t, depth, labels)
                    seen.add((depth, labels, got))
    assert seen == {(0, labels, True) for labels in (True, False)} | {
        (d, labels, got) for d in (1, 2, 3) for labels in (True, False)
        for got in (True, False)}


def test_depth_similarity_decides_deep_levels_without_recursion():
    # wchain's verdicts settle by depth 5, so depth 2000 must give the tree
    # oracle's depth-6 answer; the levels are decided by a loop, not by one
    # stack frame each
    spec, model = wchain_model()
    c = pt(spec, "c")
    assert depth_similarity(model, c, model, c, 2000)
    for s, t in itertools.product(model.carrier(), repeat=2):
        for labels in (True, False):
            tree = [tree_depth_similarity(model.kind, unfold_tree(model, s, d),
                                          unfold_tree(model, t, d), d, labels)
                    for d in (5, 6)]
            assert tree[0] == tree[1] == depth_similarity(model, s, model, t, 2000, labels)


# --- check_equivalence and distinguishing depth ---------------------------------------------


def test_equiv_bisim_positive():
    spec, model = look2_model()
    res = check_equivalence(model, pt(spec, "tau(c)"), pt(spec, "tau(d)"))
    assert res.related
    assert isinstance(res.witness, Relation)
    assert (pt(spec, "tau(c)"), pt(spec, "tau(d)")) in res.witness
    doc = res.to_json()
    assert doc["related"] is True
    assert ["c", "c"] in doc["witness"]["pairs"]


def witness_pairs_oracle(rel):
    """EquivResult.to_json's pairs as first defined: every pair printed, then
    one sort."""
    return sorted([print_term(s), print_term(t)] for s, t in rel.pairs)


def dense_lts_model(rng, n):
    """The least model of n constants: s0, s1 and s2 move on a and b to
    each of them, and every other state to one or two of them, but on a
    quarter of its labels not at all.  s0-s2 simulate every state, and s
    is simulated by t when t moves on every label s moves on, so the
    greatest simulation holds about two thirds of all pairs."""
    lines = ["behaviour lts labels a, b", "ops " + ", ".join(f"s{i}/0" for i in range(n))]
    for i in range(n):
        for lab in "ab":
            if i < 3:
                targets = range(3)
            else:
                targets = rng.sample(range(3), rng.randrange(1, 3)) if rng.random() < 0.75 else ()
            lines += [f"rule r{i}{lab}{j} : |- s{i} -{lab}-> s{j}" for j in targets]
    model, report = least_model(parse_spec("\n".join(lines) + "\n"))
    assert report.converged
    return model


def test_witness_pairs_match_one_sort_of_the_printed_pairs():
    for seed in range(6):
        rng = random.Random(seed)
        model = dense_lts_model(rng, rng.randrange(30, 51))
        s = rng.choice(model.carrier())
        res = check_equivalence(model, s, s, "sim")
        assert len(res.witness.pairs) > len(model.carrier()) ** 2 // 2
        assert res.to_json()["witness"]["pairs"] == witness_pairs_oracle(res.witness)
        across = greatest_simulation(model, dense_lts_model(rng, 30))
        assert across.pairs
        assert (EquivResult(True, across).to_json()["witness"]["pairs"]
                == witness_pairs_oracle(across))


def test_witness_pairs_interleave_states_that_print_alike():
    # Var("c") and App("c") both print "c": their right names are sorted
    # together under "c", not one state's after the other's
    kind = CountableLTS(frozenset({"a"}))
    vc, ac, b, d = Var("c"), App("c"), Var("b"), App("d")
    model = Model(kind, (vc, ac, b, d), {vc: lts_value({"a": {b}}), ac: lts_value({"a": {d}}),
                                         b: lts_value({}), d: lts_value({"a": {d}})})
    rel = greatest_simulation(model, model)
    pairs = EquivResult(True, rel).to_json()["witness"]["pairs"]
    assert pairs == witness_pairs_oracle(rel)
    assert [p for p in pairs if p[0] == "c"] == [["c", "c"]] * 3 + [["c", "d"]] * 2


def random_relation(rng, left, right):
    """A relation between left and right built both ways: from rows and
    from the same pairs."""
    rows = tuple(rng.getrandbits(len(right)) if rng.random() < 0.8 else 0 for _ in left)
    pairs = [(s, t) for s, row in zip(left, rows) for j, t in enumerate(right) if row >> j & 1]
    rng.shuffle(pairs)
    return Relation(left, right, rows), Relation.from_pairs(left, right, pairs), set(pairs)


def test_relation_from_rows_and_from_pairs_agree():
    # Var("c") and App("c") print alike; the carriers differ and may overlap
    states = [Var("c"), App("c"), App("d"), Var("b"), App("e", (), (App("c"),)), App("f")]
    rng = random.Random(7)
    for _ in range(60):
        left = tuple(rng.sample(states, rng.randrange(0, len(states) + 1)))
        right = left if rng.random() < 0.3 else tuple(
            rng.sample(states, rng.randrange(0, len(states) + 1)))
        rel, built, pairs = random_relation(rng, left, right)
        assert rel == built and hash(rel) == hash(built) and len(rel) == len(pairs)
        assert bool(rel) == bool(pairs)
        for s, t in itertools.product(states, repeat=2):
            assert ((s, t) in rel) == ((s, t) in built) == ((s, t) in pairs)
        for back in (copy.copy(rel), copy.deepcopy(rel), pickle.loads(pickle.dumps(rel)), rel):
            assert back == built and back.pairs == built.pairs == pairs
        doc = EquivResult(True, built).to_json()
        assert doc == EquivResult(True, rel).to_json()
        assert doc["witness"]["pairs"] == witness_pairs_oracle(rel)


def test_related_equiv_never_builds_the_pair_set(monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(check_equivalence(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "check_equivalence", spy)
    for fmt in ("json", "text"):
        for rel in ("sim", "bisim"):
            out, err = io.StringIO(), io.StringIO()
            argv = ["equiv", fixture_path("lookahead2"), "tau(c)", "tau(d)", "--rel", rel]
            assert cli.run(argv + ["--format", fmt], out=out, err=err) == 0
            assert isinstance(seen[-1].witness, Relation)
            assert "pairs" not in vars(seen[-1].witness), (fmt, rel)
    assert len(seen) == 4


def test_equiv_bisim_negative_gives_depth():
    spec, model = look2_model()
    res = check_equivalence(model, pt(spec, "tau(c)"), pt(spec, "c"))
    assert not res.related
    assert res.witness == 1  # tau(c) moves, c cannot
    assert res.to_json() == {"related": False, "witness": 1}


def test_equiv_sim_is_one_directional():
    spec, model = look2_model()
    # c simulates into tau(c) trivially (c has no moves); not conversely
    assert check_equivalence(model, pt(spec, "c"), pt(spec, "tau(c)"), "sim").related
    assert not check_equivalence(model, pt(spec, "tau(c)"), pt(spec, "c"), "sim").related


def test_equiv_unknown_term_rejected():
    spec, model = look2_model()
    with pytest.raises(UnknownStateError):
        check_equivalence(model, pt(spec, "tau(tau(c))"), pt(spec, "c"))


def test_distinguishing_depth_none_for_equivalent():
    spec, model = look2_model()
    assert distinguishing_depth(model, pt(spec, "tau(c)"), pt(spec, "tau(d)")) is None
    assert distinguishing_depth(model, pt(spec, "tau(c)"), pt(spec, "c")) == 1


# --- congruence -------------------------------------------------------------------------


def test_lookahead2_congruence_clean():
    spec, model = look2_model()
    report = congruence_test(spec, model, samples=50, depth=3, seed=0)
    assert report.samples == 50
    assert report.checked > 0
    assert report.violations == ()


def test_congruence_deterministic():
    spec, model = look2_model()
    one = congruence_test(spec, model, samples=30, seed=5)
    two = congruence_test(spec, model, samples=30, seed=5)
    assert one == two


def silenced(spec, model, text):
    """model with text's behaviour set to bottom: a deliberately broken model."""
    beh = dict(model.behaviour)
    beh[pt(spec, text)] = spec.kind.bottom()
    return spec, Model(spec.kind, model.universe, beh, model.frontier, model.tainted)


def test_congruence_detects_a_broken_model():
    # tau(d) silenced: no longer bisimilar to tau(c)
    spec, broken = silenced(*look2_model(), "tau(d)")
    report = congruence_test(spec, broken, samples=60, depth=3, seed=1)
    assert report.violations  # sigma(tau(c)) vs sigma(tau(d)) now split classes


def sampled_congruence(spec, model, samples, depth=3, seed=0):
    """congruence_test as it was before the class-signature groups: every
    sample drawn, whatever the groups say.  The oracle for both its paths."""
    if samples < 0:
        raise ValueError("samples must be a natural")
    rng = random.Random(seed)
    rounds = []
    classes = bisimilarity_classes(model, rounds)
    index = {s: i for i, s in enumerate(model.carrier())}
    cls_of = {s: i for i, cl in enumerate(classes) for s in cl}
    members = [sorted(cl, key=term_key) for cl in classes]
    apps = [t for t in model.universe
            if isinstance(t, App) and t.args and t.op in spec.sig]
    if not apps or samples <= 0:
        return CongruenceReport(samples, 0, 0, ())
    checked = skipped = 0
    violations = []
    for _ in range(samples):
        left = rng.choice(apps)
        mates = tuple(rng.choice(members[cls_of[a]]) for a in left.args)
        right = App(left.op, left.params, mates)
        if right not in index:
            skipped += 1
            continue
        checked += 1
        if cls_of[left] != cls_of[right]:
            sep = relations._separating_round(rounds, index[left], index[right])
            violations.append(CongruenceViolation(
                left.op, left.params, left, right, sep if sep <= depth else None))
    return CongruenceReport(samples, checked, skipped, tuple(violations))


def golden_congruence_models():
    """(name, spec, model) for the golden congruence entries that build a
    model: each fixture at both golden caps, on its constants and golden
    seeds."""
    for name, (_, _, seeds) in TERMS.items():
        spec = fx(name)
        start = [App(c) for c in spec.sig.constants()] + [pt(spec, s) for s in seeds]
        for caps in SMALL_CAPS:
            flags = dict(zip(caps[::2], caps[1::2]))
            policy = UniversePolicy(max_count=int(flags["--universe-count"]),
                                    max_size=int(flags["--universe-size"]))
            model, report = least_model(spec, start, policy, force=True)
            if report.converged:
                yield f"{name}-{policy.max_count}", spec, model


# c and d are bisimilar, and f(x) makes one b-move to x
TWINS_UNDER_F = """\
behaviour lts labels a, b
ops c/0, d/0, f/1
rule c : |- c -a-> c
rule d : |- d -a-> d
rule f : |- f(x) -b-> x
"""


def twins_model(*seeds):
    spec = parse_spec(TWINS_UNDER_F)
    model, _ = least_model(spec, [pt(spec, s) for s in seeds],
                           UniversePolicy(max_count=len(seeds), max_size=0))
    return spec, model


def test_congruence_matches_the_sampling_oracle(monkeypatch):
    settled = []
    groups_settle = relations._groups_settle
    monkeypatch.setattr(relations, "_groups_settle",
                        lambda *a: settled.append(groups_settle(*a)) or settled[-1])
    cases = list(golden_congruence_models())
    cases += [(f"spec_gen-{i}", *spec_gen_model(i)) for i in range(50)]
    cases.append(("broken-lookahead2", *silenced(*look2_model(), "tau(d)")))
    # f(d) is outside the universe: the one swap that leaves the carrier
    cases.append(("one-swap-outside", *twins_model("c", "d", "f(c)")))
    # every swap is in the carrier, but f(c) and f(d) are not bisimilar
    cases.append(("full-group-violation", *silenced(*twins_model("c", "d", "f(c)", "f(d)"),
                                                    "f(d)")))
    for name, spec, model in cases:
        for samples in (0, 20, 200):
            for seed in range(4):
                want = sampled_congruence(spec, model, samples, 3, seed)
                assert congruence_test(spec, model, samples, 3, seed) == want, \
                    (name, samples, seed)
    assert set(settled) == {True, False}
    reports = {name: congruence_test(spec, model, 200) for name, spec, model in cases[-3:]}
    assert reports["broken-lookahead2"].violations
    assert reports["one-swap-outside"].skipped > 0
    assert not reports["full-group-violation"].skipped
    assert reports["full-group-violation"].violations


def default_caps_model(name, *seeds):
    spec = fx(name)
    start = [App(c) for c in spec.sig.constants()] + [pt(spec, s) for s in seeds]
    model, report = least_model(spec, start, UniversePolicy())
    assert report.converged
    return spec, model


def test_settled_congruence_draws_no_sample(monkeypatch):
    factstream = default_caps_model("factstream")
    look2 = default_caps_model("lookahead2", "sigma(tau(c))")

    def choice(self, seq):
        raise AssertionError("congruence_test drew a sample")

    monkeypatch.setattr(random.Random, "choice", choice)
    for seed in range(3):
        assert congruence_test(*factstream, 4000, seed=seed) == \
            CongruenceReport(4000, 4000, 0, ())
    with pytest.raises(AssertionError, match="drew a sample"):
        congruence_test(*look2, 4000)


# --- law suite -------------------------------------------------------------------------------


MONOTONE_FIXTURES = ("lookahead2", "factstream", "wchain", "transclosure", "empty")


@pytest.mark.parametrize("name", MONOTONE_FIXTURES)
def test_law_suite_passes_on_monotone_fixtures(name):
    results = law_suite(fx(name))
    assert [r.law for r in results] == ["L3", "L2", "T1", "T2-eta", "T2-mu"]
    assert all(r.status == "pass" for r in results), suite_to_json(results)


@pytest.mark.parametrize("name", MONOTONE_FIXTURES)
def test_law_suite_passes_at_small_caps(name):
    results = law_suite(fx(name), UniversePolicy(max_count=40, max_size=9))
    assert all(r.status == "pass" for r in results), suite_to_json(results)


def test_default_generators_validate():
    spec = fx("lookahead2")
    for gen in default_generators(spec.kind, spec.sig):
        gen.validate(spec.kind, spec.sig)


def test_is_homomorphism():
    kind = CountableLTS(frozenset({"a"}))
    chain = GenCoalgebra(("gp", "gq"), {
        "gp": lts_value({"a": {"gq"}}),
        "gq": lts_value({"a": {"gq"}}),
    })
    loop = GenCoalgebra(("gx",), {"gx": lts_value({"a": {"gx"}})})
    assert is_homomorphism(kind, chain, loop, {"gp": "gx", "gq": "gx"})
    silent = GenCoalgebra(("gx",), {"gx": lts_value({})})
    assert not is_homomorphism(kind, chain, silent, {"gp": "gx", "gq": "gx"})


def test_flatten_law_fails_after_mutation():
    spec = fx("lookahead2")
    seeds = [pt(spec, "tau(c)"), pt(spec, "c")]
    inner, report = least_model(spec, seeds, LAW_POLICY)
    assert report.converged
    gen, outer, decode = doubled_lift(spec, inner, LAW_POLICY)
    clean = law_flatten_hom(inner, outer, decode)
    assert clean.status == "pass"

    victim = pt(spec, "tau(c)")
    beh = dict(inner.behaviour)
    beh[victim] = spec.kind.bottom()  # delete tau(c)'s only transition
    broken = Model(spec.kind, inner.universe, beh, inner.frontier, inner.tainted)
    hurt = law_flatten_hom(broken, outer, decode)
    assert hurt.status == "fail"
    assert hurt.witness


def test_flatten_law_skips_tainted_terms():
    # 25 of the 28 terms of this truncated lift are tainted, sigma(c) among
    # them: its recorded step is not the untruncated one, so breaking it
    # must not make the law fail
    spec = fx("transclosure")
    gsmall, _ = default_generators(spec.kind, spec.sig)
    inner = lift_coalgebra(spec, gsmall, _lift_seeds(spec, gsmall), LAW_POLICY)
    assert (len(inner.universe), len(inner.tainted)) == (28, 25)
    _, outer, decode = doubled_lift(spec, inner, LAW_POLICY)
    victim = pt(spec, "sigma(c)")
    assert victim in inner.tainted
    beh = dict(inner.behaviour)
    beh[victim] = spec.kind.bottom()
    broken = Model(spec.kind, inner.universe, beh, inner.frontier, inner.tainted)
    assert law_flatten_hom(broken, outer, decode).status == "pass"


def test_similarity_law_checks_images(monkeypatch):
    # a genuine homomorphism preserves similarity, so the failing branch is
    # reached only by waving a non-homomorphism through the precondition
    kind = CountableLTS(frozenset({"a"}))
    chain = GenCoalgebra(("gp", "gq"), {
        "gp": lts_value({"a": {"gq"}}),
        "gq": lts_value({"a": {"gq"}}),
    })
    split = GenCoalgebra(("gx", "gy"), {
        "gx": lts_value({"a": {"gx"}}),
        "gy": lts_value({}),
    })
    hom = {"gp": "gx", "gq": "gy"}
    assert law_hom_preserves_similarity(kind, chain, split, hom).status == "inconclusive"
    monkeypatch.setattr(relations, "is_homomorphism", lambda *args: True)
    hurt = law_hom_preserves_similarity(kind, chain, split, hom)
    assert (hurt.status, hurt.witness) == ("fail", {"pair": ["gp", "gq"]})


def test_suite_json_shape():
    doc = suite_to_json(law_suite(fx("lookahead2")))
    assert doc == [
        {"law": "L3", "status": "pass", "witness": {"states": 2}},
        {"law": "L2", "status": "pass", "witness": {"pairs": 4}},
        {"law": "T1", "status": "pass", "witness": {"checked": 7, "skipped": 0}},
        {"law": "T2-eta", "status": "pass", "witness": {"states": 1}},
        {"law": "T2-mu", "status": "pass", "witness": {"checked": 8, "skipped": 3}},
    ]


def test_default_generators_avoid_declared_names():
    spec = parse_spec("behaviour lts labels a\nops gx/0, gp/0, gq/0, gx_/0, f/1\n"
                      "rule gx : |- gx -a-> gp\nrule f : x -a-> y |- f(x) -a-> f(y)\n")
    gsmall, gbig = default_generators(spec.kind, spec.sig)
    assert (gsmall.states, gbig.states) == (("gx__",), ("gp_", "gq_"))
    assert [(r.law, r.status) for r in law_suite(spec)] == [
        ("L3", "pass"), ("L2", "pass"), ("T1", "pass"), ("T2-eta", "pass"), ("T2-mu", "pass")]


def test_a_state_without_an_image_is_no_homomorphism():
    kind = CountableLTS(frozenset({"a"}))
    loop = GenCoalgebra(("gx",), {"gx": lts_value({"a": {"gx"}})})
    assert is_homomorphism(kind, loop, loop, {"gx": "gx"})
    assert not is_homomorphism(kind, loop, loop, {})
    # gp's dynamics reach gq, which the map leaves out
    assert not is_homomorphism(kind, CHAIN_GEN, loop, {"gp": "gx"})


EMPTY_GEN = GenCoalgebra((), {})
LOOP_GEN = GenCoalgebra(("gx",), {"gx": lts_value({"a": {"gx"}})})
CHAIN_GEN = GenCoalgebra(("gp", "gq"), {"gp": lts_value({"a": {"gq"}}),
                                        "gq": lts_value({"a": {"gq"}})})
LTS_A = CountableLTS(frozenset({"a"}))


@pytest.mark.parametrize("check, want", [
    (lambda: law_pointwise_unfolding(LTS_A, EMPTY_GEN), ("L3", "inconclusive", "empty generator")),
    (lambda: law_hom_preserves_similarity(LTS_A, EMPTY_GEN, EMPTY_GEN, {}),
     ("L2", "inconclusive", "no similar pairs")),
    (lambda: law_unit_hom(EMPTY_GEN, gen_to_model(LTS_A, EMPTY_GEN)),
     ("T2-eta", "inconclusive", "empty generator")),
    # a lifted model that dropped the generator state's dynamics
    (lambda: law_unit_hom(LOOP_GEN, Model(LTS_A, (Var("gx"),), {Var("gx"): BOTTOM},
                                          frozenset())),
     ("T2-eta", "fail", {"state": "gx"})),
    # no source term has an image in the target's universe
    (lambda: _square("T1", gen_to_model(LTS_A, LOOP_GEN), gen_to_model(LTS_A, EMPTY_GEN),
                     lambda t: t),
     ("T1", "inconclusive", "universe too small")),
    # a partial map: gq has no image
    (lambda: law_hom_preserves_similarity(LTS_A, CHAIN_GEN, LOOP_GEN, {"gp": "gx"}),
     ("L2", "inconclusive", "supplied map is not a homomorphism")),
    (lambda: law_term_map_hom(fx("lookahead2"), CHAIN_GEN, LOOP_GEN, {"gp": "gx"}, LAW_POLICY),
     ("T1", "inconclusive", "supplied map is not a homomorphism")),
], ids=["L3-empty", "L2-empty", "T2-eta-empty", "T2-eta-fail", "square-too-small",
        "L2-partial-map", "T1-partial-map"])
def test_law_results_off_the_suite_path(check, want):
    r = check()
    assert (r.law, r.status, r.witness) == want


@pytest.mark.parametrize("call, error, message", [
    (lambda spec, model: check_equivalence(model, pt(spec, "c"), pt(spec, "d"), "trace"),
     ValueError, "unknown relation 'trace'"),
    (lambda spec, model: congruence_test(spec, model, -1),
     ValueError, "samples must be a natural"),
    (lambda spec, model: lift_coalgebra(spec, default_generators(spec.kind, spec.sig)[0],
                                        max_iters=1),
     NonConvergenceError, "lifting did not stabilize within 1 iterations"),
    (lambda spec, model: least_model(spec, [App("tau", (), (Var("y"),))]),
     ValueError, "seed tau(y) has unbound variables ['y']"),
    (lambda spec, model: phi_step(spec, Model(spec.kind, (Var("y"),), {Var("y"): BOTTOM},
                                              frozenset())),
     UnknownStateError, "variable term 'y' has no generator dynamics"),
], ids=["unknown-relation", "negative-samples", "lift-budget", "unbound-seed",
        "variable-without-dynamics"])
def test_library_checks_refuse_bad_arguments(call, error, message):
    spec, model = look2_model()
    with pytest.raises(error) as got:
        call(spec, model)
    assert str(got.value) == message


# --- similarity versus depth-bounded unfolding similarity -------------------------------------


def test_simulation_implies_depth_similarity():
    # pairs in the greatest simulation stay related under every finite cut
    _, model = look2_model()
    sim = greatest_simulation(model, model)
    for s, t in sorted(sim.pairs, key=lambda p: (str(p[0]), str(p[1]))):
        for depth in (1, 2, 3):
            assert depth_similarity(model, s, model, t, depth, require_labels=False), (s, t)


# --- refinement rounds versus their definitions -------------------------------------------
#
# The refinement, plain and symmetric, is checked against
# oracles that share none of their machinery: a Jacobi refinement that
# re-checks every pair in every round, a back-and-forth refinement over pair
# sets, and depth-bounded similarity, decided pair by pair on the models
# (itself checked against unfolding trees above).


def naive_refinement(kind, m1, m2, both_ways=False):
    """Refine the full product, every pair every round, reading the previous
    round's relation.  Returns (the stable relation, pair -> round it left)."""
    cur = frozenset(itertools.product(m1.carrier(), m2.carrier()))
    drop = {}
    k = 0
    while True:
        k += 1
        back = frozenset((t, s) for s, t in cur)
        nxt = frozenset((s, t) for s, t in cur
                        if kind.rel_lift(cur, m1.step(s), m2.step(t))
                        and (not both_ways or kind.rel_lift(back, m2.step(t), m1.step(s))))
        if nxt == cur:
            return cur, drop
        drop.update(dict.fromkeys(cur - nxt, k))
        cur = nxt


def drops_of(rounds, m1, m2):
    """pair -> the round whose rows first stop relating it, read off the
    refinement's round record (the rows after every round that changed)."""
    left, right = m1.carrier(), m2.carrier()
    drop: dict = {}
    for k, rows in enumerate(rounds, start=1):
        for i, row in enumerate(rows):
            for j in range(len(right)):
                if not row >> j & 1:
                    drop.setdefault((left[i], right[j]), k)
    return drop


def sim_drops(m1, m2):
    rounds: list = []
    relations._refine(m1, m2, False, rounds)
    return drops_of(rounds, m1, m2)


def random_gen_model(kind, n, rng):
    """n generator states with random dynamics: at most two successors per
    label, so that pairs separate over several rounds."""
    names = [f"g{i}" for i in range(n)]
    labels = sorted(kind.labels) if kind.labels is not None else [1, 2]
    dyn = {}
    for x in names:
        if kind.name == "stream":
            dyn[x] = (BOTTOM if rng.random() < 0.15 else
                      StreamStep(rng.choice(labels), rng.choice(names)))
        elif kind.name == "lts":
            dyn[x] = lts_value({lab: set(rng.sample(names, rng.randrange(3)))
                                    for lab in labels})
        else:
            dyn[x] = wts_value({lab: {y: rng.choice([0.5, 1.0, 2.0])
                                          for y in rng.sample(names, rng.randrange(3))}
                                    for lab in labels})
    return gen_to_model(kind, GenCoalgebra(tuple(names), dyn))


KINDS = {"lts": CountableLTS(frozenset({"a", "b"})),
         "wts": WeightedLTS(frozenset({"a", "b"})),
         "stream": PartialStream(frozenset({1, 2}))}


def spec_gen_model(seed):
    spec = random_monotone_lts_spec(random.Random(seed))
    universe = [pt(spec, s) for s in UNIVERSE_TEXTS]
    model, _ = least_model(spec, universe, UniversePolicy(max_count=3, max_size=0))
    return spec, model


def spec_gen_models(count):
    for i in range(count):
        yield f"spec_gen-{i}", spec_gen_model(i)[1]


def wchain_model():
    spec = fx("wchain")
    model, report = least_model(spec, [pt(spec, "f(f(f(c)))"), pt(spec, "f(f(d))")],
                                UniversePolicy(max_count=30, max_size=8))
    assert report.converged
    return spec, model


def fixture_models():
    yield "lookahead2", look2_model()[1]
    yield "factstream", factstream_model()[1]
    yield "wchain", wchain_model()[1]


def small_models():
    yield from spec_gen_models(20)
    yield from fixture_models()
    for name, kind in KINDS.items():
        for seed in range(3):
            yield f"{name}-5-{seed}", random_gen_model(kind, 5, random.Random(seed))


def large_models():
    spec = fx("transclosure")
    model, _ = least_model(spec, [pt(spec, "sigma(sigma(c))")],
                           UniversePolicy(max_count=30, max_size=8))
    yield "transclosure", model
    for name, kind in KINDS.items():
        for seed, n in enumerate((20, 30, 40, 70)):  # 70: rows wider than a word
            yield f"{name}-{n}", random_gen_model(kind, n, random.Random(seed))


def cases(models):
    return [pytest.param(name, model, id=name) for name, model in models]


def _dissimilar_at(model, s, t, depth):
    return not depth_similarity(model, s, model, t, depth, require_labels=False)


@pytest.mark.parametrize("name,model", cases(small_models()))
def test_sim_depth_is_first_depth_of_unfold_dissimilarity(name, model):
    drops = sim_drops(model, model)
    stable = max(drops.values(), default=0) + 1
    separated = 0
    pairs = sorted(itertools.product(model.carrier(), repeat=2), key=str)
    for s, t in random.Random(0).sample(pairs, min(len(pairs), 20)):
        assert distinguishing_depth(model, s, t, "sim") == drops.get((s, t)), (s, t)
    for s, t in pairs:
        d = drops.get((s, t))
        if d is None:  # similar at the stable round, hence at every depth
            assert not _dissimilar_at(model, s, t, stable), (s, t)
        else:
            separated += 1
            assert _dissimilar_at(model, s, t, d), (s, t, d)
            assert d == 1 or not _dissimilar_at(model, s, t, d - 1), (s, t, d)
    assert separated or name.startswith("spec_gen")


@pytest.mark.parametrize("name,model", cases(fixture_models()) + cases(large_models()))
def test_greatest_simulation_matches_naive_refinement(name, model):
    kind = model.kind
    sim = greatest_simulation(model, model)
    drops = sim_drops(model, model)
    want, want_drop = naive_refinement(kind, model, model)
    assert sim.pairs == want
    assert drops == want_drop
    assert len(model.carrier()) < 20 or max(drops.values()) >= 2  # rounds past the first


def count_kind_calls(kind, monkeypatch) -> dict:
    calls = {"moves": 0, "rel_lift": 0, "map_states": 0}
    for name in calls:
        def counted(self, *args, name=name, real=getattr(type(kind), name)):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(type(kind), name, counted)
    return calls


@pytest.mark.parametrize("kind_name", sorted(KINDS))
def test_greatest_simulation_reads_each_step_once(kind_name, monkeypatch):
    # the refinement reads kind.moves once per carrier state, for both sides
    # of one model, and never the per-pair lifting
    kind = KINDS[kind_name]
    model = random_gen_model(kind, 50, random.Random(5))
    calls = count_kind_calls(kind, monkeypatch)
    greatest_simulation(model, model)
    assert calls == {"moves": 50, "rel_lift": 0, "map_states": 0}
    assert max(sim_drops(model, model).values()) >= 2


@pytest.mark.parametrize("kind_name", sorted(KINDS))
def test_bisimilarity_classes_reads_each_step_once(kind_name, monkeypatch):
    # the symmetric refinement reads steps like the simulation, and never
    # quotients a step by the classes
    kind = KINDS[kind_name]
    model = random_gen_model(kind, 50, random.Random(5))
    calls = count_kind_calls(kind, monkeypatch)
    rounds: list = []
    bisimilarity_classes(model, rounds)
    assert calls == {"moves": 50, "rel_lift": 0, "map_states": 0}
    assert len(rounds) >= 2


def test_simulation_guard_uses_fresh_preimages(monkeypatch):
    # a loop whose preimage table matches every move keeps every pair; the
    # guard must build a table of its own to catch that
    kind = KINDS["lts"]
    model = random_gen_model(kind, 50, random.Random(5))
    honest = relations._Preimages

    class Lying(honest):
        def __missing__(self, key):
            return (1 << len(self.moves)) - 1

    tables = []

    def make(moves):
        tables.append((Lying if not tables else honest)(moves))
        return tables[-1]

    monkeypatch.setattr(relations, "_Preimages", make)
    with pytest.raises(BigsosError, match="not a simulation"):
        greatest_simulation(model, model)
    assert len(tables) == 2
    tables.clear()
    with pytest.raises(BigsosError, match="not a simulation"):
        bisimilarity_classes(model)
    assert len(tables) == 2


@pytest.mark.parametrize("kind_name", sorted(KINDS))
def test_greatest_simulation_between_two_models(kind_name):
    kind = KINDS[kind_name]
    m1 = random_gen_model(kind, 25, random.Random(11))
    m2 = random_gen_model(kind, 30, random.Random(12))
    sim = greatest_simulation(m1, m2)
    drops = sim_drops(m1, m2)
    want, want_drop = naive_refinement(kind, m1, m2)
    assert sim.pairs == want and drops == want_drop


@pytest.mark.parametrize("name,model", cases(small_models()) + cases(large_models()))
def test_bisim_depth_is_first_round_of_pair_refinement(name, model):
    kind = model.kind
    want, want_drop = naive_refinement(kind, model, model, both_ways=True)
    rounds: list = []
    classes = bisimilarity_classes(model, rounds)
    assert {(s, t) for cl in classes for s in cl for t in cl} == want
    pairs = sorted(itertools.product(model.carrier(), repeat=2), key=str)
    for s, t in random.Random(0).sample(pairs, min(len(pairs), 60)):
        res = check_equivalence(model, s, t, "bisim")
        assert res.related == ((s, t) in want)
        assert distinguishing_depth(model, s, t) == want_drop.get((s, t))
        if not res.related:
            assert res.witness == want_drop[s, t]


@pytest.mark.parametrize("name,model", cases(small_models()) + cases(large_models()))
def test_bisim_rounds_match_naive_refinement(name, model):
    # every pair, not a sample: the round record of bisimilarity_classes
    # drops each pair in the round the back-and-forth refinement does
    want, want_drop = naive_refinement(model.kind, model, model, both_ways=True)
    rounds: list = []
    bisimilarity_classes(model, rounds)
    assert drops_of(rounds, model, model) == want_drop
    assert len(model.carrier()) < 20 or len(rounds) >= 2


def test_bisimilarity_classes_reject_a_successor_outside_the_carrier():
    kind = CountableLTS(frozenset({"a"}))
    gx = Var("gx")
    model = Model(kind, (gx,), {gx: lts_value({"a": {Var("gy")}})}, frozenset())
    with pytest.raises(UnknownStateError, match="gy is outside the carrier"):
        bisimilarity_classes(model)


def test_wts_bisimilarity_merges_weights_into_a_class_by_sup():
    # p moves into {x, y} with weights 0.5 and 1.0, q into z with 1.0; x, y
    # and z are bisimilar, so p and q are: the class gets weight sup = 1.0
    kind = KINDS["wts"]
    loop = {"b": {"z": 1.0}}
    gen = GenCoalgebra(("p", "q", "x", "y", "z"), {
        "p": wts_value({"a": {"x": 0.5, "y": 1.0}}),
        "q": wts_value({"a": {"z": 1.0}}),
        **{s: wts_value(loop) for s in ("x", "y", "z")}})
    model = gen_to_model(kind, gen)
    p, q, x, y, z = (Var(s) for s in gen.states)
    assert bisimilarity_classes(model) == (frozenset({p, q}), frozenset({x, y, z}))
    assert check_equivalence(model, p, q, "bisim").related
    want, _ = naive_refinement(kind, model, model, both_ways=True)
    assert (p, q) in want
    halved = gen_to_model(kind, GenCoalgebra(gen.states, {
        **gen.dynamics, "q": wts_value({"a": {"z": 0.5}})}))
    assert not check_equivalence(halved, p, q, "bisim").related


def test_sim_equivalence_reports_drop_round():
    spec, model = factstream_model()
    _, want_drop = naive_refinement(spec.kind, model, model)
    for (s, t), d in sorted(want_drop.items(), key=str)[:40]:
        assert check_equivalence(model, s, t, "sim") == EquivResult(False, d)


GADGET = """\
behaviour lts labels a, b
ops p/0, q/0, x/0, y/0, z/0
rule p1 : |- p -a-> x
rule p2 : |- p -a-> y
rule q1 : |- q -a-> y
rule x1 : |- x -b-> z
rule y1 : |- y -a-> z
rule y2 : |- y -b-> z
"""


def test_mutually_similar_but_not_bisimilar_gadget():
    # p -a-> {x, y} and q -a-> {y}, with x below y: each simulates the other,
    # but round 2 of symmetric refinement splits them, since only p reaches
    # the class of x.  Their unfoldings stay mutually similar at every depth.
    spec = parse_spec(GADGET)
    model, _ = least_model(spec)
    p, q = pt(spec, "p"), pt(spec, "q")
    assert check_equivalence(model, p, q, "sim").related
    assert check_equivalence(model, q, p, "sim").related
    assert check_equivalence(model, p, q, "bisim") == EquivResult(False, 2)
    assert distinguishing_depth(model, q, p) == 2
    assert depth_similarity(model, p, model, q, 4, require_labels=False)
    assert depth_similarity(model, q, model, p, 4, require_labels=False)


def gadget_guard_inputs():
    spec = parse_spec(GADGET)
    model, _ = least_model(spec)
    moves = relations._indexed_moves(model)
    return spec, model, moves, relations._refine(model, model, False, None)


def test_guard_rejects_a_simulation_that_is_not_symmetric():
    # the greatest simulation of the gadget relates p and q both ways but x
    # only below y: a simulation, and no bisimulation
    spec, model, moves, rows = gadget_guard_inputs()
    p, q, x, y = (model.carrier().index(pt(spec, n)) for n in "pqxy")
    assert rows[p] >> q & 1 and rows[q] >> p & 1
    assert rows[x] >> y & 1 and not rows[y] >> x & 1
    relations._guard(rows, moves, moves, False)
    with pytest.raises(BigsosError, match="not symmetric"):
        relations._guard(rows, moves, moves, True)
    relations._guard(relations._refine(model, model, True, None), moves, moves, True)


def test_guard_rejects_overfull_rows():
    _, _, moves, _ = gadget_guard_inputs()
    full = [(1 << len(moves)) - 1] * len(moves)  # symmetric, not a simulation
    for symmetric in (False, True):
        with pytest.raises(BigsosError, match="not a simulation"):
            relations._guard(full, moves, moves, symmetric)


def test_distinguishing_depth_rejects_unknown_terms():
    spec, model = look2_model()
    with pytest.raises(UnknownStateError):
        distinguishing_depth(model, pt(spec, "tau(tau(c))"), pt(spec, "c"), "sim")
