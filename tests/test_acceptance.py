"""End-to-end acceptance: exact example reproduction plus property sweeps.

Every criterion builds a textual payload twice with the same seed; the last
criterion asserts each doubled run came back byte-identical. Stated runtime
budgets are asserted on the slower of the two runs.
"""

import hashlib
import io
import itertools
import json
import random
import time

import pytest

from bigsos.behaviour import (BOTTOM, CountableLTS, LtsValue,
                              PartialStream, StreamStep, WtsValue)
from bigsos.cli import run as cli_run
from bigsos.engine import Model, least_model, model_to_json, phi_step
from bigsos.relations import (LAW_POLICY, bisimilarity_classes, congruence_test,
                              doubled_lift, law_flatten_hom, law_suite,
                              suite_to_json)
from bigsos.speclang import parse_spec
from bigsos.terms import App, UniversePolicy, parse_term, print_term
from conftest import fixture_path, fixture_text
from spec_gen import UNIVERSE_TEXTS, random_monotone_lts_text

_payloads = {}
_durations = {}


def run_twice(num, builder):
    t0 = time.monotonic()
    one = builder()
    t1 = time.monotonic()
    two = builder()
    t2 = time.monotonic()
    _payloads[num] = (one, two)
    _durations[num] = max(t1 - t0, t2 - t1)
    return one


def budget(num, seconds):
    assert _durations[num] < seconds, \
        f"criterion {num} took {_durations[num]:.2f}s, budget {seconds}s"


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return parse_spec(fixture_text(name))


def pt(spec, text):
    return parse_term(text, spec.sig)


# --- 1: FactStream emits 1, 6, 120 --------------------------------------------------


@pytest.mark.criterion(1, "FactStream reproduction")
def test_criterion_1_factstream():
    size = ("--universe-size", "16", "--universe-count", "400")

    def build():
        chunks = []
        for term, depth in (("sigma(pos)", "3"), ("pos", "5"), ("c", "2")):
            code, out, err = cli("unfold", fixture_path("factstream"),
                                 term, "-d", depth, *size)
            assert code == 0, err
            chunks.append(out)
        return "".join(chunks)

    payload = run_twice(1, build)
    lines = payload.splitlines()
    assert lines[0] == "1 6 120"
    assert lines[1] == "1 2 3 4 5"
    assert lines[2] == "1 ⊥"
    budget(1, 1.0)


# --- 2: Lookahead2 least model --------------------------------------------------------


LOOK2_SEEDS = ("c", "d", "tau(c)", "tau(d)", "sigma(tau(c))", "sigma(tau(d))")


@pytest.mark.criterion(2, "Lookahead2 least model")
def test_criterion_2_lookahead2():
    spec = fx("lookahead2")

    def build():
        seeds = [pt(spec, s) for s in LOOK2_SEEDS]
        model, report = least_model(spec, seeds,
                                    UniversePolicy(max_count=50, max_size=10))
        classes = bisimilarity_classes(model)
        congr = congruence_test(spec, model, samples=50, depth=3, seed=0)
        return json.dumps({
            "model": model_to_json(model, report),
            "classes": [sorted(print_term(t) for t in cl) for cl in classes],
            "congruence": congr.to_json(),
        })

    doc = json.loads(run_twice(2, build))
    report = doc["model"]["report"]
    assert report["converged"] and report["iterations"] <= 3

    beh = doc["model"]["behaviour"]
    for t in ("tau(c)", "tau(d)"):
        assert beh[t] == {"a": [f"sigma({t})"]}
    for t in ("sigma(tau(c))", "sigma(tau(d))", "c", "d"):
        assert beh[t] == {}

    cls_of = {t: i for i, cl in enumerate(doc["classes"]) for t in cl}
    assert cls_of["c"] == cls_of["d"]
    assert cls_of["sigma(tau(c))"] == cls_of["sigma(tau(d))"]

    assert doc["congruence"]["checked"] > 0
    assert doc["congruence"]["violations"] == []
    budget(2, 1.0)


# --- 3: NegLoop refusal and forced oscillation ------------------------------------------


@pytest.mark.criterion(3, "NegLoop rejection")
def test_criterion_3_negloop():
    spec = fx("negloop")

    def build():
        code, out, err = cli("check", fixture_path("negloop"))
        forced, report = least_model(spec, force=True, max_iters=50)
        return json.dumps({"exit": code, "out": out, "err": err,
                           "report": report.to_json()})

    doc = json.loads(run_twice(3, build))
    assert doc["exit"] == 3
    assert "sigma" in doc["out"]
    assert doc["report"]["oscillation_detected"] is True
    assert doc["report"]["iterations"] <= 10
    budget(3, 1.0)


# --- 4: TransClosure outdegree growth ----------------------------------------------------


@pytest.mark.criterion(4, "TransClosure growth")
def test_criterion_4_transclosure():
    spec = fx("transclosure")

    def sigma_tower(k):
        t = App("c")
        for _ in range(k):
            t = App("sigma", (), (t,))
        return t

    def build():
        rows = []
        for k_cap in (5, 10, 20):
            t0 = time.monotonic()
            policy = UniversePolicy(max_count=k_cap + 2, max_size=0)
            model, report = least_model(spec, [sigma_tower(k_cap)], policy)
            v = model.behaviour[sigma_tower(1)]
            degree = sum(len(v.successors(lab)) for lab in v.labels())
            elapsed = time.monotonic() - t0
            assert elapsed < 5.0, f"K={k_cap} took {elapsed:.2f}s"
            rows.append({"K": k_cap, "outdegree": degree,
                         "converged": report.converged})
        return json.dumps(rows)

    rows = json.loads(run_twice(4, build))
    assert all(r["converged"] for r in rows)
    degrees = [r["outdegree"] for r in rows]
    assert degrees == sorted(degrees) and len(set(degrees)) == 3, degrees


# --- 5: phi is monotone -------------------------------------------------------------------


MONOTONE_FIXTURES = {
    "factstream": ("c", "pos", "sigma(c)"),
    "lookahead2": ("sigma(tau(c))", "sigma(tau(d))"),
    "transclosure": ("sigma(sigma(c))",),
    "empty": ("c",),
    "wchain": ("f(c)", "f(d)"),
}


def random_model(kind, universe, labels, rng):
    beh = {}
    for t in universe:
        if kind.name == "stream":
            beh[t] = (BOTTOM if rng.random() < 0.3 else
                      StreamStep(rng.choice(labels), rng.choice(universe)))
        elif kind.name == "lts":
            beh[t] = LtsValue.make(
                {lab: {s for s in universe if rng.random() < 0.4}
                 for lab in labels})
        else:
            beh[t] = WtsValue.make(
                {lab: {s: rng.choice((0.0, 0.5, 1.0, 2.0)) for s in universe}
                 for lab in labels})
    return Model(kind, universe, beh, frozenset())


def shrink_model(kind, model, rng):
    """A pointwise smaller model: every value moves down its own order."""
    beh = {}
    for t, v in model.behaviour.items():
        if kind.name == "stream":
            beh[t] = BOTTOM if rng.random() < 0.5 else v
        elif kind.name == "lts":
            beh[t] = LtsValue.make(
                {lab: {s for s in v.successors(lab) if rng.random() < 0.6}
                 for lab in v.labels()})
        else:
            beh[t] = WtsValue.make(
                {lab: {s: 0.0 if rng.random() < 0.3 else w * rng.choice((0.5, 1.0))
                       for lab2, s, w in kind.moves(v) if lab2 == lab}
                 for lab in v.labels()})
    return Model(kind, model.universe, beh, frozenset())


@pytest.mark.criterion(5, "phi monotone on random model pairs")
def test_criterion_5_phi_monotone():
    def build():
        digest = hashlib.sha256()
        checked = 0
        for name, seed_texts in sorted(MONOTONE_FIXTURES.items()):
            spec = fx(name)
            policy = UniversePolicy(max_count=12, max_size=0)
            base, _ = least_model(spec, [pt(spec, s) for s in seed_texts], policy)
            universe = base.universe
            labels = (sorted(spec.kind.labels)
                      if getattr(spec.kind, "labels", None) else [1, 2, 3])
            rng = random.Random(11)
            for _ in range(200):
                g = random_model(spec.kind, universe, labels, rng)
                f = shrink_model(spec.kind, g, rng)
                for t in universe:
                    assert spec.kind.leq(f.behaviour[t], g.behaviour[t])
                pf, pg = phi_step(spec, f), phi_step(spec, g)
                for t in universe:
                    assert spec.kind.leq(pf.behaviour[t], pg.behaviour[t]), \
                        (name, str(t))
                digest.update(repr((name, sorted(map(repr, pf.behaviour.items()))
                                    )).encode())
                checked += 1
        return f"pairs={checked};sha={digest.hexdigest()}"

    payload = run_twice(5, build)
    assert payload.startswith("pairs=1000;")
    budget(5, 10.0)


# --- 6: computed model is the least fixed point ----------------------------------------------


@pytest.mark.criterion(6, "least fixed point oracle")
def test_criterion_6_least_ness():
    def build():
        rng = random.Random(0)
        digest = hashlib.sha256()
        for i in range(24):
            text = random_monotone_lts_text(rng)
            spec = parse_spec(text)
            universe = tuple(pt(spec, s) for s in UNIVERSE_TEXTS)
            policy = UniversePolicy(max_count=3, max_size=0)
            computed, report = least_model(spec, list(universe), policy)
            assert report.converged, i
            assert not computed.frontier, i

            values = [LtsValue.make({"a": set(sub)}) for k in range(4)
                      for sub in itertools.combinations(universe, k)]
            fixed = []
            for combo in itertools.product(values, repeat=3):
                cand = Model(spec.kind, computed.universe,
                             dict(zip(computed.universe, combo)), frozenset())
                if phi_step(spec, cand).behaviour == cand.behaviour:
                    fixed.append(cand)
            assert any(f.behaviour == computed.behaviour for f in fixed), i
            for f in fixed:
                for t in computed.universe:
                    assert spec.kind.leq(computed.behaviour[t], f.behaviour[t]), \
                        (i, str(t))
            digest.update(text.encode())
            digest.update(json.dumps(model_to_json(computed)).encode())
        return f"specs=24;sha={digest.hexdigest()}"

    payload = run_twice(6, build)
    assert payload.startswith("specs=24;")
    budget(6, 30.0)


# --- 7: fast lifting equals witness search ----------------------------------------------------


def relations_over(carrier, rng):
    pairs = tuple(itertools.product(carrier, carrier))
    if len(carrier) <= 2:
        for bits in itertools.product((False, True), repeat=len(pairs)):
            yield frozenset(p for p, b in zip(pairs, bits) if b)
        return
    yield frozenset()
    yield frozenset((s, s) for s in carrier)
    yield frozenset(pairs)
    for _ in range(5):
        yield frozenset(p for p in pairs if rng.random() < 0.4)


@pytest.mark.criterion(7, "relation lifting oracle")
def test_criterion_7_lifting_agreement():
    def sweep(kind, values, carrier, rng, digest):
        count = 0
        for rel in relations_over(carrier, rng):
            for a, b in itertools.product(values, repeat=2):
                fast = kind.rel_lift(rel, a, b)
                slow = kind.rel_lift_search(rel, a, b)
                assert fast == slow, (kind.name, rel, a, b)
                digest.update(b"1" if fast else b"0")
                count += 1
        return count

    def build():
        rng = random.Random(2)
        digest = hashlib.sha256()
        checked = 0
        for n in range(1, 5):
            carrier = tuple(f"s{i}" for i in range(n))
            values = [BOTTOM] + [StreamStep(lab, s)
                                 for lab in (1, 2) for s in carrier]
            checked += sweep(PartialStream(), values, carrier, rng, digest)
        for n in range(1, 5):
            carrier = tuple(f"s{i}" for i in range(n))
            values = [LtsValue.make({"a": set(sub)}) for k in range(n + 1)
                      for sub in itertools.combinations(carrier, k)]
            checked += sweep(CountableLTS(frozenset({"a"})), values, carrier,
                             rng, digest)
        for n in range(1, 4):
            carrier = tuple(f"s{i}" for i in range(n))
            subsets = [frozenset(sub) for k in range(n + 1)
                       for sub in itertools.combinations(carrier, k)]
            values = [LtsValue.make({"a": sa, "b": sb})
                      for sa in subsets for sb in subsets]
            checked += sweep(CountableLTS(frozenset({"a", "b"})), values,
                             carrier, rng, digest)
        return f"checked={checked};sha={digest.hexdigest()}"

    payload = run_twice(7, build)
    checked = int(payload.split(";")[0].split("=")[1])
    assert checked > 40000
    budget(7, 30.0)


# --- 8: lifting laws, with a mutation that must break T2-mu -----------------------------------


@pytest.mark.criterion(8, "law suite and mutation")
def test_criterion_8_laws():
    def build():
        out = {}
        for name in ("lookahead2", "factstream"):
            results = law_suite(fx(name))
            out[name] = suite_to_json(results)

        spec = fx("lookahead2")
        inner, report = least_model(spec, [pt(spec, "tau(c)"), pt(spec, "c")],
                                    LAW_POLICY)
        assert report.converged
        gen, outer, decode = doubled_lift(spec, inner, LAW_POLICY)
        clean = law_flatten_hom(inner, outer, decode)
        victim = pt(spec, "tau(c)")
        beh = dict(inner.behaviour)
        beh[victim] = spec.kind.bottom()   # delete tau(c)'s only transition
        broken = Model(spec.kind, inner.universe, beh, inner.frontier,
                       inner.tainted)
        hurt = law_flatten_hom(broken, outer, decode)
        out["mutation"] = {"clean": clean.to_json(), "mutated": hurt.to_json()}
        return json.dumps(out)

    doc = json.loads(run_twice(8, build))
    for name in ("lookahead2", "factstream"):
        assert [r["law"] for r in doc[name]] == ["L3", "L2", "T1", "T2-eta",
                                                 "T2-mu"]
        assert all(r["status"] == "pass" for r in doc[name]), doc[name]
    assert doc["mutation"]["clean"]["status"] == "pass"
    assert doc["mutation"]["mutated"]["status"] == "fail"
    budget(8, 30.0)


# --- 9: determinism ----------------------------------------------------------------------------


@pytest.mark.criterion(9, "seeded determinism")
def test_criterion_9_determinism():
    assert sorted(_payloads) == [1, 2, 3, 4, 5, 6, 7, 8], \
        "a criterion did not record its doubled run"
    for num, (one, two) in sorted(_payloads.items()):
        assert one == two, f"criterion {num} payloads differ between runs"
