"""Workload inputs, generated from a seed, and the references that check them.

Every workload is a sequence of rounds.  A round is a list of operations,
each an argv for ``bigsos.cli.run`` plus a check that compares the output
with an answer this file computes on its own, without calling bigsos.  The
inputs of round r depend only on the seed, the workload name and r.

Rounds are stratified: each round holds the same mix of input sizes and
subcommands in a seeded order, so that runs which complete the same number
of rounds do the same amount of work whatever the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Copies of the fixture specifications the workloads run on.  They live here
# so that the benchmark's inputs and references change only with it.
TRANSCLOSURE = """\
behaviour lts labels a

ops sigma/1, c/0

rule axiom_c : |- c -a-> sigma(c)
rule unfold : |- sigma(x) -a-> sigma(sigma(x))
rule chain3 : x -a-> x', x' -a-> x'', x'' -a-> x''' |- sigma(x) -a-> x'''
"""

FACTSTREAM = """\
behaviour stream nat

ops sigma/1, oplus/2, otimes/1[1], ones/0, pos/0, c/0

rule sigma : x -n-> x', x' -m-> x'' |- sigma(x) -n-> otimes[n](otimes[m](sigma(x'')))
rule oplus : x -n-> x', y -m-> y' |- oplus(x, y) -n+m-> oplus(x', y')
rule otimes : x -n-> x' |- otimes[m](x) -m*n-> otimes[m](x')
rule ones : |- ones -1-> ones
rule pos : |- pos -1-> oplus(ones, pos)
rule c : |- c -1-> sigma(c)
"""

LOOKAHEAD2 = """\
behaviour lts labels a

ops sigma/1, tau/1, c/0, d/0

rule sigma : x -a-> x', x' -a-> x'' |- sigma(x) -a-> x''
rule tau : |- tau(x) -a-> sigma(tau(x))
"""

WCHAIN = """\
behaviour wts labels a, b

ops f/1, c/0, d/0

rule axiom_c : |- c -a-> d
rule axiom_c2 : |- c -b-> c
rule f : x -a-> x' |- f(x) -b-> f(x')
"""

FIXTURES = {"transclosure": TRANSCLOSURE, "factstream": FACTSTREAM,
            "lookahead2": LOOKAHEAD2, "wchain": WCHAIN}
LAW_NAMES = ["L3", "L2", "T1", "T2-eta", "T2-mu"]


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's reference."""


@dataclass
class Op:
    rows: tuple        # latency rows the op counts under, e.g. ("K=20",); the first names it
    argv: list
    check: Callable    # check(stdout_text) raises CheckFailed on a wrong answer


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _rng(seed: int, workload: str, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_fixtures(workdir: str) -> None:
    for name, text in FIXTURES.items():
        _write(workdir, f"{name}.sos", text)


# --- closure-tower -----------------------------------------------------------------


def tower(j: int) -> str:
    return "sigma(" * j + "c" + ")" * j


def tower_reference(k: int) -> dict:
    """Expected `model --format json` for seed sigma^k(c) with caps k+2.

    The universe is sigma^0..sigma^(k+1) of c, and sigma^(k+2)(c) is the one
    frontier term, which has no transitions.  c steps to 1, every j >= 1
    steps to j+1 (rule unfold), and sigma^j(c) also reaches every z that
    three successive steps from j-1 reach (rule chain3).  Kleene iteration
    on these integer sets from the empty map gives the least model.
    """
    top = k + 1
    succ = {j: set() for j in range(top + 1)}
    changed = True
    while changed:
        changed = False
        for j in range(top + 1):
            if j == 0:
                new = {1}
            else:
                new = {j + 1}
                for y1 in succ[j - 1]:
                    for y2 in succ.get(y1, ()):
                        new |= succ.get(y2, set())
            if new != succ[j]:
                succ[j] = new
                changed = True
    return {
        "universe": [tower(j) for j in range(top + 1)],
        "frontier": [tower(top + 1)],
        "behaviour": {tower(j): ({"a": [tower(z) for z in sorted(succ[j])]} if succ[j] else {})
                      for j in range(top + 1)},
    }


def _check_tower(k: int) -> Callable:
    want = tower_reference(k)

    def check(text: str) -> None:
        got = json.loads(text)
        _require(got["report"]["converged"] is True, "model did not converge")
        for key in ("universe", "frontier", "behaviour"):
            _require(got[key] == want[key], f"{key} differs from the integer tower at K={k}")
    return check


def closure_tower_round(seed: int, r: int, workdir: str, size: str) -> list:
    rng = _rng(seed, "closure-tower", r)
    # Four operations below K=18, three at it and four above: the median
    # falls inside K=18.  K=19 three times and K=20 once: the tail (ten
    # samples beyond) falls inside K=19 for any run of 4 to 10 rounds.
    ks = [4, 6, 8] if size == "tiny" else [16, 16, 17, 17, 18, 18, 18, 19, 19, 19, 20]
    rng.shuffle(ks)
    spec = os.path.join(workdir, "transclosure.sos")
    return [Op((f"K={k}",), ["model", spec, tower(k), "--universe-size", str(k + 2),
                          "--universe-count", str(k + 2), "--format", "json"],
               _check_tower(k)) for k in ks]


# --- lts-equiv ---------------------------------------------------------------------

LABELS = ("a", "b")


def random_lts(rng: random.Random, n: int) -> tuple:
    """Adjacency sets {(state, label): set(states)} over 0..n-1, and twin pairs.

    Ten states form a fixed gadget in which p and q are mutually similar but
    not bisimilar, and whose observation trees branch five ways without end.
    Half of the other states are random, with two successors per label or
    none for a label (one time in six).  The rest are twins: copies of a
    random state whose successors are swapped for twins of them at random,
    so each twin is bisimilar to its original.  State numbers are shuffled.
    """
    gadget = 10
    m = (n - gadget + 1) // 2
    succ: dict = {}
    for i in range(m):
        for lab in LABELS:
            succ[i, lab] = set() if rng.random() < 1 / 6 else set(rng.sample(range(n), 2))
    twin_of = {j: rng.randrange(m) for j in range(m, n - gadget)}
    twins: dict = {}
    for j, i in twin_of.items():
        twins.setdefault(i, []).append(j)
    for j, i in twin_of.items():
        for lab in LABELS:
            succ[j, lab] = {rng.choice([s] + twins.get(s, [])) for s in succ[i, lab]}
    c = [n - gadget + i for i in range(6)]
    x, y, p, q = n - 4, n - 3, n - 2, n - 1
    for i in range(6):
        succ[c[i], "a"] = {c[(i + k) % 6] for k in (1, 2, 3)}
        succ[c[i], "b"] = {c[(i + k) % 6] for k in (4, 5)}
    succ[x, "a"], succ[x, "b"] = set(), {c[0]}
    succ[y, "a"], succ[y, "b"] = {c[0]}, {c[0]}
    succ[p, "a"], succ[p, "b"] = {x, y}, set()
    succ[q, "a"], succ[q, "b"] = {y}, set()
    perm = list(range(n))
    rng.shuffle(perm)
    adj = {(perm[s], lab): {perm[t] for t in ts} for (s, lab), ts in succ.items()}
    pairs = [(perm[j], perm[i]) for j, i in twin_of.items()]
    return adj, pairs, (perm[p], perm[q])


def lts_spec_text(n: int, adj: dict) -> str:
    lines = ["behaviour lts labels " + ", ".join(LABELS), "",
             "ops " + ", ".join(f"s{i}/0" for i in range(n)), ""]
    for (s, lab) in sorted(adj):
        for t in sorted(adj[s, lab]):
            lines.append(f"rule r{s}{lab}{t} : |- s{s} -{lab}-> s{t}")
    return "\n".join(lines) + "\n"


def _step_sim(n: int, adj: dict, rel: set) -> set:
    """Pairs (s, t) such that each move of s is matched by a move of t into rel."""
    return {(s, t) for (s, t) in rel
            if all(any((s2, t2) in rel for t2 in adj[t, lab])
                   for lab in LABELS for s2 in adj[s, lab])}


@dataclass
class LtsReference:
    """First depth at which each pair stops being similar or bisimilar.

    A pair missing from a map is related at every depth, so it is in the
    greatest simulation or bisimulation.
    """

    n: int
    sim_drop: dict    # (s, t) -> first d at which t no longer simulates s to depth d
    bisim_drop: dict  # (s, t) -> first d at which s and t are not bisimilar to depth d

    def sim_depth(self, s: int, t: int) -> float:
        return self.sim_drop.get((s, t), math.inf)

    def mutual_depth(self, s: int, t: int) -> float:
        return min(self.sim_depth(s, t), self.sim_depth(t, s))

    def bisim_depth(self, s: int, t: int) -> float:
        return self.bisim_drop.get((s, t), math.inf)

    def relation(self, rel: str) -> set:
        drop = self.sim_drop if rel == "sim" else self.bisim_drop
        return {(s, t) for s in range(self.n) for t in range(self.n) if (s, t) not in drop}


def _refine(n: int, adj: dict, both_ways: bool) -> dict:
    """Refine the full relation one step at a time until nothing changes,
    recording the step at which each pair drops out."""
    cur = {(s, t) for s in range(n) for t in range(n)}
    drop: dict = {}
    depth = 0
    while True:
        depth += 1
        nxt = _step_sim(n, adj, cur)
        if both_ways:
            nxt = {(s, t) for (s, t) in nxt if (t, s) in nxt}
        if nxt == cur:
            return drop
        for pair in cur - nxt:
            drop[pair] = depth
        cur = nxt


def lts_reference(n: int, adj: dict) -> LtsReference:
    """Naive depth-indexed similarity and bisimilarity on the adjacency sets."""
    return LtsReference(n, _refine(n, adj, False), _refine(n, adj, True))


def _check_equiv(ref: LtsReference, s: int, t: int, rel: str) -> Callable:
    def check(text: str) -> None:
        got = json.loads(text)
        want_rel = ref.relation(rel)
        related = (s, t) in want_rel
        _require(got.get("relation") == rel, "relation echo differs")
        _require(got["related"] is related,
                 f"{rel} verdict for s{s}, s{t}: got {got['related']}, want {related}")
        w = got["witness"]
        if related:
            pairs = {tuple(p) for p in w["pairs"]}
            _require(pairs == {(f"s{a}", f"s{b}") for a, b in want_rel},
                     f"{rel} witness relation differs from the reference")
        elif w is not None:
            # A reported depth must separate the pair.  For sim it is the first
            # depth at which t stops simulating s.  For bisim any depth from
            # the first separating round of bisimilarity up to the first depth
            # at which mutual similarity fails is a correct answer.
            _require(isinstance(w, int) and w >= 1, f"bad distinguishing depth {w!r}")
            if rel == "sim":
                _require(w == ref.sim_depth(s, t), f"sim depth {w} for s{s}, s{t}")
            else:
                _require(ref.bisim_depth(s, t) <= w <= ref.mutual_depth(s, t),
                         f"bisim depth {w} for s{s}, s{t}")
    return check


def _pick(rng: random.Random, pairs: list):
    return rng.choice(pairs) if pairs else None


def lts_equiv_round(seed: int, r: int, workdir: str, size: str) -> list:
    """One spec per carrier size n, with eleven queries on each.

    sim on a twin pair and on a pair (s, t) where t fails to simulate s
    within two steps; bisim on four twin pairs, on four pairs separated at
    depth 1 and on a pair first separated at depth 3 (else 2, else 4), where
    the unfold-tree search has to go deeper.  Three specs per round also get
    a bisim query on the gadget pair, where the tree search runs to its
    bound; it costs about the same whatever n is.  Queries are stratified by
    the reference's separation depth so that every round does a similar
    amount of work: the cheap bisim queries hold the median, and the gadget
    and the largest sim queries, at least three of each per round, the tail.
    """
    rng = _rng(seed, "lts-equiv", r)
    sizes = [12, 14] if size == "tiny" else [30, 35, 40, 45, 50]
    hard_at = set(rng.sample(range(len(sizes)), min(3, len(sizes))))
    ops = []
    for idx, n in enumerate(sizes):
        adj, twins, hard = random_lts(rng, n)
        ref = lts_reference(n, adj)
        path = _write(workdir, f"lts-r{r}-n{n}.sos", lts_spec_text(n, adj))
        unrelated = sorted(ref.bisim_drop)
        by_depth: dict = {}
        for s, t in unrelated:
            by_depth.setdefault(ref.mutual_depth(s, t), []).append((s, t))
        shallow_sim = [(s, t) for s, t in unrelated if ref.sim_depth(s, t) <= 2]
        deeper = by_depth.get(3) or by_depth.get(2) or by_depth.get(4) or []
        queries = [("sim", "twin", rng.choice(twins)),
                   ("sim", "shallow", _pick(rng, shallow_sim))]
        queries += [("bisim", "twin", rng.choice(twins)) for _ in range(4)]
        queries += [("bisim", "depth1", _pick(rng, by_depth.get(1, []))) for _ in range(4)]
        queries.append(("bisim", "deeper", _pick(rng, deeper)))
        if idx in hard_at:
            queries.append(("bisim", "bounded", hard))
        for rel, what, pair in queries:
            if pair is None:
                continue
            s, t = pair
            if rel == "bisim" and rng.random() < 0.5:  # sim is not symmetric
                s, t = t, s
            ops.append(Op((f"n={n},{rel}", f"{rel}:{what}"),
                          ["equiv", path, f"s{s}", f"s{t}", "--rel", rel, "--format", "json"],
                          _check_equiv(ref, s, t, rel)))
    rng.shuffle(ops)
    return ops


# --- grow-and-lift -----------------------------------------------------------------


def _check_factorials(depth: int) -> Callable:
    want = [str(math.factorial(2 * i + 1)) for i in range(depth)]

    def check(text: str) -> None:
        _require(text.split() == want,
                 f"sigma(pos) labels {text.strip()!r}, want the odd factorials")
    return check


def _check_laws(text: str) -> None:
    got = json.loads(text)
    _require([r["law"] for r in got] == LAW_NAMES, "law names or order differ")
    bad = [r["law"] for r in got if r["status"] != "pass"]
    _require(not bad, f"laws not passing: {bad}")


def _check_congruence(samples: int) -> Callable:
    def check(text: str) -> None:
        got = json.loads(text)
        _require(got["samples"] == samples and got["checked"] + got["skipped"] == samples,
                 "congruence sample accounting differs")
        _require(got["checked"] > 0, "congruence checked nothing")
        _require(got["violations"] == [], "congruence violations on a monotone spec")
    return check


def _la2_term(rng: random.Random, depth: int) -> tuple:
    """A random nest of `depth` sigma and tau over c or d: (text, operators
    outside in, base)."""
    ops = tuple(rng.choice(("sigma", "tau")) for _ in range(depth))
    base = rng.choice(("c", "d"))
    text = base
    for op in reversed(ops):
        text = f"{op}({text})"
    return text, ops, base


def _check_lookahead2(terms: list, max_size: int) -> Callable:
    """Every sigma term is bottom; tau(x) steps only to sigma(tau(x)).

    The universe is the subterm closure of the seeds and of c and d, plus
    sigma(t) for each tau term t in it that fits the size cap; sigma(t) of
    a tau term t that does not fit is frontier.
    """
    closure = {("c",), ("d",)}
    for ops, base in terms:
        for i in range(len(ops) + 1):
            closure.add(ops[i:] + (base,))
    universe = set(closure)
    frontier = set()
    for t in closure:
        if t[0] == "tau":
            (universe if len(t) + 1 <= max_size else frontier).add(("sigma",) + t)

    def show(t) -> str:
        return "".join(f"{op}(" for op in t[:-1]) + t[-1] + ")" * (len(t) - 1)

    want = {show(t): ({"a": [show(("sigma",) + t)]} if t[0] == "tau" else {})
            for t in universe}

    def check(text: str) -> None:
        got = json.loads(text)
        _require(set(got["universe"]) == set(want), "lookahead2 universe differs")
        _require(set(got["frontier"]) == {show(t) for t in frontier},
                 "lookahead2 frontier differs")
        _require(got["behaviour"] == want,
                 "lookahead2 behaviour differs (sigma terms must be bottom)")
    return check


def grow_and_lift_round(seed: int, r: int, workdir: str, size: str) -> list:
    rng = _rng(seed, "grow-and-lift", r)
    fx = {name: os.path.join(workdir, f"{name}.sos") for name in FIXTURES}
    tiny = size == "tiny"
    ops = []
    for d in ([2, 3] if tiny else [4, 5, 6]):
        caps = ["--universe-size", "16", "--universe-count", "200"] if tiny else \
            ["--universe-size", "48", "--universe-count", "8000"]
        ops.append(Op(("unfold", f"unfold:d={d}"),
                      ["unfold", fx["factstream"], "sigma(pos)", "-d", str(d)] + caps,
                      _check_factorials(d)))
    for name in ("lookahead2", "factstream", "wchain", "transclosure"):
        caps = ["--universe-size", "8" if tiny else "9", "--universe-count", "40"]
        ops.append(Op(("laws", f"laws:{name}"), ["laws", fx[name], "--format", "json"] + caps,
                      _check_laws))
    # Two congruence runs of equal size are the middle of a round by cost,
    # with four cheaper operations and four dearer ones, so the median
    # falls inside them.
    samples = 200 if tiny else 4000
    for _ in range(2):
        ops.append(Op(("congruence",), ["congruence", fx["factstream"], "--samples",
                                        str(samples), "--seed", str(rng.randrange(1 << 30)),
                                        "--format", "json"],
                      _check_congruence(samples)))
    picked = [_la2_term(rng, depth) for depth in (2, 4, 6)]
    ops.append(Op(("model",), ["model", fx["lookahead2"]] + [text for text, _, _ in picked]
                  + ["--format", "json"],
                  _check_lookahead2([(o, b) for _, o, b in picked], 12)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "closure-tower": closure_tower_round,
    "lts-equiv": lts_equiv_round,
    "grow-and-lift": grow_and_lift_round,
}
