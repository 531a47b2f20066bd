"""Simulation, bisimulation, and executable law checks on finite models.

Similarity is a Jacobi refinement on carrier indices: each left state holds
an int bitset row of the right states still related to it, starting from
the full relation, and a round ANDs into it, for each of its kind.moves, the
preimage of its successor's row, memoized by (label, weight, row value).
Bisimilarity is signature refinement on block ids: a round splits each
block by its members' (label, successor block) pairs, and the largest part
keeps the block's id, so a state is relabelled at most log2 n times.  After
round 1, each recomputes only the states with a move into a changed row or
a relabelled state.  Round k is depth-k similarity or bisimilarity, so the
distinguishing depth of an unrelated pair is the first round that stops
relating it, found exactly within |carrier| rounds; for bisim it can be
smaller than the depth at which the two unfoldings stop being mutually
similar.  A guard re-checks each result afresh: rows as a simulation, with
fresh preimages, and ids as a stable partition, which is a bisimulation.

The lifting laws (pruning shrinks unfoldings, homomorphisms preserve
similarity, term-map extension and flattening are homomorphisms between
lifted models) are checked exactly on the models of small generator
coalgebras: L3 as the pointwise order, L2 on greatest simulations, and T1
and T2-mu as one-step homomorphism squares, which give equal unfoldings at
every depth.  Terms whose recorded step may be truncated (tainted ones) are
skipped rather than judged, so each law reports pass, fail, or inconclusive.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import itemgetter
from typing import Iterable, Mapping, Union

from .behaviour import BehaviourKind, Relation, _bits, label_key
from .engine import GenCoalgebra, Model, gen_to_model, lift_coalgebra
from .errors import BigsosError, CarrierMismatchError, UnknownStateError
from .speclang import Spec
from .terms import (App, Record, Term, UniversePolicy, Var, print_term, substitute,
                    term_key)


# --- similarity and bisimilarity --------------------------------------------------


def _indexed_moves(model: Model) -> list:
    """kind.moves of each carrier state, with states as carrier indices."""
    kind, index = model.kind, model.index
    out = []
    for s in index:
        try:
            out.append(tuple((a, index[t], w) for a, t, w in kind.moves(model.step(s))))
        except KeyError as e:
            raise UnknownStateError(
                f"successor {print_term(e.args[0])} is outside the carrier") from None
    return out


def _readers(moves: list) -> list:
    """Carrier index -> the indices of the states with a move into it."""
    readers: list = [[] for _ in moves]
    for i, out in enumerate(moves):
        for _, t, _ in out:
            readers[t].append(i)
    return readers


class _Preimages(dict):
    """(label, weight, row) -> the bitset of right states with a label-move
    of at least weight into a state of row, a bitset over the right carrier.
    Entries are keyed by the row's value, so equal rows share one."""

    def __init__(self, moves: list):
        super().__init__()
        self.moves = moves  # right carrier index -> its indexed moves
        self.into: dict = {}  # (label, weight) -> per target, its sources' bitset

    def __missing__(self, key):
        lab, w, row = key
        into = self.into.get((lab, w))
        if into is None:
            into = self.into[lab, w] = [0] * len(self.moves)
            for j, moves in enumerate(self.moves):
                for a, t, wt in moves:
                    if a == lab and wt >= w:
                        into[t] |= 1 << j
        out = 0
        for t in _bits(row):
            out |= into[t]
        self[key] = out
        return out


def _refine(m1: Model, m2: Model, rounds: Union[list, None]) -> list:
    """Jacobi refinement from the full carrier product, on bitset rows:
    rows[i] is the set of right states still related to left state i.

    By the kind.moves contract, round k ANDs into rows[i], over each move
    (a, s, w) of state i, the right states with an a-move of weight >= w
    into rows[s], all read from round k-1, so round k is depth-k
    similarity.  Round 1 computes every row, later rounds only the rows of
    states with a move into a row that changed: any other refined row is
    its row unchanged.  rounds, if given, receives the rows after every
    round that changed one.  _guard re-checks the result before it is
    returned.
    """
    if m1.kind != m2.kind:
        raise CarrierMismatchError("the two models have different behaviour kinds")
    moves1 = _indexed_moves(m1)
    moves2 = moves1 if m2 is m1 else _indexed_moves(m2)
    readers = _readers(moves1)
    rows = [(1 << len(moves2)) - 1] * len(moves1)
    pre = _Preimages(moves2)
    todo = range(len(moves1))
    while todo:
        nxt = rows.copy()
        for i in todo:
            for a, s, w in moves1[i]:
                nxt[i] &= pre[a, w, rows[s]]
        changed = [i for i in todo if nxt[i] != rows[i]]
        rows = nxt
        if changed and rounds is not None:
            rounds.append(rows)
        todo = {r for i in changed for r in readers[i]}
    _guard(rows, moves1, moves2)
    return rows


def _guard(rows: list, moves1: list, moves2: list) -> None:
    """Raise unless rows are a simulation, checked with fresh preimages."""
    fresh = _Preimages(moves2)
    for i, moves in enumerate(moves1):
        if any(rows[i] & ~fresh[a, w, rows[s]] for a, s, w in moves):
            raise BigsosError("internal: refined relation is not a simulation")


def _relation(m1: Model, m2: Model, rows: list) -> Relation:
    return Relation(m1.carrier(), m2.carrier(), tuple(rows))


def greatest_simulation(m1: Model, m2: Model) -> Relation:
    """Largest R with (s,t) in R implying rel_lift(R, m1(s), m2(t))."""
    return _relation(m1, m2, _refine(m1, m2, None))


def _signature(moves: list, ids: list) -> frozenset:
    """The (label, successor block id) pairs of moves, each with the sup of
    its weights, the last written as moves come sorted by weight.  Equal
    signatures make matching moves into every block."""
    return frozenset({(a, ids[t]): w for a, t, w in moves}.items())


def _bisim_ids(model: Model, rounds: Union[list, None]) -> list:
    """Block id of each carrier index under bisimilarity, by signature
    refinement from one block.

    Round k reads signatures under round k-1's ids: every state's in round
    1, later only those of the states with a move into one that round k-1
    relabelled.  Any other state's signature is unchanged, and each one
    recomputed holds a fresh id that no old one does, so a block splits
    into its unchanged members and one part per new signature.  The largest
    part keeps the id (ties go to the least carrier index) and the others
    take fresh ones, so a relabelled state's block at least halves.  rounds,
    if given, receives each round's {carrier index: new id} relabels.
    _guard_stable re-checks the result before it is returned.
    """
    moves = [sorted(out, key=itemgetter(2)) for out in _indexed_moves(model)]
    readers = _readers(moves)
    ids = [0] * len(moves)
    members = [set(range(len(moves)))]  # block id -> its carrier indices
    todo = range(len(moves))
    while todo:
        new: dict = {}  # block id -> new signature -> the members with it
        for i in todo:
            new.setdefault(ids[i], {}).setdefault(_signature(moves[i], ids), []).append(i)
        moved: dict = {}
        for b, groups in new.items():
            parts = list(groups.values())
            rest = len(members[b]) - sum(map(len, parts))  # the unchanged members
            keep = None  # the unchanged members keep b when strictly the largest part
            if rest <= max(map(len, parts)):  # then b is at most twice the changed
                if rest:
                    parts.append(members[b].difference(*parts))
                keep = max(parts, key=lambda part: (len(part), -min(part)))
            for part in parts:
                if part is not keep:
                    members[b].difference_update(part)
                    members.append(set(part))
                    for i in part:
                        ids[i] = moved[i] = len(members) - 1
        if moved and rounds is not None:
            rounds.append(moved)
        todo = {r for i in moved for r in readers[i]}
    _guard_stable(moves, ids)
    return ids


def _guard_stable(moves: list, ids: list) -> None:
    """Raise unless each block's members have equal signatures, computed
    afresh: such a partition is stable, so it is a bisimulation."""
    first: dict = {}  # block id -> the signature of its first member
    for b, sig in zip(ids, (_signature(out, ids) for out in moves)):
        if first.setdefault(b, sig) != sig:
            raise BigsosError("internal: refined partition is not stable")


def bisimilarity_classes(model: Model, rounds: Union[list, None] = None) -> tuple:
    """Coarsest partition whose classes have equal class-quotiented
    behaviour, by signature refinement (_bisim_ids), so round k is depth-k
    bisimilarity.  Classes are ordered by their first member in carrier
    order.  rounds, if given, receives each round's relabels as a
    {carrier index: new block id} dict."""
    groups: dict = {}
    for s, b in zip(model.carrier(), _bisim_ids(model, rounds)):
        groups.setdefault(b, []).append(s)
    return tuple(frozenset(g) for g in groups.values())


def _separating_round(rounds: list, i: int, j: int) -> Union[int, None]:
    """First round after which carrier indices i and j have different block
    ids in a bisim round record, or None."""
    a = b = 0
    for k, moved in enumerate(rounds, start=1):
        a, b = moved.get(i, a), moved.get(j, b)
        if a != b:
            return k
    return None


def depth_similarity(m1: Model, s: Term, m2: Model, t: Term, depth: int,
                     require_labels: bool = True) -> bool:
    """Depth-bounded similarity of s in m1 and t in m2: whether the
    depth-step unfolding of t simulates that of s.

    Depth 0 relates every pair.  Depth k relates (a, b) when kind.rel_lift
    holds for the depth-(k-1) relation on their successors and, with
    require_labels, a == b (the order on term-labelled unfoldings); drop it
    to compare different terms for the behavioural preorder.  The pairs are
    collected level by level down from (s, t), every successor pair of a
    pair that passes the label test, and then decided bottom-up, each level
    from the one below it, so the stack does not grow with depth.
    """
    if depth < 0:
        raise ValueError("depth must be a natural")
    if m1.kind != m2.kind:
        raise CarrierMismatchError("the two models have different behaviour kinds")
    kind = m1.kind
    levels = [{(s, t)}]  # levels[i]: the pairs decided at depth - i
    for _ in range(depth):
        levels.append({pair for a, b in levels[-1] if not require_labels or a == b
                       for pair in itertools.product(kind.states(m1.step(a)),
                                                     kind.states(m2.step(b)))})
    similar: dict = {}
    for k, pairs in enumerate(reversed(levels)):
        decided = {}
        for a, b in pairs:
            b1, b2 = m1.step(a), m2.step(b)  # also validates membership
            decided[a, b] = k == 0 or ((not require_labels or a == b) and kind.rel_lift(
                {(x, y) for x in kind.states(b1) for y in kind.states(b2)
                 if similar[x, y]}, b1, b2))
        similar = decided
    return similar[s, t]


# --- term equivalence --------------------------------------------------------------


class EquivResult(Record):
    """Verdict plus a witness: the relation itself when related, else the
    distinguishing depth, the first refinement round that separates the
    pair (see the module docstring)."""

    __slots__ = ("related", "witness")
    _defaults = {"witness": None}

    def to_json(self) -> dict:
        """A relation witness as its sorted pairs of printed terms, read off
        its rows: the left states are grouped by printed name, and the right
        names of all their set bits sorted together, so states that print
        alike interleave."""
        w = self.witness
        if isinstance(w, Relation):
            right = list(map(print_term, w.right))
            rows_of: dict = {}
            for a, row in zip(map(print_term, w.left), w.rows):
                rows_of.setdefault(a, []).append(row)
            w = {"pairs": [[a, b] for a in sorted(rows_of) for b in sorted(
                [right[j] for row in rows_of[a] for j in _bits(row)])]}
        return {"related": self.related, "witness": w}


def check_equivalence(model: Model, t1: Term, t2: Term,
                      relation: str = "bisim") -> EquivResult:
    """Decide similarity or bisimilarity of two carrier terms in one model.

    One refinement gives the verdict and, for an unrelated pair, its
    distinguishing depth.  A related pair's witness is the refined relation
    as bitset rows: for sim the refinement's rows, which _guard has checked
    to be a simulation, and for bisim each state's class, from the partition
    _guard_stable has checked to be a bisimulation."""
    for t in (t1, t2):
        if t not in model.index:
            raise UnknownStateError(f"term {print_term(t)} is not in the model")
    if relation not in ("sim", "bisim"):
        raise ValueError(f"unknown relation {relation!r}")
    i, j = model.index[t1], model.index[t2]
    rounds: list = []
    if relation == "sim":
        rows = _refine(model, model, rounds)
        depth = next((k for k, r in enumerate(rounds, start=1) if not r[i] >> j & 1), None)
    else:
        ids = _bisim_ids(model, rounds)
        depth = _separating_round(rounds, i, j)
        cls = dict.fromkeys(ids, 0)  # block id -> the bitset of its members
        for k, b in enumerate(ids):
            cls[b] |= 1 << k
        rows = [cls[b] for b in ids]
    if depth is not None:
        return EquivResult(False, depth)
    return EquivResult(True, _relation(model, model, rows))


def distinguishing_depth(model: Model, t1: Term, t2: Term,
                         relation: str = "bisim") -> Union[int, None]:
    """First refinement round that separates t1 from t2, or None if they are
    related: the round of the simulation refinement (for sim) or of the
    signature refinement (for bisim) that stops relating t1 to t2.  At most
    the carrier size."""
    res = check_equivalence(model, t1, t2, relation)
    return None if res.related else res.witness


# --- congruence --------------------------------------------------------------------


class CongruenceViolation(Record):
    __slots__ = ("op", "params", "left", "right", "depth")

    def to_json(self) -> dict:
        return {"op": self.op, "params": list(self.params),
                "left": print_term(self.left), "right": print_term(self.right),
                "depth": self.depth}


class CongruenceReport(Record):
    __slots__ = ("samples", "checked", "skipped", "violations")

    def to_json(self) -> dict:
        return {"samples": self.samples, "checked": self.checked,
                "skipped": self.skipped,
                "violations": [v.to_json() for v in self.violations]}


def _groups_settle(carrier, apps: list, classes: tuple, cls_of: dict) -> bool:
    """Whether every swap congruence_test can draw is checked and related.

    A swap of left is App(left.op, left.params, mates), each mate from its
    argument's class, so it lies in left's group: the carrier terms with
    left's op and params and the same class for each argument.  Every swap
    is in the carrier exactly when the group has as many terms as the
    product of those classes' sizes, and is bisimilar to left exactly when
    the group lies in one class.  One pass over the carrier."""
    def key(t):
        return t.op, t.params, tuple(cls_of.get(a) for a in t.args)

    groups: dict = {}  # key -> the classes of the carrier terms with it
    for t in carrier:
        if isinstance(t, App) and t.args:
            groups.setdefault(key(t), []).append(cls_of[t])
    for op, params, arg_classes in set(map(key, apps)):
        found = groups[op, params, arg_classes]
        if None in arg_classes or len(set(found)) > 1 or len(found) != math.prod(
                len(classes[i]) for i in arg_classes):
            return False
    return True


def congruence_test(spec: Spec, model: Model, samples: int, depth: int = 3,
                    seed: int = 0) -> CongruenceReport:
    """Sample composite terms and swap arguments for bisimilar mates.

    Composites are drawn from the universe so the left term always has
    recorded behaviour; a swapped composite outside the universe is counted
    as skipped, not failed.  A violation carries the pair's distinguishing
    depth, read off the same refinement, or None beyond depth.

    When the class-signature groups settle the report (_groups_settle: every
    possible swap is in the carrier and bisimilar to its left term), no
    sample is drawn: the report is (samples, samples, 0, ()), the one every
    seed gives.
    """
    if samples < 0:
        raise ValueError("samples must be a natural")
    rounds: list = []
    classes = bisimilarity_classes(model, rounds)
    index = model.index
    cls_of = {s: i for i, cl in enumerate(classes) for s in cl}
    apps = [t for t in model.universe
            if isinstance(t, App) and t.args and t.op in spec.sig]
    if not apps or samples <= 0:
        return CongruenceReport(samples, 0, 0, ())
    if _groups_settle(model.carrier(), apps, classes, cls_of):
        return CongruenceReport(samples, samples, 0, ())
    rng = random.Random(seed)
    members = [sorted(cl, key=term_key) for cl in classes]
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
            sep = _separating_round(rounds, index[left], index[right])
            violations.append(CongruenceViolation(
                left.op, left.params, left, right, sep if sep <= depth else None))
    return CongruenceReport(samples, checked, skipped, tuple(violations))


# --- the law suite -----------------------------------------------------------------


LAW_POLICY = UniversePolicy(max_count=240, max_size=14)  # caps the lifted universes
LAW_MAX_TERMS = 150  # caps the terms whose homomorphism squares T1 and T2-mu check


class LawResult(Record):
    __slots__ = ("law", "status", "witness")  # status: pass | fail | inconclusive
    _defaults = {"witness": None}

    def to_json(self) -> dict:
        return {"law": self.law, "status": self.status, "witness": self.witness}


def _fresh_name(name: str, sig) -> str:
    while name in sig:
        name += "_"
    return name


def default_generators(kind: BehaviourKind, sig) -> tuple:
    """A one-state loop and a two-state chain into a loop, on one label: the
    least of a finite alphabet, else the natural 1."""
    lab = 1 if kind.labels is None else min(kind.labels, key=label_key)

    def loop(s):
        return kind.conclusion_value(lab, s)

    gx = _fresh_name("gx", sig)
    gp = _fresh_name("gp", sig)
    gq = _fresh_name("gq", sig)
    g1 = GenCoalgebra((gx,), {gx: loop(gx)})
    g2 = GenCoalgebra((gp, gq), {gp: loop(gq), gq: loop(gq)})
    return (g1, g2)


def is_homomorphism(kind: BehaviourKind, gsrc: GenCoalgebra, gdst: GenCoalgebra,
                    hom: Mapping) -> bool:
    """Every source state has an image in the target, and relabelling the
    source dynamics gives the target dynamics."""
    if any(hom.get(x) not in gdst.dynamics for x in gsrc.states):
        return False
    return all(kind.map_states(hom, gsrc.dynamics[x]) == gdst.dynamics[hom[x]]
               for x in gsrc.states)


def _lift_seeds(spec: Spec, gen: GenCoalgebra) -> list:
    """Constants plus depth-1 composites over the first generator state."""
    seeds = [App(c) for c in spec.sig.constants()]
    if gen.states:
        x0 = Var(gen.states[0])
        for op in spec.sig.operators():
            if op.arity >= 1:
                params = tuple(1 for _ in range(op.param_count))
                seeds.append(App(op.name, params, (x0,) * op.arity))
    return seeds


def _prune_gen(kind, gen: GenCoalgebra) -> GenCoalgebra:
    # erase the last state's behaviour: pointwise below the original
    dyn = dict(gen.dynamics)
    dyn[gen.states[-1]] = kind.bottom()
    return GenCoalgebra(gen.states, dyn)


def law_pointwise_unfolding(kind: BehaviourKind, gen: GenCoalgebra) -> LawResult:
    """L3: a pointwise-smaller coalgebra has pointwise-similar unfoldings.
    Labelled similarity relates only equal roots, and the identity relation
    lifts to the order, so at every depth this is kind.leq on each state.

    The smaller coalgebra is _prune_gen's, whose value at each state is the
    original or bottom, so kind.leq holds by construction and the fail
    branch cannot run: the check never reads the spec, and a pass shows
    only that the kind's order has bottom below every value and is
    reflexive."""
    if not gen.states:
        return LawResult("L3", "inconclusive", "empty generator")
    pruned = _prune_gen(kind, gen)
    for x in gen.states:
        if not kind.leq(pruned.dynamics[x], gen.dynamics[x]):
            return LawResult("L3", "fail", {"state": x})
    return LawResult("L3", "pass", {"states": len(gen.states)})


def law_hom_preserves_similarity(kind: BehaviourKind, gsrc: GenCoalgebra,
                                 gdst: GenCoalgebra, hom: Mapping) -> LawResult:
    """L2: the image under hom of the greatest simulation on the source lies
    in the greatest simulation on the target."""
    if not is_homomorphism(kind, gsrc, gdst, hom):
        return LawResult("L2", "inconclusive", "supplied map is not a homomorphism")
    msrc = gen_to_model(kind, gsrc)
    mdst = gen_to_model(kind, gdst)
    similar = greatest_simulation(msrc, msrc)
    target = greatest_simulation(mdst, mdst)
    for x in gsrc.states:
        for y in gsrc.states:
            if ((Var(x), Var(y)) in similar
                    and (Var(hom[x]), Var(hom[y])) not in target):
                return LawResult("L2", "fail", {"pair": [x, y]})
    if not similar:
        return LawResult("L2", "inconclusive", "no similar pairs")
    return LawResult("L2", "pass", {"pairs": len(similar)})


def _square(law: str, src: Model, dst: Model, term_map) -> LawResult:
    """term_map is a homomorphism from src to dst: the square
    map(term_map, src(t)) == dst(term_map(t)) commutes on the first
    LAW_MAX_TERMS source terms, which gives equal unfoldings at every depth.  Images
    outside dst are skipped, and so are tainted terms on either side: only an
    untainted term's step is the untruncated one."""
    known = set(dst.universe)
    checked = skipped = 0
    for t in src.universe[:LAW_MAX_TERMS]:
        image = term_map(t)
        if image not in known or t in src.tainted or image in dst.tainted:
            skipped += 1
            continue
        checked += 1
        if src.kind.map_states(term_map, src.step(t)) != dst.step(image):
            return LawResult(law, "fail", {"term": print_term(t)})
    if not checked:
        return LawResult(law, "inconclusive", "universe too small")
    return LawResult(law, "pass", {"checked": checked, "skipped": skipped})


def law_term_map_hom(spec: Spec, gsrc: GenCoalgebra, gdst: GenCoalgebra,
                     hom: Mapping, policy: UniversePolicy) -> LawResult:
    """T1: the term-map extension of a homomorphism is a homomorphism."""
    if not is_homomorphism(spec.kind, gsrc, gdst, hom):
        return LawResult("T1", "inconclusive", "supplied map is not a homomorphism")
    lift_src = lift_coalgebra(spec, gsrc, _lift_seeds(spec, gsrc), policy)
    binding = {x: Var(hom[x]) for x in gsrc.states}

    def tmap(t: Term) -> Term:
        return substitute(t, binding)

    images = [tmap(t) for t in lift_src.universe]
    lift_dst = lift_coalgebra(spec, gdst, _lift_seeds(spec, gdst) + images, policy)
    return _square("T1", lift_src, lift_dst, tmap)


def law_unit_hom(gen: GenCoalgebra, lifted: Model) -> LawResult:
    """T2-eta: generator states keep their dynamics verbatim inside lifted,
    the lift of gen."""
    kind = lifted.kind
    if not gen.states:
        return LawResult("T2-eta", "inconclusive", "empty generator")
    for x in gen.states:
        want = kind.map_states(lambda y: Var(y), gen.dynamics[x])
        if lifted.step(Var(x)) != want:
            return LawResult("T2-eta", "fail", {"state": x})
    return LawResult("T2-eta", "pass", {"states": len(gen.states)})


def doubled_lift(spec: Spec, inner: Model, policy: UniversePolicy) -> tuple:
    """Lift the lifted model again, inner carrier terms becoming states.

    Returns (outer generator, outer model, decode) where decode maps a
    generator state name back to the inner term it stands for.  State names
    are synthetic (q0, q1, ...) because printed terms may collide with
    operator names.
    """
    carrier = inner.carrier()
    names: dict = {}
    decode: dict = {}
    for i, t in enumerate(carrier):
        name = _fresh_name(f"q{i}", spec.sig)
        names[t] = name
        decode[name] = t
    # a frontier term's step is bottom, and so is its renaming
    dyn = {names[t]: spec.kind.map_states(names, inner.step(t)) for t in carrier}
    gen = GenCoalgebra(tuple(names[t] for t in carrier), dyn)
    outer = lift_coalgebra(spec, gen, _lift_seeds(spec, gen), policy)
    return gen, outer, decode


def law_flatten_hom(inner: Model, outer: Model, decode: Mapping) -> LawResult:
    """T2-mu: substituting inner terms for their state names is a
    homomorphism from the doubled lift onto the inner lift."""
    binding = dict(decode)
    return _square("T2-mu", outer, inner, lambda t: substitute(t, binding))


def law_suite(spec: Spec, policy: UniversePolicy = LAW_POLICY) -> tuple:
    """Run the five law checks, with policy capping the lifted universes;
    results in a fixed order.  The laws run over default_generators (a
    one-state loop and a two-state chain), with the chain collapsed onto the
    loop as the homomorphism."""
    kind = spec.kind
    gsmall, gbig = default_generators(kind, spec.sig)
    hom = {x: gsmall.states[0] for x in gbig.states}  # collapse the chain onto the loop

    results = [
        law_pointwise_unfolding(kind, gbig),
        law_hom_preserves_similarity(kind, gbig, gsmall, hom),
        law_term_map_hom(spec, gbig, gsmall, hom, policy),
    ]
    inner = lift_coalgebra(spec, gsmall, _lift_seeds(spec, gsmall), policy)
    results.append(law_unit_hom(gsmall, inner))
    _, outer, decode = doubled_lift(spec, inner, policy)
    results.append(law_flatten_hom(inner, outer, decode))
    return tuple(results)


def suite_to_json(results: Iterable[LawResult]) -> list:
    return [r.to_json() for r in results]
