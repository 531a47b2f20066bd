"""Behaviour kinds: order laws, joins, functor laws, relation lifting."""

import itertools
import pathlib
import re

import pytest
from hypothesis import given, strategies as st

import bigsos
from bigsos.behaviour import (BOTTOM, CountableLTS, PartialStream, Relation, StreamStep,
                              WeightedLTS, rel_pairs)
from bigsos.errors import CarrierMismatchError, InconsistentStreamError
from conftest import lts_value, wts_value, wts_weight

STREAM = PartialStream()                      # labels drawn from the naturals
STREAM_AB = PartialStream(frozenset({"a", "b"}))
LTS = CountableLTS(frozenset({"a", "b"}))
WTS = WeightedLTS(frozenset({"a", "b"}))

STATES = ("p", "q", "r")
ALL_KINDS = [STREAM, STREAM_AB, LTS, WTS]
ALL_KIND_IDS = ["stream", "stream_ab", "lts", "wts"]


# --- value strategies ----------------------------------------------------------------

stream_values = st.one_of(
    st.just(BOTTOM),
    st.builds(StreamStep, st.integers(0, 3), st.sampled_from(STATES)),
)

stream_ab_values = st.one_of(
    st.just(BOTTOM),
    st.builds(StreamStep, st.sampled_from(("a", "b")), st.sampled_from(STATES)),
)

lts_values = st.builds(
    lts_value,
    st.dictionaries(st.sampled_from(("a", "b")),
                    st.frozensets(st.sampled_from(STATES), max_size=3),
                    max_size=2),
)

wts_values = st.builds(
    wts_value,
    st.dictionaries(st.sampled_from(("a", "b")),
                    st.dictionaries(st.sampled_from(STATES),
                                    st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                                    max_size=3),
                    max_size=2),
)

relations = st.frozensets(
    st.tuples(st.sampled_from(STATES), st.sampled_from(STATES)), max_size=9)


def kind_values(kind):
    if kind == STREAM_AB:
        return stream_ab_values
    return {"stream": stream_values, "lts": lts_values, "wts": wts_values}[kind.name]


def kind_labels(kind) -> list:
    return sorted(kind.labels) if kind.labels is not None else [0, 1, 2]


# --- construction --------------------------------------------------------------------


def test_lts_make_drops_empty_rows():
    v = lts_value({"a": frozenset(), "b": frozenset({"p"})})
    assert v.labels() == ("b",)
    assert v == lts_value({"b": {"p"}})


def test_wts_make_drops_zero_weights():
    v = wts_value({"a": {"p": 0.0, "q": 2.0}})
    assert wts_weight(v, "a", "p") == 0.0
    assert wts_weight(v, "a", "q") == 2.0
    assert v == wts_value({"a": {"q": 2.0}})


def test_kind_rejects_foreign_values():
    with pytest.raises(CarrierMismatchError):
        LTS.leq(BOTTOM, LTS.bottom())
    with pytest.raises(CarrierMismatchError):
        STREAM.leq(lts_value({}), BOTTOM)


def test_stream_label_domain():
    assert STREAM.has_label(7)
    assert not STREAM.has_label(-1)
    assert not STREAM.has_label(True)
    assert not STREAM.has_label("a")
    assert STREAM_AB.has_label("a")
    assert not STREAM_AB.has_label("c")


def test_stream_step_keeps_its_move_outside_equality():
    a, b = StreamStep(1, "p"), StreamStep(1, "p")
    assert STREAM.moves(a) is a.moves == ((1, "p", 1),)
    assert a == b and hash(a) == hash((1, "p")) and repr(a) == "StreamStep(label=1, state='p')"
    assert StreamStep(a.label, "q").moves == ((1, "q", 1),) and StreamStep(1, "q") != a


# --- preorder laws -------------------------------------------------------------------


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_bottom_is_least(kind):
    @given(kind_values(kind))
    def check(v):
        assert kind.leq(kind.bottom(), v)
        assert kind.is_bottom(kind.bottom())
    check()


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_leq_reflexive_transitive(kind):
    @given(kind_values(kind), kind_values(kind), kind_values(kind))
    def check(a, b, c):
        assert kind.leq(a, a)
        if kind.leq(a, b) and kind.leq(b, c):
            assert kind.leq(a, c)
    check()


def test_stream_order_is_flat():
    a = StreamStep(1, "p")
    b = StreamStep(2, "p")
    assert STREAM.leq(BOTTOM, a)
    assert STREAM.leq(a, a)
    assert not STREAM.leq(a, b)
    assert not STREAM.leq(a, BOTTOM)


def test_lts_order_is_inclusion():
    small = lts_value({"a": {"p"}})
    big = lts_value({"a": {"p", "q"}, "b": {"r"}})
    assert LTS.leq(small, big)
    assert not LTS.leq(big, small)


def test_wts_order_is_pointwise():
    lo = wts_value({"a": {"p": 1.0}})
    hi = wts_value({"a": {"p": 2.0, "q": 0.5}})
    assert WTS.leq(lo, hi)
    assert not WTS.leq(hi, lo)
    assert WTS.leq(hi, wts_value({"a": {"p": float("inf"), "q": 0.5}}))


# --- joins ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [LTS, WTS], ids=lambda k: k.name)
def test_join_is_least_upper_bound(kind):
    @given(kind_values(kind), kind_values(kind), kind_values(kind))
    def check(a, b, c):
        j = kind.join([a, b])
        assert kind.leq(a, j) and kind.leq(b, j)
        if kind.leq(a, c) and kind.leq(b, c):
            assert kind.leq(j, c)
    check()


def test_join_empty_is_bottom():
    for kind in (STREAM, LTS, WTS):
        assert kind.is_bottom(kind.join([]))


def test_stream_join_consistency():
    s = StreamStep(1, "p")
    assert STREAM.join([BOTTOM, s, BOTTOM]) == s
    assert STREAM.join([s, s]) == s
    with pytest.raises(InconsistentStreamError):
        STREAM.join([s, StreamStep(2, "p")])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=ALL_KIND_IDS)
def test_from_moves_is_the_join_of_conclusion_values(kind):
    move = st.tuples(st.sampled_from(kind_labels(kind)), st.sampled_from(STATES), st.just(1))

    @given(st.lists(move, max_size=6))
    def check(moves):
        try:
            want = kind.join([kind.conclusion_value(lab, s) for lab, s, _ in moves])
        except InconsistentStreamError as exc:
            with pytest.raises(InconsistentStreamError) as got:
                kind.from_moves(moves)
            assert str(got.value) == str(exc)
            return
        assert kind.from_moves(moves) == want
        assert kind.from_moves(iter(moves[::-1])) == want
    check()


def test_from_moves_stream_message():
    with pytest.raises(InconsistentStreamError) as got:
        STREAM.from_moves([(2, "q", 1), (1, "r", 1), (2, "p", 1), (1, "r", 1)])
    assert str(got.value) == "inconsistent stream step: (1, 'r'), (2, 'p'), (2, 'q')"
    assert STREAM.from_moves([(1, "r", 1), (1, "r", 1)]) == StreamStep(1, "r")


def test_wts_join_takes_sup():
    a = wts_value({"a": {"p": 1.0}})
    b = wts_value({"a": {"p": 3.0}, "b": {"q": 0.5}})
    j = WTS.join([a, b])
    assert wts_weight(j, "a", "p") == 3.0
    assert wts_weight(j, "b", "q") == 0.5


# --- functor laws --------------------------------------------------------------------


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_map_states_identity(kind):
    @given(kind_values(kind))
    def check(v):
        assert kind.map_states(lambda s: s, v) == v
    check()


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_map_states_composes(kind):
    f = {"p": "x", "q": "y", "r": "x"}
    g = {"x": "u", "y": "u"}

    @given(kind_values(kind))
    def check(v):
        one = kind.map_states(g, kind.map_states(f, v))
        two = kind.map_states(lambda s: g[f[s]], v)
        assert one == two
    check()


def test_wts_map_states_merges_by_sup():
    v = wts_value({"a": {"p": 1.0, "q": 3.0}})
    merged = WTS.map_states({"p": "z", "q": "z"}, v)
    assert wts_weight(merged, "a", "z") == 3.0


def test_lts_map_states_merges():
    v = lts_value({"a": {"p", "q"}})
    merged = LTS.map_states({"p": "z", "q": "z"}, v)
    assert merged == lts_value({"a": {"z"}})


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_map_states_monotone(kind):
    f = {"p": "x", "q": "x", "r": "y"}

    @given(kind_values(kind), kind_values(kind))
    def check(a, b):
        if kind.leq(a, b):
            assert kind.leq(kind.map_states(f, a), kind.map_states(f, b))
    check()


# --- transitions and states ----------------------------------------------------------


def test_transitions_enumerate_moves():
    v = lts_value({"a": {"q", "p"}, "b": {"p"}})
    assert LTS.transitions(v) == (("a", "p"), ("a", "q"), ("b", "p"))
    assert LTS.states(v) == frozenset({"p", "q"})
    assert STREAM.transitions(BOTTOM) == ()
    assert STREAM.transitions(StreamStep(3, "p")) == ((3, "p"),)


def test_conclusion_value_shapes():
    assert STREAM.conclusion_value(2, "p") == StreamStep(2, "p")
    assert LTS.conclusion_value("a", "p") == lts_value({"a": {"p"}})
    assert WTS.conclusion_value("a", "p") == wts_value({"a": {"p": 1.0}})


# --- the kind contract ---------------------------------------------------------------
#
# Every operation but moves, from_moves, rendering and the search oracle is
# derived from moves and from_moves.  The oracles below are the per-kind code
# each kind had before the derivation, kept to check the derived operations
# against; none of them passes two moves with one label and state to
# from_moves, so a fault in its merging cannot hide in them.


def oracle_leq(kind, b, c) -> bool:
    kind.moves(b), kind.moves(c)  # the carrier check
    if kind.name == "stream":
        return b == BOTTOM or b == c
    if kind.name == "lts":
        return all(set(b.successors(lab)) <= set(c.successors(lab)) for lab in b.labels())
    return all(w <= wts_weight(c, lab, s) for lab, s, w in b.moves)


def oracle_join(kind, values):
    if kind.name == "stream":
        steps = {(v.label, v.state) for v in values if v != BOTTOM}
        if len(steps) > 1:
            raise InconsistentStreamError("inconsistent")
        return StreamStep(*steps.pop()) if steps else BOTTOM
    if kind.name == "lts":
        acc = {}
        for v in values:
            for lab in v.labels():
                acc.setdefault(lab, set()).update(v.successors(lab))
        return lts_value(acc)
    acc = {}
    for v in values:
        for lab, s, w in v.moves:
            bucket = acc.setdefault(lab, {})
            bucket[s] = max(bucket.get(s, 0.0), w)
    return wts_value(acc)


def oracle_map_states(kind, h, v):
    if kind.name == "stream":
        return BOTTOM if v == BOTTOM else StreamStep(v.label, h[v.state])
    if kind.name == "lts":
        return lts_value({lab: {h[s] for s in v.successors(lab)} for lab in v.labels()})
    acc = {}
    for lab, s, w in v.moves:  # merged states take the sup of their weights
        bucket = acc.setdefault(lab, {})
        bucket[h[s]] = max(bucket.get(h[s], 0.0), w)
    return wts_value(acc)


def oracle_conclusion_value(kind, label, target):
    return {"stream": StreamStep(label, target), "lts": lts_value({label: {target}}),
            "wts": wts_value({label: {target: 1.0}})}[kind.name]


def outcome(thunk):
    try:
        return thunk()
    except InconsistentStreamError:
        return InconsistentStreamError


# Value pairs checked on every run besides the random ones: one state under
# two weights, where dropping the sup in from_moves or the weights in leq
# gives a wrong answer.
CONTRACT_CASES = {"wts": [(wts_value({"a": {"p": 2.0}}),
                           wts_value({"a": {"p": 1.0, "q": 0.5}}))]}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=ALL_KIND_IDS)
def test_kind_contract(kind):
    identity = frozenset((s, s) for s in STATES)
    merge = {"p": "x", "q": "x", "r": "y"}
    values = kind_values(kind)

    def check(b, c, lab, s):
        assert kind.from_moves(kind.moves(b)) == b
        assert kind.leq(b, c) == kind.rel_lift_search(identity, b, c) == oracle_leq(kind, b, c)
        assert outcome(lambda: kind.join([b, c])) == outcome(lambda: oracle_join(kind, [b, c]))
        assert kind.map_states(merge, b) == oracle_map_states(kind, merge, b)
        assert kind.conclusion_value(lab, s) == oracle_conclusion_value(kind, lab, s)

    for b, c in CONTRACT_CASES.get(kind.name, ()):
        check(b, c, "a", "p")
        check(c, b, "a", "p")
    given(values, values, st.sampled_from(kind_labels(kind)), st.sampled_from(STATES))(check)()


# --- relation lifting ----------------------------------------------------------------


def test_relation_type_checks_carriers():
    r = Relation(("p", "q"), ("x",), (1, 0))
    assert ("p", "x") in r
    assert ("q", "x") not in r and ("z", "x") not in r and ("p", "z") not in r
    assert r == Relation.from_pairs(("p", "q"), ("x",), frozenset({("p", "x")}))
    with pytest.raises(ValueError):
        Relation.from_pairs(("p",), ("x",), frozenset({("q", "x")}))
    with pytest.raises(ValueError):
        Relation(("p",), ("x",), (2,))


def test_rel_pairs_accepts_both():
    raw = frozenset({("p", "x")})
    assert rel_pairs(raw) == raw
    assert rel_pairs(Relation.from_pairs(("p",), ("x",), raw)) == raw
    assert rel_pairs([("p", "x")]) == raw


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_lift_of_diagonal_is_leq(kind):
    diag = frozenset((s, s) for s in STATES)

    @given(kind_values(kind), kind_values(kind))
    def check(a, b):
        assert kind.rel_lift(diag, a, b) == kind.leq(a, b)
    check()


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_lift_monotone_in_relation(kind):
    @given(relations, relations, kind_values(kind), kind_values(kind))
    def check(r1, r2, a, b):
        if r1 <= r2 and kind.rel_lift(r1, a, b):
            assert kind.rel_lift(r2, a, b)
    check()


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_bottom_lifts_to_anything(kind):
    @given(kind_values(kind))
    def check(v):
        assert kind.rel_lift(frozenset(), kind.bottom(), v)
    check()


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_fast_path_matches_witness_search(kind):
    @given(relations, kind_values(kind), kind_values(kind))
    def check(r, a, b):
        assert kind.rel_lift(r, a, b) == kind.rel_lift_search(r, a, b)
    check()


def lift_by_moves(kind, pairs, b, c):
    """The kind.moves contract: every move of b is matched by a move of c with
    the same label, at least its weight and a related state."""
    have = kind.moves(c)
    return all(any(lab2 == lab and w2 >= w and (s, t) in pairs for lab2, t, w2 in have)
               for lab, s, w in kind.moves(b))


@pytest.mark.parametrize("kind", [STREAM, LTS, WTS], ids=lambda k: k.name)
def test_moves_contract_matches_lifting(kind):
    @given(relations, kind_values(kind), kind_values(kind))
    def check(r, a, b):
        want = kind.rel_lift(r, a, b)
        assert lift_by_moves(kind, r, a, b) == want == kind.rel_lift_search(r, a, b)
        assert {(lab, s) for lab, s, _ in kind.moves(a)} == set(kind.transitions(a))
    check()


def test_exhaustive_lift_agreement_tiny_carrier():
    # two states, one label: small enough to sweep every value pair and relation
    kind = CountableLTS(frozenset({"a"}))
    carrier = ("s", "t")
    values = [lts_value({"a": set(sub)})
              for k in range(3)
              for sub in itertools.combinations(carrier, k)]
    rels = [frozenset(sub)
            for k in range(5)
            for sub in itertools.combinations(
                tuple(itertools.product(carrier, carrier)), k)]
    for a in values:
        for b in values:
            for r in rels:
                assert kind.rel_lift(r, a, b) == kind.rel_lift_search(r, a, b)


# --- one interface -------------------------------------------------------------------


def own_methods(cls) -> set:
    return {name for name, attr in vars(cls).items()
            if callable(attr) and not name.startswith("_")}


def test_kinds_define_one_interface_in_their_own_bodies():
    # vars, not dir: bench/spans.py traces a method by patching it in each
    # class's own __dict__, so none may be inherited from a shared base
    methods = {cls.__name__: own_methods(cls)
               for cls in (PartialStream, CountableLTS, WeightedLTS)}
    assert {"conclusion_value", "join", "leq", "rel_lift", "map_states",
            "tree_json", "arrow"} <= methods["PartialStream"]
    for name, own in methods.items():
        assert own == methods["PartialStream"], name


def test_kinds_share_one_relation_lifting():
    # one lifting read off kind.moves; each kind keeps its own search oracle
    lifts = {vars(cls)["rel_lift"] for cls in (PartialStream, CountableLTS, WeightedLTS)}
    searches = {vars(cls)["rel_lift_search"]
                for cls in (PartialStream, CountableLTS, WeightedLTS)}
    assert len(lifts) == 1 and len(searches) == 3


def test_kinds_share_the_derived_operations():
    # each derived operation is one function, bound in every kind class's own
    # __dict__, where bench/spans.py patches it
    derived = ("rel_lift", "leq", "join", "map_states", "conclusion_value", "is_bottom",
               "has_label", "states", "transitions")
    for name in derived:
        assert len({vars(cls)[name] for cls in (PartialStream, CountableLTS, WeightedLTS)}) == 1


def test_no_dispatch_on_kind_names():
    # kind-specific behaviour belongs in the kind classes
    pattern = re.compile(r'kind\.name *[=!]=|[=!]= *"(stream|lts|wts)"'
                         r'|"(stream|lts|wts)" *[=!]=')
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(pathlib.Path(bigsos.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]
    assert hits == []
