"""Behaviour kinds: order laws, joins, functor laws, relation lifting."""

import itertools
import pathlib
import re

import pytest
from hypothesis import given, strategies as st

import bigsos
from bigsos.behaviour import (BOTTOM, CountableLTS, LtsValue,
                              PartialStream, Relation, StreamStep, WeightedLTS,
                              WtsValue, rel_pairs)
from bigsos.errors import CarrierMismatchError, InconsistentStreamError

STREAM = PartialStream()                      # labels drawn from the naturals
STREAM_AB = PartialStream(frozenset({"a", "b"}))
LTS = CountableLTS(frozenset({"a", "b"}))
WTS = WeightedLTS(frozenset({"a", "b"}))

STATES = ("p", "q", "r")


# --- value strategies ----------------------------------------------------------------

stream_values = st.one_of(
    st.just(BOTTOM),
    st.builds(StreamStep, st.integers(0, 3), st.sampled_from(STATES)),
)

lts_values = st.builds(
    lambda rows: LtsValue.make(rows),
    st.dictionaries(st.sampled_from(("a", "b")),
                    st.frozensets(st.sampled_from(STATES), max_size=3),
                    max_size=2),
)

wts_values = st.builds(
    lambda rows: WtsValue.make(rows),
    st.dictionaries(st.sampled_from(("a", "b")),
                    st.dictionaries(st.sampled_from(STATES),
                                    st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                                    max_size=3),
                    max_size=2),
)

relations = st.frozensets(
    st.tuples(st.sampled_from(STATES), st.sampled_from(STATES)), max_size=9)


def kind_values(kind):
    return {"stream": stream_values, "lts": lts_values, "wts": wts_values}[kind.name]


# --- construction --------------------------------------------------------------------


def test_lts_make_drops_empty_rows():
    v = LtsValue.make({"a": frozenset(), "b": frozenset({"p"})})
    assert v.labels() == ("b",)
    assert v == LtsValue.make({"b": {"p"}})


def test_wts_make_drops_zero_weights():
    v = WtsValue.make({"a": {"p": 0.0, "q": 2.0}})
    assert v.weight("a", "p") == 0.0
    assert v.weight("a", "q") == 2.0
    assert v == WtsValue.make({"a": {"q": 2.0}})


def test_kind_rejects_foreign_values():
    with pytest.raises(CarrierMismatchError):
        LTS.leq(BOTTOM, LTS.bottom())
    with pytest.raises(CarrierMismatchError):
        STREAM.leq(LtsValue.make({}), BOTTOM)


def test_stream_label_domain():
    assert STREAM.has_label(7)
    assert not STREAM.has_label(-1)
    assert not STREAM.has_label(True)
    assert not STREAM.has_label("a")
    assert STREAM_AB.has_label("a")
    assert not STREAM_AB.has_label("c")


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
    small = LtsValue.make({"a": {"p"}})
    big = LtsValue.make({"a": {"p", "q"}, "b": {"r"}})
    assert LTS.leq(small, big)
    assert not LTS.leq(big, small)


def test_wts_order_is_pointwise():
    lo = WtsValue.make({"a": {"p": 1.0}})
    hi = WtsValue.make({"a": {"p": 2.0, "q": 0.5}})
    assert WTS.leq(lo, hi)
    assert not WTS.leq(hi, lo)
    assert WTS.leq(hi, WtsValue.make({"a": {"p": float("inf"), "q": 0.5}}))


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


@pytest.mark.parametrize("kind", [STREAM, STREAM_AB, LTS, WTS],
                         ids=["stream", "stream_ab", "lts", "wts"])
def test_from_transitions_is_the_join_of_conclusion_values(kind):
    labels = sorted(kind.labels) if kind.labels is not None else [0, 1, 2]
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(STATES))

    @given(st.lists(pair, max_size=6))
    def check(pairs):
        try:
            want = kind.join([kind.conclusion_value(lab, s) for lab, s in pairs])
        except InconsistentStreamError as exc:
            with pytest.raises(InconsistentStreamError) as got:
                kind.from_transitions(pairs)
            assert str(got.value) == str(exc)
            return
        assert kind.from_transitions(pairs) == want
        assert kind.from_transitions(iter(pairs[::-1])) == want
    check()


def test_from_transitions_stream_message():
    with pytest.raises(InconsistentStreamError) as got:
        STREAM.from_transitions([(2, "q"), (1, "r"), (2, "p"), (1, "r")])
    assert str(got.value) == "inconsistent stream step: (1, 'r'), (2, 'p'), (2, 'q')"
    assert STREAM.from_transitions([(1, "r"), (1, "r")]) == StreamStep(1, "r")


def test_wts_join_takes_sup():
    a = WtsValue.make({"a": {"p": 1.0}})
    b = WtsValue.make({"a": {"p": 3.0}, "b": {"q": 0.5}})
    j = WTS.join([a, b])
    assert j.weight("a", "p") == 3.0
    assert j.weight("b", "q") == 0.5


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
    v = WtsValue.make({"a": {"p": 1.0, "q": 3.0}})
    merged = WTS.map_states({"p": "z", "q": "z"}, v)
    assert merged.weight("a", "z") == 3.0


def test_lts_map_states_merges():
    v = LtsValue.make({"a": {"p", "q"}})
    merged = LTS.map_states({"p": "z", "q": "z"}, v)
    assert merged == LtsValue.make({"a": {"z"}})


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
    v = LtsValue.make({"a": {"q", "p"}, "b": {"p"}})
    assert LTS.transitions(v) == (("a", "p"), ("a", "q"), ("b", "p"))
    assert LTS.states(v) == frozenset({"p", "q"})
    assert STREAM.transitions(BOTTOM) == ()
    assert STREAM.transitions(StreamStep(3, "p")) == ((3, "p"),)


def test_conclusion_value_shapes():
    assert STREAM.conclusion_value(2, "p") == StreamStep(2, "p")
    assert LTS.conclusion_value("a", "p") == LtsValue.make({"a": {"p"}})
    assert WTS.conclusion_value("a", "p") == WtsValue.make({"a": {"p": 1.0}})


# --- relation lifting ----------------------------------------------------------------


def test_relation_type_checks_carriers():
    r = Relation(("p", "q"), ("x",), frozenset({("p", "x")}))
    assert ("p", "x") in r
    assert ("q", "x") not in r
    with pytest.raises(ValueError):
        Relation(("p",), ("x",), frozenset({("q", "x")}))


def test_rel_pairs_accepts_both():
    raw = frozenset({("p", "x")})
    assert rel_pairs(raw) == raw
    assert rel_pairs(Relation(("p",), ("x",), raw)) == raw
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
    values = [LtsValue.make({"a": set(sub)})
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


def test_no_dispatch_on_kind_names():
    # kind-specific behaviour belongs in the kind classes
    pattern = re.compile(r'kind\.name *[=!]=|[=!]= *"(stream|lts|wts)"'
                         r'|"(stream|lts|wts)" *[=!]=')
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(pathlib.Path(bigsos.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]
    assert hits == []
