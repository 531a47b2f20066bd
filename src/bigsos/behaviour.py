"""Ordered one-step behaviour shapes.

Three kinds are provided: partial streams (one observation then a successor,
or bottom), finitely-branching labelled transition systems ordered by
pointwise inclusion, and weighted systems over the complete monoid
(R+ with infinity, sup).  Each kind bundles its bottom element, the order,
joins, state relabelling and its moves, plus the rendering helpers the rest
of the package needs, so no caller dispatches on the kind.  The lax relation
lifting used by simulations is one function, read off the moves, that every
kind binds as its rel_lift.

Values are immutable and canonicalized (sorted, empty entries dropped) so
structural equality and hashing behave.  The carrier is implicit: states can
be terms, strings, or class indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Union

from .errors import CarrierMismatchError, InconsistentStreamError, StateMapError
from .terms import App, Var, print_term


def state_key(s):
    """Total order on the state types that occur in practice."""
    k = getattr(s, "sort_key", None)
    if k is not None:
        return k()
    if isinstance(s, bool):
        return ("b", s)
    if isinstance(s, int):
        return ("i", s)
    if isinstance(s, str):
        return ("s", s)
    return ("r", repr(s))


def _show_state(s) -> str:
    return print_term(s) if isinstance(s, (App, Var)) else repr(s)


def label_key(lab):
    return (0, lab) if isinstance(lab, int) else (1, str(lab))


def _apply(h, s):
    if callable(h):
        return h(s)
    try:
        return h[s]
    except KeyError:
        raise StateMapError(f"state map undefined for {s!r}") from None


@dataclass(frozen=True)
class Bottom:
    """The undefined stream observation."""

    def __repr__(self):
        return "BOTTOM"


BOTTOM = Bottom()


@dataclass(frozen=True)
class StreamStep:
    label: Any
    state: Any


@dataclass(frozen=True)
class LtsValue:
    """Finite successor sets per label; empty entries are never stored."""

    moves: tuple = ()

    @staticmethod
    def make(mapping: Mapping) -> "LtsValue":
        entries = []
        for lab in sorted(mapping, key=label_key):
            states = tuple(sorted(set(mapping[lab]), key=state_key))
            if states:
                entries.append((lab, states))
        return LtsValue(tuple(entries))

    def successors(self, lab) -> tuple:
        for have, states in self.moves:
            if have == lab:
                return states
        return ()

    def labels(self) -> tuple:
        return tuple(lab for lab, _ in self.moves)


@dataclass(frozen=True)
class WtsValue:
    """Finitely supported weight maps per label; zero weights are dropped."""

    moves: tuple = ()

    @staticmethod
    def make(mapping: Mapping) -> "WtsValue":
        entries = []
        for lab in sorted(mapping, key=label_key):
            row = tuple((s, float(w)) for s, w in sorted(mapping[lab].items(),
                                                         key=lambda it: state_key(it[0]))
                        if w > 0)
            if row:
                entries.append((lab, row))
        return WtsValue(tuple(entries))

    def weight(self, lab, state) -> float:
        for have, row in self.moves:
            if have == lab:
                for s, w in row:
                    if s == state:
                        return w
        return 0.0

    def labels(self) -> tuple:
        return tuple(lab for lab, _ in self.moves)


BehaviourValue = Union[Bottom, StreamStep, LtsValue, WtsValue]


@dataclass(frozen=True)
class Relation:
    """Binary relation between two finite state carriers."""

    left: tuple
    right: tuple
    pairs: frozenset

    def __post_init__(self):
        ls, rs = set(self.left), set(self.right)
        for s, t in self.pairs:
            if s not in ls or t not in rs:
                raise ValueError(f"relation pair ({s!r}, {t!r}) outside its carriers")

    def __contains__(self, pair) -> bool:
        return pair in self.pairs


def rel_pairs(rel):
    """Liftings accept a Relation or any collection of pairs; sets are read
    in place, not copied."""
    if isinstance(rel, Relation):
        return rel.pairs
    return rel if isinstance(rel, (set, frozenset)) else frozenset(rel)


def _rel_lift(kind, pairs, b, c) -> bool:
    """The lax relation lifting of every kind, read off kind.moves: b lifts
    to c over pairs iff every move (a, s, w) of b is matched by a move
    (a, t, w') of c with w' >= w and (s, t) in pairs.  Each kind binds it
    as its rel_lift; its own rel_lift_search is the definitional oracle."""
    pairs = rel_pairs(pairs)
    have = kind.moves(c)
    return all(any(a2 == a and w2 >= w and (s, t) in pairs for a2, t, w2 in have)
               for a, s, w in kind.moves(b))


@dataclass(frozen=True)
class PartialStream:
    """One labelled observation and a successor state, or bottom.

    labels None means the naturals; a frozenset means a finite alphabet.
    The order is flat: bottom below everything, steps only below themselves.
    """

    labels: frozenset | None = None

    name = "stream"

    def has_label(self, lab) -> bool:
        if self.labels is None:
            return isinstance(lab, int) and not isinstance(lab, bool) and lab >= 0
        return lab in self.labels

    def _check(self, v):
        if not isinstance(v, (Bottom, StreamStep)):
            raise CarrierMismatchError(f"not a stream value: {v!r}")

    def bottom(self):
        return BOTTOM

    def is_bottom(self, v) -> bool:
        return isinstance(v, Bottom)

    def leq(self, b, c) -> bool:
        self._check(b)
        self._check(c)
        return isinstance(b, Bottom) or b == c

    def join(self, values: Iterable):
        return self.from_transitions({p for v in values for p in self.transitions(v)})

    def from_transitions(self, pairs: Iterable):
        """The join of the conclusion values of the (label, state) pairs."""
        steps = set(pairs)
        if not steps:
            return BOTTOM
        if len(steps) > 1:
            shown = ", ".join(f"({lab}, {_show_state(s)})" for lab, s in
                              sorted(steps, key=lambda p: (label_key(p[0]), state_key(p[1]))))
            raise InconsistentStreamError(f"inconsistent stream step: {shown}")
        return StreamStep(*steps.pop())

    def map_states(self, h, v):
        self._check(v)
        if isinstance(v, Bottom):
            return BOTTOM
        return StreamStep(v.label, _apply(h, v.state))

    def transitions(self, v) -> tuple:
        self._check(v)
        if isinstance(v, Bottom):
            return ()
        return ((v.label, v.state),)

    def states(self, v) -> frozenset:
        self._check(v)
        return frozenset() if isinstance(v, Bottom) else frozenset((v.state,))

    def moves(self, v) -> tuple:
        """(label, state, weight) of each move, weight 1 here and in lts;
        rel_lift and the greatest simulation read the lifting off them."""
        self._check(v)
        return () if isinstance(v, Bottom) else ((v.label, v.state, 1),)

    def conclusion_value(self, label, target):
        return StreamStep(label, target)

    rel_lift = _rel_lift

    def rel_lift_search(self, pairs, b, c) -> bool:
        """Witness enumeration straight from the definition (test oracle)."""
        pairs = rel_pairs(pairs)
        self._check(b)
        self._check(c)
        labs = {v.label for v in (b, c) if isinstance(v, StreamStep)}
        candidates: list = [BOTTOM]
        candidates += [StreamStep(lab, pr) for lab in sorted(labs, key=label_key)
                       for pr in pairs]
        for d in candidates:
            left = self.map_states(lambda p: p[0], d) if isinstance(d, StreamStep) else BOTTOM
            right = self.map_states(lambda p: p[1], d) if isinstance(d, StreamStep) else BOTTOM
            if self.leq(b, left) and self.leq(right, c):
                return True
        return False

    def value_json(self, v, state_repr: Callable):
        self._check(v)
        if isinstance(v, Bottom):
            return None
        return {"label": v.label, "next": state_repr(v.state)}

    tree_json = value_json

    def arrow(self, lab, w) -> str:
        return f"-{lab}->"


@dataclass(frozen=True)
class CountableLTS:
    """Labelled transition system over a finite alphabet, ordered by inclusion."""

    labels: frozenset

    name = "lts"

    def __post_init__(self):
        if self.labels is None:
            raise ValueError(f"{self.name} needs a finite label alphabet")

    def has_label(self, lab) -> bool:
        return lab in self.labels

    def _check(self, v):
        if not isinstance(v, LtsValue):
            raise CarrierMismatchError(f"not an lts value: {v!r}")

    def bottom(self):
        return LtsValue()

    def is_bottom(self, v) -> bool:
        return not v.moves

    def leq(self, b, c) -> bool:
        self._check(b)
        self._check(c)
        return all(set(states) <= set(c.successors(lab)) for lab, states in b.moves)

    def join(self, values: Iterable):
        return self.from_transitions(p for v in values for p in self.transitions(v))

    def from_transitions(self, pairs: Iterable):
        """The join of the conclusion values of the (label, state) pairs."""
        acc: dict = {}
        for lab, s in pairs:
            acc.setdefault(lab, set()).add(s)
        return LtsValue.make(acc)

    def map_states(self, h, v):
        self._check(v)
        return LtsValue.make({lab: {_apply(h, s) for s in states} for lab, states in v.moves})

    def transitions(self, v) -> tuple:
        self._check(v)
        return tuple((lab, s) for lab, states in v.moves for s in states)

    def states(self, v) -> frozenset:
        self._check(v)
        return frozenset(s for _, states in v.moves for s in states)

    def moves(self, v) -> tuple:
        self._check(v)
        return tuple((lab, s, 1) for lab, states in v.moves for s in states)

    def conclusion_value(self, label, target):
        return LtsValue.make({label: {target}})

    rel_lift = _rel_lift

    def rel_lift_search(self, pairs, b, c) -> bool:
        """Exhaustive witness search over B(R) (test oracle).

        B is a product of powersets, so a witness exists iff one exists per
        label; per label we enumerate subsets S of R and ask for
        b(a) <= pi1(S) and pi2(S) <= c(a).
        """
        pairs = rel_pairs(pairs)
        self._check(b)
        self._check(c)
        rel = sorted(pairs, key=lambda p: (state_key(p[0]), state_key(p[1])))
        bit: dict = {}  # state -> its bit, shared by both projections' bitsets

        def bits(states) -> int:
            out = 0
            for s in states:
                out |= 1 << bit.setdefault(s, len(bit))
            return out

        left = [bits((s,)) for s, _ in rel]
        right = [bits((t,)) for _, t in rel]
        for lab, states in b.moves:
            need = bits(states)
            if not need:
                continue  # the empty subset is a witness
            forbidden = ~bits(c.successors(lab))
            # pi1 and pi2 of every subset, each built from one with a bit fewer
            lefts, rights = [0], [0]
            found = False
            for mask in range(1, 1 << len(rel)):
                low = mask & -mask
                i = low.bit_length() - 1
                lo = lefts[mask ^ low] | left[i]
                hi = rights[mask ^ low] | right[i]
                if not hi & forbidden and not need & ~lo:
                    found = True
                    break
                lefts.append(lo)
                rights.append(hi)
            if not found:
                return False
        return True

    def value_json(self, v, state_repr: Callable):
        self._check(v)
        return {str(lab): [state_repr(s) for s in states] for lab, states in v.moves}

    tree_json = value_json

    def arrow(self, lab, w) -> str:
        return f"-{lab}->"


@dataclass(frozen=True)
class WeightedLTS:
    """Weighted transitions over (R+ with infinity, sup); order is pointwise."""

    labels: frozenset

    name = "wts"

    def __post_init__(self):
        if self.labels is None:
            raise ValueError(f"{self.name} needs a finite label alphabet")

    def has_label(self, lab) -> bool:
        return lab in self.labels

    def _check(self, v):
        if not isinstance(v, WtsValue):
            raise CarrierMismatchError(f"not a weighted value: {v!r}")

    def bottom(self):
        return WtsValue()

    def is_bottom(self, v) -> bool:
        return not v.moves

    def leq(self, b, c) -> bool:
        self._check(b)
        self._check(c)
        return all(w <= c.weight(lab, s) for lab, row in b.moves for s, w in row)

    def join(self, values: Iterable):
        acc: dict = {}
        for v in values:
            self._check(v)
            for lab, row in v.moves:
                bucket = acc.setdefault(lab, {})
                for s, w in row:
                    bucket[s] = max(bucket.get(s, 0.0), w)
        return WtsValue.make(acc)

    def from_transitions(self, pairs: Iterable):
        """The join of the conclusion values of the (label, state) pairs."""
        acc: dict = {}
        for lab, s in pairs:
            acc.setdefault(lab, {})[s] = 1.0
        return WtsValue.make(acc)

    def map_states(self, h, v):
        # merged states take the sup of their weights (monoid sum is sup)
        self._check(v)
        acc: dict = {}
        for lab, row in v.moves:
            bucket = acc.setdefault(lab, {})
            for s, w in row:
                t = _apply(h, s)
                bucket[t] = max(bucket.get(t, 0.0), w)
        return WtsValue.make(acc)

    def transitions(self, v) -> tuple:
        self._check(v)
        return tuple((lab, s) for lab, row in v.moves for s, _ in row)

    def states(self, v) -> frozenset:
        self._check(v)
        return frozenset(s for _, row in v.moves for s, _ in row)

    def moves(self, v) -> tuple:
        self._check(v)
        return tuple((lab, s, w) for lab, row in v.moves for s, w in row)

    def conclusion_value(self, label, target):
        return WtsValue.make({label: {target: 1.0}})

    rel_lift = _rel_lift

    def rel_lift_search(self, pairs, b, c) -> bool:
        """Dominating-witness check.

        Any witness d must satisfy d(a)(s,t) <= c(a)(t) (second projection,
        sup-merge), so d*(a)(s,t) = c(a)(t) dominates every candidate; a
        witness exists iff d* itself works.
        """
        pairs = rel_pairs(pairs)
        self._check(b)
        self._check(c)
        labs = set(b.labels()) | set(c.labels())
        star: dict = {}
        for lab in labs:
            row = {}
            for (s, t) in pairs:
                w = c.weight(lab, t)
                if w > 0:
                    row[(s, t)] = max(row.get((s, t), 0.0), w)
            if row:
                star[lab] = row
        d = WtsValue.make(star)
        left = self.map_states(lambda p: p[0], d)
        right = self.map_states(lambda p: p[1], d)
        return self.leq(b, left) and self.leq(right, c)

    def value_json(self, v, state_repr: Callable):
        self._check(v)
        return {str(lab): {state_repr(s): w for s, w in row} for lab, row in v.moves}

    def tree_json(self, v, child_json: Callable):
        """Like value_json, but a state's JSON, its unfold document, cannot
        be a key, so each label maps to [{"weight", "next"}] rows."""
        self._check(v)
        return {str(lab): [{"weight": w, "next": child_json(s)} for s, w in row]
                for lab, row in v.moves}

    def arrow(self, lab, w) -> str:
        return f"-{lab}[{w}]->"


BehaviourKind = Union[PartialStream, CountableLTS, WeightedLTS]
