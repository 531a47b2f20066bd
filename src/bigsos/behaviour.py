"""Ordered one-step behaviour shapes.

Three kinds are provided: partial streams (one observation then a successor,
or bottom), finitely-branching labelled transition systems ordered by
pointwise inclusion, and weighted systems over the complete monoid
(R+ with infinity, sup).

A kind supplies its representation: bottom, _check, and moves(v), the
(label, state, weight) triples of a value, weight 1 in stream and lts.  It
supplies one constructor, from_moves, which joins the one-move values:
equal (label, state) moves merge by the kind's sum, the sup of their weights
in wts, union in lts, and in a stream the one step they all agree on.  And
it supplies its rendering (value_json, tree_json, arrow, unfold_lines) and
rel_lift_search, the definitional oracle of the lax relation lifting.
Everything else is written once from those, and _derives_from_moves binds it
into each kind class, so no caller dispatches on the kind: rel_lift, the
order leq (the lifting of the identity relation; Hughes & Jacobs,
Simulations in coalgebra, TCS 2004), join, map_states, conclusion_value,
is_bottom, has_label, states and transitions.

Values are immutable and canonicalized (sorted, empty entries and zero
weights dropped) so structural equality and hashing behave.  The carrier is
implicit: states can be terms, strings, or class indices.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Union

from .errors import CarrierMismatchError, InconsistentStreamError, StateMapError
from .terms import App, Record, Var, _set, print_term


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


_TERM_TYPES, _term_order = frozenset((App, Var)), attrgetter("_order")


def _sorted_states(states) -> list:
    """states in state_key order, terms with no Python call per state."""
    terms = _TERM_TYPES.issuperset(map(type, states))
    return sorted(states, key=_term_order if terms else state_key)


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


class Bottom(Record):
    """The undefined stream observation."""

    __slots__ = ()

    def __repr__(self):
        return "BOTTOM"


BOTTOM = Bottom()


class StreamStep(Record):
    """One observation and its successor; moves, the step's one move, is
    built once and left out of equality, hashing and the repr."""

    __slots__ = ("label", "state", "moves")
    _fields = ("label", "state")

    def __init__(self, label, state):
        _set(self, "label", label)
        _set(self, "state", state)
        _set(self, "moves", ((label, state, 1),))


class LtsValue(Record):
    """Finite successor sets per label, stored as the value's moves:
    (label, state, 1) triples sorted by label, then by state."""

    __slots__ = ("moves",)

    def __init__(self, moves: tuple = ()):
        _set(self, "moves", moves)

    def successors(self, lab) -> tuple:
        return tuple(s for have, s, _ in self.moves if have == lab)

    def labels(self) -> tuple:
        return tuple(dict.fromkeys(lab for lab, _, _ in self.moves))


class WtsValue(Record):
    """Finitely supported weight maps per label, stored as the value's moves:
    (label, state, weight > 0) triples sorted by label, then by state."""

    __slots__ = ("moves",)

    def __init__(self, moves: tuple = ()):
        _set(self, "moves", moves)


_BIT = bytes.maketrans(b"01", b"\0\1")


def _bits(x: int):
    """Indices of the set bits of x (a natural), lowest first.  The binary
    digits become 0/1 bytes for compress, so a dense 400-bit row is read
    in C, about six times faster than by peeling its lowest bit."""
    return compress(count(), bin(x)[:1:-1].encode().translate(_BIT))


class Relation(Record):
    """Binary relation between two finite state carriers, held as rows: one
    int bitset per left state over the right carrier's indices.  pairs, the
    set of (left, right) states, is built on first read."""

    __slots__ = ("left", "right", "rows", "__dict__")

    def __post_init__(self):
        if len(self.rows) != len(self.left) or any(row >> len(self.right)
                                                   for row in self.rows):
            raise ValueError("relation rows do not fit its carriers")

    @classmethod
    def from_pairs(cls, left: tuple, right: tuple, pairs: Iterable) -> Relation:
        left_index = {s: i for i, s in enumerate(left)}
        right_index = {t: j for j, t in enumerate(right)}
        rows = [0] * len(left)
        for s, t in pairs:
            i, j = left_index.get(s), right_index.get(t)
            if i is None or j is None:
                raise ValueError(f"relation pair ({s!r}, {t!r}) outside its carriers")
            rows[i] |= 1 << j
        return cls(left, right, tuple(rows))

    @cached_property
    def pairs(self) -> frozenset:
        right = self.right
        return frozenset((s, right[j]) for s, row in zip(self.left, self.rows)
                         for j in _bits(row))

    def __contains__(self, pair) -> bool:
        s, t = pair
        return (s in self.left and t in self.right
                and bool(self.rows[self.left.index(s)] >> self.right.index(t) & 1))

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows))


def rel_pairs(rel):
    """Liftings accept a Relation or any collection of pairs; sets are read
    in place, not copied."""
    if isinstance(rel, Relation):
        return rel.pairs
    return rel if isinstance(rel, (set, frozenset)) else frozenset(rel)


# --- the operations every kind derives from moves and from_moves ----------------------


_state_of, _transition_of = itemgetter(1), itemgetter(0, 1)  # of a move


def _rel_lift(kind, pairs, b, c) -> bool:
    """The lax relation lifting: b lifts to c over pairs iff every move
    (a, s, w) of b is matched by a move (a, t, w') of c with w' >= w and
    (s, t) in pairs."""
    pairs = rel_pairs(pairs)
    have = kind.moves(c)
    return all(any(a2 == a and w2 >= w and (s, t) in pairs for a2, t, w2 in have)
               for a, s, w in kind.moves(b))


def _leq(kind, b, c) -> bool:
    """The order, the lifting of the identity relation: every move of b is
    matched by a move of c with its label and state and at least its weight."""
    lower, upper = kind.moves(b), kind.moves(c)
    if not lower:  # bottom is below everything
        return True
    have = {(a, t): w for a, t, w in upper}
    return all(have.get((a, s), 0) >= w for a, s, w in lower)


def _join(kind, values: Iterable):
    """The least upper bound of values, bottom for none."""
    return kind.from_moves([move for v in values for move in kind.moves(v)])


def _map_states(kind, h, v):
    """v with each state s replaced by h(s), h a function or a mapping;
    moves that come to coincide merge as in from_moves."""
    return kind.from_moves([(a, _apply(h, s), w) for a, s, w in kind.moves(v)])


def _conclusion_value(kind, label, target):
    """The value one rule conclusion contributes: its single move."""
    return kind.from_moves(((label, target, 1),))


def _is_bottom(kind, v) -> bool:
    return not kind.moves(v)


def _has_label(kind, lab) -> bool:
    if kind.labels is None:  # the naturals
        return isinstance(lab, int) and not isinstance(lab, bool) and lab >= 0
    return lab in kind.labels


def _states(kind, v) -> frozenset:
    return frozenset(map(_state_of, kind.moves(v)))


def _transitions(kind, v) -> tuple:
    """The (label, state) of each move."""
    return tuple(map(_transition_of, kind.moves(v)))


_DERIVED = {"rel_lift": _rel_lift, "leq": _leq, "join": _join, "map_states": _map_states,
            "conclusion_value": _conclusion_value, "is_bottom": _is_bottom,
            "has_label": _has_label, "states": _states, "transitions": _transitions}


def _derives_from_moves(cls):
    """Bind every derived operation in the kind class's own __dict__, not in
    a shared base, so that patching one kind's method leaves the others."""
    for name, op in _DERIVED.items():
        setattr(cls, name, op)
    return cls


# --- rendering shared by kinds -------------------------------------------------------


def _plain_arrow(kind, lab, w) -> str:
    return f"-{lab}->"


def _tree_lines(kind, rows: list, depth: int):
    """engine.unfold's rows as an indented tree, opaque nodes marked, one line
    at a time."""
    yield print_term(rows[0][3])
    for level, lab, w, s, opaque in rows[1:]:
        mark = "  # opaque" if opaque else ""
        yield "  " * level + f"{kind.arrow(lab, w)} {print_term(s)}{mark}"


# --- the kinds -----------------------------------------------------------------------


@_derives_from_moves
class PartialStream(Record):
    """One labelled observation and a successor state, or bottom.

    labels None means the naturals; a frozenset means a finite alphabet.
    The order is flat: bottom below everything, steps only below themselves.
    """

    __slots__ = ("labels",)
    _defaults = {"labels": None}

    name = "stream"

    def _check(self, v):
        if not isinstance(v, (Bottom, StreamStep)):
            raise CarrierMismatchError(f"not a stream value: {v!r}")

    def bottom(self):
        return BOTTOM

    def moves(self, v) -> tuple:
        if isinstance(v, StreamStep):
            return v.moves
        self._check(v)
        return ()

    @staticmethod
    def from_moves(moves: Iterable):
        """The one step that all moves make, or bottom for none."""
        steps = set(map(_transition_of, moves))
        if len(steps) > 1:
            shown = ", ".join(f"({lab}, {_show_state(s)})" for lab, s in
                              sorted(steps, key=lambda p: (label_key(p[0]), state_key(p[1]))))
            raise InconsistentStreamError(f"inconsistent stream step: {shown}")
        return StreamStep(*steps.pop()) if steps else BOTTOM

    def rel_lift_search(self, pairs, b, c) -> bool:
        """Witness enumeration straight from the definition (test oracle)."""
        labs = {lab for v in (b, c) for lab, _, _ in self.moves(v)}
        for d in [BOTTOM] + [StreamStep(lab, pr) for lab in labs for pr in rel_pairs(pairs)]:
            if (self.leq(b, self.map_states(lambda p: p[0], d))
                    and self.leq(self.map_states(lambda p: p[1], d), c)):
                return True
        return False

    def value_json(self, v, state_repr: Callable):
        if self.is_bottom(v):
            return None
        return {"label": v.label, "next": state_repr(v.state)}

    tree_json = value_json
    arrow = _plain_arrow

    def unfold_lines(self, rows: list, depth: int) -> list:
        """A stream unfolds to one path, printed as its labels, ending in ⊥
        where the path stops before depth."""
        labels = [str(lab) for _, lab, _, _, _ in rows[1:]]
        if len(rows) <= depth:
            labels.append("⊥")
        return [" ".join(labels) or "⊥"]


@_derives_from_moves
class CountableLTS(Record):
    """Labelled transition system over a finite alphabet, ordered by inclusion."""

    __slots__ = ("labels",)

    name = "lts"

    def __post_init__(self):
        if self.labels is None:
            raise ValueError(f"{self.name} needs a finite label alphabet")

    def _check(self, v):
        if not isinstance(v, LtsValue):
            raise CarrierMismatchError(f"not an lts value: {v!r}")

    def bottom(self):
        return LtsValue()

    def moves(self, v) -> tuple:
        self._check(v)
        return v.moves

    @staticmethod
    def from_moves(moves: Iterable) -> LtsValue:
        """The union of the moves' (label, state) pairs."""
        succ: dict = {}
        for lab, s, _ in moves:
            succ.setdefault(lab, set()).add(s)
        return LtsValue(tuple((lab, s, 1) for lab in sorted(succ, key=label_key)
                              for s in _sorted_states(succ[lab])))

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
        for lab in b.labels():  # the empty subset is a witness for every other label
            need = bits(b.successors(lab))
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
        out: dict = {}
        for lab, s, _ in self.moves(v):
            out.setdefault(str(lab), []).append(state_repr(s))
        return out

    tree_json = value_json
    arrow = _plain_arrow
    unfold_lines = _tree_lines


@_derives_from_moves
class WeightedLTS(Record):
    """Weighted transitions over (R+ with infinity, sup); order is pointwise."""

    __slots__ = ("labels",)

    name = "wts"
    __post_init__ = CountableLTS.__post_init__

    def _check(self, v):
        if not isinstance(v, WtsValue):
            raise CarrierMismatchError(f"not a weighted value: {v!r}")

    def bottom(self):
        return WtsValue()

    def moves(self, v) -> tuple:
        self._check(v)
        return v.moves

    @staticmethod
    def from_moves(moves: Iterable) -> WtsValue:
        """Equal (label, state) moves merge by the monoid sum, the sup of
        their weights; zero weights are dropped."""
        rows: dict = {}
        for lab, s, w in moves:
            row = rows.setdefault(lab, {})
            row[s] = max(row.get(s, 0.0), w)
        return WtsValue(tuple((lab, s, float(row[s])) for lab, row in
                              sorted(rows.items(), key=lambda it: label_key(it[0]))
                              for s in _sorted_states(row) if row[s] > 0))

    def rel_lift_search(self, pairs, b, c) -> bool:
        """Dominating-witness check.

        Any witness d must satisfy d(a)(s,t) <= c(a)(t) (second projection,
        sup-merge), so d*(a)(s,t) = c(a)(t) dominates every candidate; a
        witness exists iff d* itself works.
        """
        pairs = rel_pairs(pairs)
        d = self.from_moves([(lab, (s, t), w) for lab, u, w in self.moves(c)
                             for s, t in pairs if t == u])
        left = self.map_states(lambda p: p[0], d)
        right = self.map_states(lambda p: p[1], d)
        return self.leq(b, left) and self.leq(right, c)

    def value_json(self, v, state_repr: Callable):
        out: dict = {}
        for lab, s, w in self.moves(v):
            out.setdefault(str(lab), {})[state_repr(s)] = w
        return out

    def tree_json(self, v, child_json: Callable):
        """Like value_json, but a state's JSON, its unfold document, cannot
        be a key, so each label maps to [{"weight", "next"}] rows."""
        out: dict = {}
        for lab, s, w in self.moves(v):
            out.setdefault(str(lab), []).append({"weight": w, "next": child_json(s)})
        return out

    def arrow(self, lab, w) -> str:
        return f"-{lab}[{w}]->"

    unfold_lines = _tree_lines


BehaviourKind = Union[PartialStream, CountableLTS, WeightedLTS]
