"""Signatures, first-order terms, substitution, and the term parser.

Terms are hash-consed: one live object per term, identity equality and
hash, weak intern table.  Since the hash is the object's, the iteration
order of a set or dict of terms can differ between runs; every output is
sorted or follows a universe's order.  Operators may carry natural
number parameters (a parameterized family like ``otimes[3]`` is one signature
entry with param_count 1), kept separate from the argument list.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import ArityError, ParseError, UnboundVariableError, UnknownOperatorError


@dataclass(frozen=True)
class Operator:
    name: str
    arity: int
    param_count: int = 0


class Signature:
    """Finite set of operators with unique names. Immutable after construction."""

    def __init__(self, operators: Iterable):
        ops = {}
        for entry in operators:
            op = entry if isinstance(entry, Operator) else Operator(*entry)
            if op.name in ops:
                raise ValueError(f"duplicate operator {op.name!r}")
            if op.arity < 0 or op.param_count < 0:
                raise ValueError(f"negative arity or param count for {op.name!r}")
            ops[op.name] = op
        self._ops = ops

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __getitem__(self, name: str) -> Operator:
        try:
            return self._ops[name]
        except KeyError:
            raise KeyError(f"unknown operator {name!r}") from None

    def operators(self) -> tuple[Operator, ...]:
        return tuple(sorted(self._ops.values(), key=lambda o: o.name))

    def constants(self) -> tuple[str, ...]:
        """Names of parameterless nullary operators, sorted."""
        return tuple(o.name for o in self.operators() if o.arity == 0 and o.param_count == 0)

    def __eq__(self, other):
        return isinstance(other, Signature) and self._ops == other._ops

    def __repr__(self):
        body = ", ".join(f"{o.name}/{o.arity}" + (f"[{o.param_count}]" if o.param_count else "")
                         for o in self.operators())
        return f"Signature({body})"


# --- hash-consing -----------------------------------------------------------------
#
# Terms are hash-consed (Filliatre & Conchon, "Type-safe modular hash-consing",
# 2006): the constructors return the live term for their key if there is one,
# so equal terms are one object and equality is identity.  The table maps each
# key to a weak reference, which removes its own entry when the term dies, so
# the table never keeps a term alive.  A lookup that hits takes no lock; the
# lock orders publishing a new term against removing a dead one.

_interned: dict = {}  # key -> _Ref to the live term with that key
# Reentrant: a collection started inside _publish can run _forget in the same
# thread.
_intern_lock = threading.RLock()


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref, table=_interned, lock=_intern_lock) -> None:
    # The defaults keep the table and lock reachable while the module is torn
    # down at exit.  A term of the same key may have been published since this
    # one died, so only this ref's own entry is removed.
    with lock:
        if table.get(ref.key) is ref:
            del table[ref.key]


def _publish(key: tuple, t):
    """Intern t under key, or return the live term another caller put there first."""
    with _intern_lock:
        ref = _interned.get(key)
        live = ref() if ref is not None else None
        if live is not None:
            return live
        ref = _Ref(t, _forget)
        ref.key = key
        _interned[key] = ref
        return t


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: terms are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: terms are immutable")


class Var(_Frozen):
    """A variable.  Var(name) returns the live variable of that name if any."""

    __slots__ = ("name", "__weakref__")
    name: str

    def __new__(cls, name: str):
        key = (name,)
        ref = _interned.get(key)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        t = object.__new__(cls)
        object.__setattr__(t, "name", name)
        return _publish(key, t)

    __hash__ = object.__hash__

    def __reduce__(self):
        return (Var, (self.name,))

    def sort_key(self):
        return ("var", self.name)

    def __repr__(self):
        return f"Var({self.name!r})"


class App(_Frozen):
    """Operator application.  App(op, params, args) returns the live term for
    that key if any; otherwise the node count and order key are computed once
    from the children's, so reading them is O(1).

    The order key is ("app", codes), where codes lists the node headers
    ("app", op, params) and variable leaves ("var", name) in pre-order.  Under
    fixed arities no code sequence is a prefix of another's, so comparing two
    keys costs the length of their common prefix, and the order is the
    structural one: header first, then the arguments left to right, each
    compared the same way.

    _text holds the printed term once print_term has made it.
    """

    __slots__ = ("op", "params", "args", "_size", "_key", "_text", "__weakref__")
    op: str
    params: tuple[int, ...]
    args: tuple["Term", ...]

    def __new__(cls, op: str, params: tuple[int, ...] = (), args: tuple["Term", ...] = ()):
        key = (op, params, args)
        ref = _interned.get(key)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        size, codes = 1, [("app", op, params)]
        for a in args:
            if isinstance(a, Var):
                size += 1
                codes.append(("var", a.name))
            else:
                size += a._size
                codes += a._key[1][1]
        t = object.__new__(cls)
        set_ = object.__setattr__
        set_(t, "op", op)
        set_(t, "params", params)
        set_(t, "args", args)
        set_(t, "_size", size)
        set_(t, "_key", (size, ("app", tuple(codes))))
        set_(t, "_text", None)
        return _publish(key, t)

    __hash__ = object.__hash__

    def __reduce__(self):
        return (App, (self.op, self.params, self.args))

    def sort_key(self):
        return self._key[1]

    def __repr__(self):
        return f"App({print_term(self)!r})"


Term = Union[Var, App]


def term_size(t: Term) -> int:
    """Node count; a variable counts as one node."""
    return 1 if isinstance(t, Var) else t._size


def term_key(t: Term):
    """Total order key: compare by size first, then structurally."""
    return (1, t.sort_key()) if isinstance(t, Var) else t._key


def variables(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out: set[str] = set()
    for a in t.args:
        out |= variables(a)
    return frozenset(out)


def subterms(t: Term) -> Iterator[Term]:
    """All subterms including t itself, parents first."""
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def check_term(t: Term, sig: Signature) -> None:
    """Raise if an operator is unknown or used with the wrong arity/params."""
    for s in subterms(t):
        if isinstance(s, Var):
            continue
        if s.op not in sig:
            raise UnknownOperatorError(f"unknown operator {s.op!r}")
        op = sig[s.op]
        if len(s.args) != op.arity or len(s.params) != op.param_count:
            raise ArityError(
                f"operator {s.op!r} expects arity {op.arity} and "
                f"{op.param_count} parameter(s), got {len(s.args)}/{len(s.params)}")


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    out = t._text
    if out is None:
        out = t.op
        if t.params:
            out += "[" + ",".join(str(p) for p in t.params) + "]"
        if t.args:
            out += "(" + ", ".join(print_term(a) for a in t.args) + ")"
        object.__setattr__(t, "_text", out)
    return out


def substitute(t: Term, binding: Mapping[str, Term]) -> Term:
    """Replace every variable of t via binding; the binding must cover them all."""
    if isinstance(t, Var):
        try:
            return binding[t.name]
        except KeyError:
            raise UnboundVariableError(f"no binding for variable {t.name!r}") from None
    if not t.args:
        return t
    return App(t.op, t.params, tuple(substitute(a, binding) for a in t.args))


# --- tokenizer, shared with the rule language ---------------------------------

_SYMBOLS = ("-/->", "|-", "->", "(", ")", "[", "]", ",", ":", "/", "+", "*", "-")

# Blanks, then one of: identifier, symbol, natural, comment, stray character.
# An identifier starts with a letter or "_" and goes on over letters, digits,
# "_" and primes (so premise targets can be written x', x''); a natural is a
# run of digits.  \w is exactly str.isalnum() plus "_", but \d is only
# str.isdecimal(), so [^\W\d] also admits numerals such as "²" that are not
# letters; tokenize sends those to the natural or error branch itself.
_TOKEN = re.compile(r"[ \t\r\n]*(?:([^\W\d][\w']*)|("
                    + "|".join(re.escape(sym) for sym in _SYMBOLS)
                    + r")|(\d+)|(#)|([^ \t\r\n]))")
_TOKEN_KINDS = (None, "ident", "sym", "nat")


# A NamedTuple rather than a dataclass: a spec of a few hundred rules builds
# thousands of tokens, and a frozen dataclass costs twice as much to build.
class Token(NamedTuple):
    kind: str  # ident | nat | sym | eof
    value: str
    line: int
    col: int


def tokenize(text: str, line: int = 1) -> list[Token]:
    """Tokens of text up to a "#" comment, ending with an eof token; columns
    count characters from 1 (a newline does not start a new line)."""
    toks: list[Token] = []
    n = len(text)
    match = _TOKEN.match
    m = match(text)
    while m:
        group = m.lastindex
        pos, end = m.span(group)
        ch = text[pos]
        if group == 1 and not (ch.isalpha() or ch == "_"):
            group = 3 if ch.isdigit() else 5
            end = pos + 1
        if group == 3:
            while end < n and text[end].isdigit():  # "1²": digits beyond \d
                end += 1
        elif group == 4:
            break
        elif group == 5:
            raise ParseError(f"unexpected character {ch!r}", line, pos + 1)
        toks.append(Token(_TOKEN_KINDS[group], text[pos:end], line, pos + 1))
        m = match(text, end)
    else:
        pos = n
    toks.append(Token("eof", "", line, pos + 1))
    return toks


class TokenCursor:
    """Minimal LL(1) helper over a token list."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.value == value

    def eat_sym(self, value: str) -> bool:
        if self.at_sym(value):
            self.next()
            return True
        return False

    def expect_sym(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.value != value:
            raise ParseError(f"expected {value!r}, got {tok.value!r}" if tok.kind != "eof"
                             else f"expected {value!r}, got end of input", tok.line, tok.col)
        return self.next()

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            what = tok.value if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {kind}, got {what!r}", tok.line, tok.col)
        return self.next()


def _parse_nat_list(cur: TokenCursor) -> tuple[int, ...]:
    cur.expect_sym("[")
    vals = [int(cur.expect("nat").value)]
    while cur.eat_sym(","):
        vals.append(int(cur.expect("nat").value))
    cur.expect_sym("]")
    return tuple(vals)


def parse_term_tokens(cur: TokenCursor, sig: Signature, closed: bool = False) -> Term:
    tok = cur.expect("ident")
    params: tuple[int, ...] = ()
    if cur.at_sym("["):
        params = _parse_nat_list(cur)
    args: list[Term] = []
    has_args = False
    if cur.eat_sym("("):
        has_args = True
        args.append(parse_term_tokens(cur, sig, closed))
        while cur.eat_sym(","):
            args.append(parse_term_tokens(cur, sig, closed))
        cur.expect_sym(")")
    name = tok.value
    if name in sig:
        op = sig[name]
        if len(params) != op.param_count:
            raise ArityError(f"operator {name!r} takes {op.param_count} parameter(s), "
                             f"got {len(params)}", tok.line, tok.col)
        if len(args) != op.arity:
            raise ArityError(f"operator {name!r} has arity {op.arity}, got {len(args)} "
                             f"argument(s)", tok.line, tok.col)
        return App(name, params, tuple(args))
    if params or has_args or closed:
        raise UnknownOperatorError(f"unknown operator {name!r}", tok.line, tok.col)
    return Var(name)


def parse_term(text: str, sig: Signature, closed: bool = False) -> Term:
    """Parse one term. Identifiers outside the signature become variables,
    or, in a closed term, unknown operators."""
    cur = TokenCursor(tokenize(text))
    t = parse_term_tokens(cur, sig, closed)
    tok = cur.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return t


# --- universe caps -------------------------------------------------------------


@dataclass(frozen=True)
class UniversePolicy:
    """Caps on the engine's finite universes; with grow off, the universe
    stays the subterm closure of the seeds."""

    max_count: int = 500
    max_size: int = 12
    grow: bool = True
