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
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import ArityError, ParseError, UnboundVariableError, UnknownOperatorError


_set = object.__setattr__  # how a constructor fills a frozen object's slots


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class Record(_Frozen):
    """A frozen dataclass without generated code.  A subclass names its
    fields in __slots__ (or _fields, if a slot is no field) and their
    defaults in _defaults.  Records are equal when of one class with equal
    fields, the hash is the fields' tuple's, and the repr is
    Name(field=value, ...), unless the class defines its own.  Hot records
    write their own __init__."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        names = cls._fields = cls.__dict__.get("_fields") or tuple(
            n for n in cls.__dict__.get("__slots__", ()) if not n.startswith("__"))
        get = attrgetter(*names) if names else lambda r: ()
        one = len(names) == 1  # get then returns the field, not a tuple

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),) if one else get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),) if one else get(self))

        def __repr__(self):
            shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
            return f"{type(self).__qualname__}({shown})"

        for method in (__eq__, __hash__, __repr__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):  # keywords, defaults or an error
            given = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or given.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; the generic __init__ calls it last."""

    def __reduce__(self):  # the slots cannot be set after construction
        return (type(self), tuple(getattr(self, name) for name in self._fields))


class Operator(Record):
    __slots__ = ("name", "arity", "param_count")

    def __init__(self, name: str, arity: int, param_count: int = 0):
        _set(self, "name", name)
        _set(self, "arity", arity)
        _set(self, "param_count", param_count)


class Signature:
    """Finite set of operators with unique names. Immutable after construction."""

    def __init__(self, operators: Iterable):
        ops = {}
        for entry in operators:
            op = entry if isinstance(entry, Operator) else Operator(*entry)
            if op.name in ops:
                raise ValueError(f"duplicate operator {quoted(op.name)}")
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


# Order-key characters; see App.
_APP, _VAR, _END = "\x01", "\x02", "\x00"


def _param_code(n: int) -> str:
    """A natural as its byte count plus one, as one character, then its
    big-endian bytes one character each; the code of 0 is "\x01".  Longer
    codes sort after shorter ones, and codes of one length compare as their
    numbers do.  Built without str(n), which is quadratic and refuses more
    than 4300 digits; chr refuses a natural of 1114111 bytes or more."""
    b = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return chr(len(b) + 1) + b.decode("latin-1")


class Var(_Frozen):
    """A variable.  Var(name) returns the live variable of that name if any."""

    __slots__ = ("name", "_order", "__weakref__")
    name: str

    def __new__(cls, name: str):
        key = (name,)
        ref = _interned.get(key)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        t = object.__new__(cls)
        _set(t, "name", name)
        _set(t, "_order", ("var", name))
        return _publish(key, t)

    __hash__ = object.__hash__

    def __reduce__(self):
        return (Var, (self.name,))

    def sort_key(self):
        return self._order

    def __repr__(self):
        return f"Var({self.name!r})"


class App(_Frozen):
    """Operator application.  App(op, params, args) returns the live term for
    that key if any; otherwise the node count and order key are computed once
    from the children's, so reading them is O(1).

    The order key (_order) is ("app", code), where code is one flat string: the
    codes of the term's nodes in pre-order.  A variable's code is _VAR, its
    name and _END; an application's is _APP, its operator name, _END, one
    _param_code per parameter and _END.  So
    - _APP sorts before _VAR: an application sorts before a variable at the
      same position;
    - _END sorts below every character of a name ("f" before "ff" and "f_")
      and below every _param_code (a parameter list before its extensions).
    Both hold because names never contain _END (identifiers are letters,
    digits, "_" and primes) and parameters are naturals.  No node code is a
    prefix of another, and under fixed arities no term's code is a prefix of
    another's, so the order is the structural one: header first, then the
    arguments left to right, each compared the same way.

    An application's code is its header followed by its children's codes as
    they are, so building it is O(size).  Comparing two keys is one C-level
    string comparison over their common prefix, a memcmp when both strings
    are one byte per character, not one tuple comparison per shared node.

    _text holds the printed term once print_term has made it.
    """

    __slots__ = ("op", "params", "args", "_size", "_key", "_order", "_text", "__weakref__")
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
        size, parts = 1, [_APP, op, _END]
        if params:
            parts += map(_param_code, params)
        parts.append(_END)
        for a in args:
            if isinstance(a, Var):
                size += 1
                parts += (_VAR, a.name, _END)
            else:
                size += a._size
                parts.append(a._order[1])
        t = object.__new__(cls)
        order = ("app", "".join(parts))
        _set(t, "op", op)
        _set(t, "params", params)
        _set(t, "args", args)
        _set(t, "_size", size)
        _set(t, "_key", (size, order))
        _set(t, "_order", order)
        _set(t, "_text", None)
        return _publish(key, t)

    __hash__ = object.__hash__

    def __reduce__(self):
        return (App, (self.op, self.params, self.args))

    def sort_key(self):
        return self._order

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
    return frozenset(s.name for s in subterms(t) if isinstance(s, Var))


def subterms(t: Term) -> Iterator[Term]:
    """All subterms including t itself, in pre-order, from an explicit stack;
    the nodes of a rule's target template (see speclang) alike."""
    todo = [t]
    while todo:
        s = todo.pop()
        yield s
        if not isinstance(s, Var):
            todo.extend(reversed(s.args))


def check_term(t: Term, sig: Signature) -> None:
    """Raise if an operator is unknown or used with the wrong arity/params."""
    for s in subterms(t):
        if isinstance(s, Var):
            continue
        if s.op not in sig:
            raise UnknownOperatorError(f"unknown operator {quoted(s.op)}")
        op = sig[s.op]
        if len(s.args) != op.arity or len(s.params) != op.param_count:
            raise ArityError(
                f"operator {quoted(s.op)} expects arity {op.arity} and "
                f"{op.param_count} parameter(s), got {len(s.args)}/{len(s.params)}")


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    out = t._text
    if out is None:
        # the uncached subterms parents first, then printed children first:
        # no call recurses, since a term can nest past the recursion limit
        order, todo = [], [t]
        while todo:
            order.append(todo.pop())
            todo += [a for a in order[-1].args if isinstance(a, App) and a._text is None]
        for s in reversed(order):
            out = s.op
            if s.params:
                out += "[" + ",".join(str(p) for p in s.params) + "]"
            if s.args:
                out += "(" + ", ".join(print_term(a) for a in s.args) + ")"
            _set(s, "_text", out)
    return out


def substitute(t: Term, binding: Mapping[str, Term]) -> Term:
    """Replace every variable of t via binding; the binding must cover them
    all.  The subterms are listed parents first, then imaged children first."""
    order, image = list(subterms(t)), {}
    for s in order:
        if isinstance(s, Var):
            try:
                image[s] = binding[s.name]
            except KeyError:
                raise UnboundVariableError(f"no binding for variable {s.name!r}") from None
    for s in reversed(order):
        if isinstance(s, App):
            image[s] = App(s.op, s.params, tuple([image[a] for a in s.args])) if s.args else s
    return image[t]


# --- tokenizer, shared with the rule language ---------------------------------


def quoted(text: str) -> str:
    """text as a parse error quotes it: repr(text) up to 40 characters, and
    beyond that its first 20 and last 10 around "…", then its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20] + '…' + text[-10:]!r} ({len(text)} characters)"


_SYMBOLS = ("-/->", "|-", "->", "(", ")", "[", "]", ",", ":", "/", "+", "*", "-")

# Blanks, then one of: identifier, symbol, natural, comment, stray character.
# An identifier starts with a letter or "_" and goes on over letters, digits,
# "_" and primes (so premise targets can be written x', x''); a natural is a
# run of digits.  \w is exactly str.isalnum() plus "_", but \d is only
# str.isdecimal(), so [^\W\d] also admits numerals such as "²" that are not
# letters; tokenize sends those to the natural or error branch itself.  So a
# natural can hold digits that int() cannot read ("1²"); TokenCursor.nat
# reports those as a parse error at the token, as it does a natural with more
# digits than int() converts.  Form feed and vertical tab are blanks too.
_TOKEN = re.compile(r"[ \t\r\n\f\v]*(?:([^\W\d][\w']*)|("
                    + "|".join(re.escape(sym) for sym in _SYMBOLS)
                    + r")|(\d+)|(#)|([^ \t\r\n\f\v]))")
_TOKEN_KINDS = (None, "ident", "sym", "nat")


# A NamedTuple rather than a Record: a spec of a few hundred rules builds
# thousands of tokens, and even a Record with its own __init__ costs twice as much.
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
            raise ParseError(f"unexpected character {quoted(ch)}", line, pos + 1)
        toks.append(Token(_TOKEN_KINDS[group], text[pos:end], line, pos + 1))
        m = match(text, end)
    else:
        pos = n
    toks.append(Token("eof", "", line, pos + 1))
    return toks


# The open brackets, "(" and "[" together, that any input may nest.  No reader
# recurses; the limit bounds memory, as a chain d deep keeps d*d/2 key characters.
MAX_NESTING = 1000
_NESTING = {"(": 1, "[": 1, ")": -1, "]": -1}


class TokenCursor:
    """Minimal LL(1) helper over a token list.  It counts the open brackets,
    and the bracket that opens more than MAX_NESTING is a parse error."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
            if tok.kind == "sym":
                self.depth += _NESTING.get(tok.value, 0)
                if self.depth > MAX_NESTING:
                    raise ParseError("input nested too deeply", tok.line, tok.col)
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
            raise ParseError(f"expected {value!r}, got {quoted(tok.value)}" if tok.kind != "eof"
                             else f"expected {value!r}, got end of input", tok.line, tok.col)
        return self.next()

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            what = tok.value if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {kind}, got {quoted(what)}", tok.line, tok.col)
        return self.next()

    def nat(self) -> int:
        """The value of the next token, which must be a natural int() reads."""
        tok = self.expect("nat")
        try:
            return int(tok.value)
        except ValueError:
            raise ParseError(f"expected nat, got {quoted(tok.value)}", tok.line, tok.col) from None

    def ident(self) -> str:
        return self.expect("ident").value

    def items(self, item) -> tuple:
        """item() once, then once more after each comma: a list that is not empty."""
        out = [item()]
        while self.eat_sym(","):
            out.append(item())
        return tuple(out)

    def bracketed(self, open: str, item, close: str) -> tuple:
        """items(item) between the symbols open and close, or () if the next
        token is not open."""
        if not self.eat_sym(open):
            return ()
        out = self.items(item)
        self.expect_sym(close)
        return out

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {quoted(tok.value)}", tok.line, tok.col)

    def tree(self, param, node):
        """One tree `ident [param, ...] (tree, ...)`, either list optional,
        read from a stack of open nodes: node(ident token, params, args)
        makes each node once its arguments are read."""
        stack: list = []  # (ident token, params, arguments so far) per open node
        while True:
            tok = self.expect("ident")
            params = self.bracketed("[", param, "]")
            if self.eat_sym("("):
                stack.append((tok, params, []))
                continue
            made = node(tok, params, ())
            while stack:
                stack[-1][2].append(made)
                if self.eat_sym(","):
                    break
                self.expect_sym(")")
                tok, params, args = stack.pop()
                made = node(tok, params, tuple(args))
            else:
                return made


def parse_term(text: str, sig: Signature, closed: bool = False) -> Term:
    """Parse one term. Identifiers outside the signature become variables,
    or, in a closed term, unknown operators."""
    def node(tok: Token, params: tuple, args: tuple) -> Term:
        name = tok.value
        if name in sig:
            op = sig[name]
            if len(params) != op.param_count:
                raise ArityError(f"operator {quoted(name)} takes {op.param_count} parameter(s), "
                                 f"got {len(params)}", tok.line, tok.col)
            if len(args) != op.arity:
                raise ArityError(f"operator {quoted(name)} has arity {op.arity}, got {len(args)} "
                                 f"argument(s)", tok.line, tok.col)
            return App(name, params, args)
        if params or args or closed:
            raise UnknownOperatorError(f"unknown operator {quoted(name)}", tok.line, tok.col)
        return Var(name)

    cur = TokenCursor(tokenize(text))
    t = cur.tree(cur.nat, node)
    cur.expect_eof()
    return t


# --- universe caps -------------------------------------------------------------


class UniversePolicy(Record):
    """Caps on the engine's finite universes, max_count terms of at most
    max_size nodes.  Every term has size at least 1, so with max_size 0 the
    universe stays the subterm closure of the seeds."""

    __slots__ = ("max_count", "max_size")
    _defaults = {"max_count": 500, "max_size": 12}
