"""Terms: construction, interning, printing, parsing, substitution."""

import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from bigsos.behaviour import state_key
from bigsos.errors import ArityError, ParseError, UnknownOperatorError
from bigsos.terms import (App, Operator, Signature, Var,
                          check_term, parse_term,
                          print_term, substitute, subterms, term_key, term_size,
                          variables)
from bigsos import terms
from bigsos.speclang import LabelLit, LabelVar, TemplateApp
from bigsos.terms import _SYMBOLS, Token, tokenize
from conftest import FIXTURES, fixture_text, instantiate_template
from spec_gen import random_monotone_lts_text

SIG = Signature([
    Operator("f", 2),
    Operator("g", 1),
    Operator("h", 1, 1),   # one natural parameter
    Operator("c", 0),
    Operator("d", 0),
])


def t(text):
    return parse_term(text, SIG)


# --- construction and basics ---------------------------------------------------------


def test_signature_lookup():
    assert "f" in SIG
    assert "nope" not in SIG
    assert SIG["g"].arity == 1
    assert SIG.constants() == ("c", "d")
    with pytest.raises(KeyError):
        SIG["nope"]


def test_term_size_and_variables():
    term = t("f(g(c), x)")
    assert term_size(term) == 4
    assert variables(term) == frozenset({"x"})


def test_subterms_preorder():
    term = t("f(g(c), d)")
    listed = [print_term(s) for s in subterms(term)]
    assert listed == ["f(g(c), d)", "g(c)", "c", "d"]


def test_check_term_rejects_bad_arity():
    with pytest.raises(ArityError):
        check_term(App("g", (), (App("c"), App("c"))), SIG)
    with pytest.raises(UnknownOperatorError):
        check_term(App("zzz", (), ()), SIG)


def test_term_key_total_order():
    terms = [t("f(c, d)"), t("c"), Var("x"), t("g(c)"), t("d")]
    ordered = sorted(terms, key=term_key)
    # smaller terms first; at equal size, App sorts before Var
    assert ordered == [t("c"), t("d"), Var("x"), t("g(c)"), t("f(c, d)")]


def _fresh_size(u):
    return 1 if isinstance(u, Var) else 1 + sum(_fresh_size(a) for a in u.args)


def _fresh_param(n):
    # the byte count plus one, then the big-endian bytes, one character each
    digits = []
    while n:
        n, byte = divmod(n, 256)
        digits.append(chr(byte))
    return chr(len(digits) + 1) + "".join(reversed(digits))


def _fresh_code(u):
    """Flat pre-order code of u: "\x02" name "\x00" for a variable, and
    "\x01" op "\x00" params "\x00" then the arguments' codes for an application."""
    if isinstance(u, Var):
        return "\x02" + u.name + "\x00"
    return ("\x01" + u.op + "\x00" + "".join(map(_fresh_param, u.params)) + "\x00"
            + "".join(map(_fresh_code, u.args)))


def _fresh_sort_key(u):
    return ("var", u.name) if isinstance(u, Var) else ("app", _fresh_code(u))


def nested_sort_key(u):
    """The nested order key that terms carried before the flat one; the order oracle."""
    if isinstance(u, Var):
        return ("var", u.name)
    return ("app", u.op, u.params, tuple(nested_sort_key(a) for a in u.args))


@given(st.recursive(
    st.sampled_from([t("c"), t("d"), Var("x")]),
    lambda kids: st.one_of(
        st.builds(lambda a: App("g", (), (a,)), kids),
        st.builds(lambda n, a: App("h", (n,), (a,)),
                  st.integers(0, 3) | st.integers(0, 2**70), kids),
        st.builds(lambda a, b: App("f", (), (a, b)), kids, kids)),
    max_leaves=12))
def test_cached_hash_size_and_key_match_recomputation(term):
    assert hash(term) == object.__hash__(term)  # the identity hash
    assert term_size(term) == _fresh_size(term)
    assert term.sort_key() == _fresh_sort_key(term)
    assert term_key(term) == (_fresh_size(term), _fresh_sort_key(term))
    twin = parse_term(print_term(term), SIG)  # equal, built separately
    assert twin is term and hash(twin) == hash(term)
    assert term_key(twin) == term_key(term)


# fixed arity and parameter count per operator, as a signature guarantees
ORDER_OPS = (("c", 0, 0), ("d", 0, 0), ("g", 1, 0), ("h", 1, 1), ("f", 2, 0), ("k", 3, 2))


def random_term(rng, depth, ops=ORDER_OPS, params=range(3), names=("x", "y")):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return Var(rng.choice(names))
        return App(rng.choice("cd"))
    op, arity, nparams = rng.choice(ops)
    return App(op, tuple(rng.choice(params) for _ in range(nparams)),
               tuple(random_term(rng, depth - 1, ops, params, names) for _ in range(arity)))


def _cmp(a, b):
    return (a > b) - (a < b)


# names that are prefixes of one another ("f" is in ORDER_OPS), and parameters
# on both sides of each step of the byte count, two of one length that differ
# in both bytes, one of 257 bytes, and one that str() refuses (5001 digits)
PREFIX_OPS = ORDER_OPS + (("ff", 1, 0), ("f_", 0, 0), ("f'", 2, 1))
PREFIX_NAMES = ("x", "xy", "x'", "y")
BOUNDARY_PARAMS = (0, 1, 255, 256, 257, 512, 65535, 65536, 256**256, 10**5000)


def test_flat_key_orders_like_nested_key():
    rng = random.Random(11)
    terms = [random_term(rng, rng.randrange(5)) for _ in range(300)]
    # pairs that share a head and differ only further down
    terms += [App("f", (), (u, v)) for u, v in zip(terms[:60], terms[60:120])]
    terms += [App("g", (), (u,)) for u in terms[:60]]
    first_edge = len(terms)
    terms += [random_term(rng, rng.randrange(4), PREFIX_OPS, BOUNDARY_PARAMS, PREFIX_NAMES)
              for _ in range(150)]
    # a variable and an application at the same position, at the top and below
    leaves = [Var(n) for n in PREFIX_NAMES] + [App(n) for n in ("c", "d", "f_")]
    terms += leaves + [App("ff", (), (u,)) for u in leaves]
    terms += [App("f'", (n,), (u, App("c"))) for n in BOUNDARY_PARAMS for u in leaves[::3]]
    terms += [App("k", (m, n), (App("c"),) * 3) for m in BOUNDARY_PARAMS for n in (0, 10**5000)]
    nested = {u: nested_sort_key(u) for u in terms}
    lead = terms[:120] + terms[first_edge:]
    for a in terms:
        for b in lead:
            assert _cmp(a.sort_key(), b.sort_key()) == _cmp(nested[a], nested[b]), (
                a.sort_key(), b.sort_key())
            assert _cmp(term_key(a), term_key(b)) == _cmp(
                (term_size(a), nested[a]), (term_size(b), nested[b]))
    assert sorted(terms, key=state_key) == sorted(terms, key=nested_sort_key)
    assert (sorted(terms, key=term_key)
            == sorted(terms, key=lambda u: (term_size(u), nested_sort_key(u))))
    # values whose states mix terms with ints and strings
    states = terms[::7] + [0, 3, 256, 10**5000, "", "app", "s", "var", "x"]
    rng.shuffle(states)
    assert sorted(states, key=state_key) == sorted(states, key=lambda v: (
        nested_sort_key(v) if isinstance(v, (App, Var)) else state_key(v)))


def test_term_and_other_state_keys_compare():
    states = [App("g", (), (App("c"),)), Var("x"), 3, "s", True, App("c"), (1, 2)]
    ordered = sorted(states, key=state_key)
    assert ordered.index(App("c")) < ordered.index(App("g", (), (App("c"),)))
    assert sorted(reversed(states), key=state_key) == ordered


def test_deep_terms_keep_structural_equality():
    def tower(n):
        u = t("c")
        for _ in range(n):
            u = App("g", (), (u,))
        return u

    one, two = tower(200), tower(200)
    assert one is two and one == two and hash(one) == hash(two)
    assert term_size(one) == 201
    assert tower(200) != tower(199) and {one: 1}[two] == 1


def test_deep_terms_print_and_walk_without_recursion():
    # 5,000 levels, past the interpreter's recursion limit; the operator name
    # is this test's own, so no subterm's text is cached before it prints
    u = Var("x")
    for _ in range(5000):
        u = App("deep", (), (u,))
    assert print_term(u) == "deep(" * 5000 + "x" + ")" * 5000
    assert print_term(u.args[0]) == "deep(" * 4999 + "x" + ")" * 4999
    assert sum(1 for _ in subterms(u)) == 5001
    assert variables(u) == frozenset({"x"})


# --- hash-consing --------------------------------------------------------------------

ORDER_SIG = Signature(ORDER_OPS)


def rebuild(u):
    """A structural copy of u made of freshly built tuples and strings."""
    if isinstance(u, Var):
        return Var("".join(u.name))
    return App("".join(u.op), tuple(list(u.params)), tuple(rebuild(a) for a in u.args))


def as_template(u):
    """u as a conclusion target whose parameters are label expressions."""
    if isinstance(u, Var):
        return u
    return TemplateApp(u.op, tuple(LabelVar(f"p{n}") if n else LabelLit(n) for n in u.params),
                       tuple(as_template(a) for a in u.args))


def test_equal_terms_are_one_object():
    rng = random.Random(5)
    env = {f"p{n}": n for n in range(3)}
    for _ in range(300):
        u = random_term(rng, rng.randrange(5))
        assert rebuild(u) is u
        assert parse_term(print_term(u), ORDER_SIG) is u
        assert substitute(u, {"x": Var("x"), "y": Var("y")}) is u
        assert instantiate_template(as_template(u), env) is u
        closed = substitute(u, {"x": App("c"), "y": App("d", (), ())})
        assert closed is rebuild(closed) and closed is parse_term(print_term(closed), ORDER_SIG)
        # equal terms share one hash because they are one object
        assert hash(u) == object.__hash__(u) == hash(rebuild(u))
    assert Var("x") is Var("x") and App("h", (2,), (Var("x"),)).args[0] is Var("x")
    assert App("c") is not Var("c") and App("c") != Var("c")


def test_terms_are_immutable():
    u = t("h[1](g(x))")
    for term, name in ((u, "op"), (u, "args"), (u, "_text"), (Var("x"), "name")):
        with pytest.raises(AttributeError):
            setattr(term, name, getattr(term, name))
        with pytest.raises(AttributeError):
            delattr(term, name)
    assert u is t("h[1](g(x))") and print_term(u) == "h[1](g(x))"


def test_pickle_and_copy_return_the_interned_term():
    u = t("f(h[2](x), g(c))")
    for term in (u, Var("x")):
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term


def test_intern_hit_keeps_the_first_node():
    c = App("c")
    args = (c, App("g", (), (c,)))
    first = App("f", (), args)
    text = print_term(first)
    again = App("f", (), tuple(list(args)))
    assert again is first and again.args is args
    assert print_term(again) is text


def test_intern_table_does_not_keep_terms_alive():
    gc.collect()
    before = len(terms._interned)
    built = [App("h", (n,), (App("g", (), (Var(f"v{n}"),)),)) for n in range(10_000)]
    assert len(terms._interned) >= before + 30_000
    del built
    gc.collect()
    assert len(terms._interned) == before


def reference_print(u):
    if isinstance(u, Var):
        return u.name
    out = u.op
    if u.params:
        out += "[" + ",".join(str(p) for p in u.params) + "]"
    if u.args:
        out += "(" + ", ".join(reference_print(a) for a in u.args) + ")"
    return out


def printing_term(rng, prefix, depth):
    """Random term over operators named prefix + arity, with 0-2 params."""
    arity = rng.randrange(4) if depth else 0
    if arity == 0 and rng.random() < 0.3:
        return Var(rng.choice("xyz"))
    params = tuple(rng.randrange(12) for _ in range(rng.randrange(3)))
    return App(f"{prefix}{arity}", params,
               tuple(printing_term(rng, prefix, depth - 1) for _ in range(arity)))


def postorder(u):
    if isinstance(u, App):
        for a in u.args:
            yield from postorder(a)
    yield u


@pytest.mark.parametrize("parents_first", [True, False])
def test_cached_text_matches_reference_printer(parents_first):
    # each order gets its own operators, so no text is cached before the test
    prefix = "down" if parents_first else "up"
    rng = random.Random(17)
    built = [printing_term(rng, prefix, rng.randrange(6)) for _ in range(300)]
    for u in built:
        nodes = list(subterms(u)) if parents_first else list(postorder(u))
        for s in nodes:
            assert print_term(s) == reference_print(s)


# --- printing and parsing ------------------------------------------------------------


def test_print_term_shapes():
    assert print_term(t("c")) == "c"
    assert print_term(t("f(c, g(d))")) == "f(c, g(d))"
    assert print_term(parse_term("h[3](c)", SIG)) == "h[3](c)"
    assert print_term(Var("x")) == "x"


def test_parse_rejects_garbage():
    for bad in ("", "f(c", "f(c,)", "q(c)", "f(c, d) extra", "g()"):
        with pytest.raises(ParseError):
            parse_term(bad, SIG)


def test_parse_param_arity_checked():
    with pytest.raises(ParseError):
        parse_term("h(c)", SIG)       # missing the [n] parameter
    with pytest.raises(ParseError):
        parse_term("g[1](c)", SIG)    # g takes no parameters


@st.composite
def closed_terms(draw, depth=3):
    if depth == 0:
        return App(draw(st.sampled_from(["c", "d"])))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return App(draw(st.sampled_from(["c", "d"])))
    if choice == 1:
        return App("g", (), (draw(closed_terms(depth=depth - 1)),))
    if choice == 2:
        return App("h", (draw(st.integers(0, 9)),),
                   (draw(closed_terms(depth=depth - 1)),))
    return App("f", (), (draw(closed_terms(depth=depth - 1)),
                         draw(closed_terms(depth=depth - 1))))


@given(closed_terms())
def test_print_parse_roundtrip(term):
    assert parse_term(print_term(term), SIG) == term


# --- tokenizer versus the character walker it replaced --------------------------------


def walk_tokens(text, line=1):
    """The original one-character-at-a-time tokenizer, kept as the oracle."""
    toks = []
    i, col = 0, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch in " \t\r\n":
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def _tokens_or_error(tok, text, line):
    try:
        return tok(text, line)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


def _assert_same_tokens(text, line=1):
    assert _tokens_or_error(tokenize, text, line) == \
        _tokens_or_error(walk_tokens, text, line), repr(text)


def test_tokenize_matches_walker_on_fixtures_and_generated_specs():
    texts = [fixture_text(p.stem) for p in sorted(FIXTURES.glob("*.sos"))]
    rng = random.Random(0)
    texts += [random_monotone_lts_text(rng) for _ in range(50)]
    for text in texts:
        _assert_same_tokens(text)  # whole documents: newlines are blanks
        for lineno, raw in enumerate(text.splitlines(), start=1):
            _assert_same_tokens(raw, lineno)


# Letters, digits and symbols, plus characters where the regex classes and
# str methods part ways: "\f" is no blank here, "²" is a digit but not
# decimal, "٣" is a decimal digit, "½" is numeric but no digit.
TOKEN_ALPHABET = (list("abxyzAZ_019'#|/ \t\r\n\f") + ["é", "²", "٣", "½"]
                  + list(_SYMBOLS))


def test_tokenize_matches_walker_on_random_strings():
    rng = random.Random(7)
    errors = 0
    for _ in range(2000):
        text = "".join(rng.choice(TOKEN_ALPHABET) for _ in range(rng.randrange(13)))
        _assert_same_tokens(text, rng.randrange(1, 5))
        errors += isinstance(_tokens_or_error(tokenize, text, 1), tuple)
    assert 0 < errors < 2000  # both the token and the error paths ran


def test_tokenize_odd_characters():
    assert tokenize("x²1 ²3 ٣4") == [Token("ident", "x²1", 1, 1), Token("nat", "²3", 1, 5),
                                    Token("nat", "٣4", 1, 8), Token("eof", "", 1, 10)]
    assert tokenize("1² # note") == [Token("nat", "1²", 1, 1), Token("eof", "", 1, 4)]
    for bad, col in (("c \f", 3), ("½", 1), ("'x", 1)):
        with pytest.raises(ParseError) as info:
            tokenize(bad)
        assert info.value.col == col


# --- substitution --------------------------------------------------------------------


def test_substitute_basic():
    term = t("f(x, g(y))")
    out = substitute(term, {"x": t("c"), "y": t("d")})
    assert out == t("f(c, g(d))")


def test_substitute_requires_total_binding():
    from bigsos.errors import UnboundVariableError
    with pytest.raises(UnboundVariableError):
        substitute(t("f(x, y)"), {"x": t("c")})


@given(closed_terms())
def test_substitute_identity_on_closed(term):
    assert substitute(term, {"x": App("d")}) == term


@given(closed_terms(), closed_terms())
def test_substitute_composes(a, b):
    # staged substitution (keeping y as itself first) equals the simultaneous one
    term = t("f(x, g(y))")
    seq = substitute(substitute(term, {"x": a, "y": Var("y")}), {"y": b})
    sim = substitute(term, {"x": a, "y": b})
    assert seq == sim
