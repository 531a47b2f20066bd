"""Rule language: parsing, validation, monotonicity analysis."""

import random
import re
import sys

import pytest

from bigsos import speclang, terms
from bigsos.errors import ParseError
from bigsos.speclang import (_GROUND_AXIOM, LabelAdd, LabelLit, LabelVar, Negative, Positive,
                             Rule, Spec, TemplateApp, _ground_axiom, _parse_behaviour_line,
                             _parse_ops_line, _parse_rule_line, check_monotone, lookahead_depth,
                             parse_spec, validate_spec)
from bigsos.terms import Signature, TokenCursor, Var, parse_term, quoted, tokenize
from conftest import fixture_text
from spec_gen import FACT_HEADER, FACT_SHAPES, fact_rules, random_monotone_lts_text

ALL_FIXTURES = ("factstream", "lookahead2", "negloop", "transclosure",
                "empty", "wchain", "explicit")


# --- parsing the fixtures ------------------------------------------------------------


def test_factstream_shape():
    spec = parse_spec(fixture_text("factstream"))
    assert spec.kind.name == "stream"
    assert spec.kind.labels is None          # naturals
    assert (len(spec.rules), len(spec.facts)) == (5, 1)
    assert spec.sig["otimes"].param_count == 1
    sigma = next(r for r in spec.rules if r.head_op == "sigma")
    assert len(sigma.premises) == 2
    assert lookahead_depth(sigma) == 2


def test_lookahead2_shape():
    spec = parse_spec(fixture_text("lookahead2"))
    assert spec.kind.name == "lts"
    assert sorted(spec.kind.labels) == ["a"]
    sigma = next(r for r in spec.rules if r.head_op == "sigma")
    assert lookahead_depth(sigma) == 2
    tau = next(r for r in spec.rules if r.head_op == "tau")
    assert lookahead_depth(tau) == 0         # axiom: no premises


def test_negloop_has_negative_premise():
    spec = parse_spec(fixture_text("negloop"))
    sigma = next(r for r in spec.rules if r.head_op == "sigma")
    kinds = [type(p) for p in sigma.premises]
    assert kinds == [Positive, Negative]


def test_transclosure_chain_depth():
    spec = parse_spec(fixture_text("transclosure"))
    chain = next(r for r in spec.rules if r.name == "chain3")
    assert lookahead_depth(chain) == 3


def test_wchain_is_weighted():
    spec = parse_spec(fixture_text("wchain"))
    assert spec.kind.name == "wts"
    assert sorted(spec.kind.labels) == ["a", "b"]


def test_explicit_spec_is_all_facts():
    text = fixture_text("explicit")
    spec = parse_spec(text)
    moves = [re.fullmatch(r"rule \S+ : \|- (\w+) -(\w+)-> (\w+)", line).groups()
             for line in text.splitlines() if line.startswith("rule")]
    assert spec.rules == ()
    assert spec.facts == tuple(moves) and len(moves) == 22  # in line order
    assert repr(spec) == "Spec(kind=lts, ops=12, rules=0, facts=22)"


def test_empty_spec_parses():
    spec = parse_spec(fixture_text("empty"))
    assert spec.rules == ()
    assert validate_spec(spec) == []


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_validates_clean(name):
    spec = parse_spec(fixture_text(name))
    assert validate_spec(spec) == []


# --- parse errors --------------------------------------------------------------------


def test_missing_behaviour_line():
    with pytest.raises(ParseError):
        parse_spec("ops c/0\nrule r: |- c -a-> c\n")


@pytest.mark.parametrize("kind", ("lts", "wts"))
def test_finite_alphabet_kinds_reject_nat(kind):
    with pytest.raises(ParseError,
                       match=rf"^{kind} needs a finite label alphabet \(line 2, column 1\)$"):
        parse_spec(f"# header\nbehaviour {kind} nat\nops c/0\n")
    with pytest.raises(ParseError, match="unknown behaviour kind 'tree'"):
        parse_spec("behaviour tree labels a\n")


def test_unknown_head_op_flagged():
    text = "behaviour lts labels a\nops c/0\nrule r: |- d -a-> c\n"
    diags = validate_spec(parse_spec(text))
    assert any("unknown head operator" in d.message for d in diags)


def test_bad_label_domain():
    text = "behaviour lts labels a\nops c/0\nrule r: |- c -b-> c\n"
    diags = validate_spec(parse_spec(text))
    assert any("label" in d.message for d in diags)


def test_duplicate_rule_names_rejected():
    text = ("behaviour lts labels a\nops c/0, f/1\n"
            "rule r: x -a-> y |- f(x) -a-> y\n"
            "rule r: |- c -a-> c\n")
    with pytest.raises(ParseError,
                       match=r"^duplicate rule name 'r' \(line 4, column 1\)$"):
        parse_spec(text)


@pytest.mark.parametrize("first,second,col", [
    ("rule r: |- c -a-> c", "rule r: x -a-> y |- f(x) -a-> y", 1),
    ("rule r: |- c -a-> c", "  rule r: |- c -a-> d  # again", 3),
    ("rule r: |- c -a-> c", "\trule r : |- d -a-> c", 2),
    ("rule r: |- c -a-> c", "  rule r: x -a-> y |- f(x) -a-> y", 3),
    ("rule r: x -a-> y |- f(x) -a-> y", "   rule r : |- c -a-> d", 4),
    ("rule r: |- c -a-> c", " rule r: |- c -a-> f(c)", 2),
], ids=("axiom-then-premise-rule", "indented-axiom", "tab-indented-axiom",
        "fact-then-indented-rule", "rule-then-indented-fact", "fact-then-compound-axiom"))
def test_duplicate_rule_name_position(first, second, col):
    text = f"behaviour lts labels a\nops c/0, d/0, f/1\n{first}\n{second}\n"
    with pytest.raises(ParseError,
                       match=rf"^duplicate rule name 'r' \(line 4, column {col}\)$"):
        parse_spec(text)


def test_duplicate_ops_line_rejected():
    # a second ops line used to replace the first, losing c
    text = "behaviour lts labels a\nops c/0\n  ops d/0\nrule rc : |- c -a-> c\n"
    with pytest.raises(ParseError,
                       match=r"^duplicate ops line \(line 3, column 3\)$"):
        parse_spec(text)


@pytest.mark.parametrize("text,message", [
    ("ops ones/0\nrule ones : |- ones -1²-> ones\n", "got '1²' (line 3, column 22)"),
    ("ops ones/0²\n", "got '0²' (line 2, column 10)"),
    ("ops ones/0[1²]\n", "got '1²' (line 2, column 12)"),
], ids=("label", "arity", "params"))
def test_nat_int_cannot_read_is_a_parse_error(text, message):
    # the tokenizer reads "1²" as one natural, which int() rejects
    with pytest.raises(ParseError, match=re.escape(f"expected nat, {message}")):
        parse_spec("behaviour stream nat\n" + text)


# A natural with more digits than int() converts once the tests lower Python's
# limit to 640 digits; a Python without that limit converts it.
HUGE = "9" * 641
INT_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


@pytest.fixture
def int_digits_640():
    """int()'s digit limit at 640 for the test, where Python has one."""
    if not INT_DIGIT_LIMIT:
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() converts naturals of any length")
@pytest.mark.parametrize("text,line,col", [
    (f"ops c/0, f/1\nrule big : |- c -{HUGE}-> c\n", 3, 18),
    (f"ops c/0, f/1\nrule big : |- f(x) -{HUGE}-> x\n", 3, 21),
    (f"ops c/{HUGE}\n", 2, 7),
    (f"ops c/0[{HUGE}]\n", 2, 9),
], ids=("ground-axiom", "rule", "arity", "params"))
def test_oversized_natural_is_read_by_the_general_parser(int_digits_640, text, line, col):
    # the recognisers leave such a line to the general parser, so every path
    # reports TokenCursor.nat's error at the literal
    text = "behaviour stream nat\n" + text
    want = ("error", f"expected nat, got '{HUGE[:20]}…{HUGE[-10:]}' (641 characters) "
                     f"(line {line}, column {col})", line, col)
    assert _outcome(text, parse_spec) == want
    assert _outcome(text, reference_parse_spec) == want


# A token longer than 40 characters is quoted by its first 20 and last 10.
LONG_TOKENS = [
    pytest.param("behaviour stream nat\nops c/0\nrule big : |- c -" + "9" * 5000 + "-> c\n",
                 "expected nat, got '" + "9" * 20 + "…" + "9" * 10
                 + "' (5000 characters) (line 3, column 18)",
                 marks=pytest.mark.skipif(not INT_DIGIT_LIMIT,
                                          reason="int() converts naturals of any length")),
    ("behaviour lts labels a\nops c/0\n" + "x" * 5000 + "\n",
     "unknown declaration '" + "x" * 20 + "…" + "x" * 10
     + "' (5000 characters) (line 3, column 1)"),
    ("behaviour lts labels a\nops c/0\nrule r : |- c -a-> c " + "y" * 41 + "\n",
     "trailing input '" + "y" * 20 + "…" + "y" * 10 + "' (41 characters) (line 3, column 22)"),
    ("behaviour lts labels a\nops c/0\nrule r : |- c -a-> c " + "y" * 40 + "\n",
     "trailing input '" + "y" * 40 + "' (line 3, column 22)"),
]


@pytest.mark.parametrize("text,message", LONG_TOKENS,
                         ids=("label-5000", "identifier-5000", "identifier-41", "identifier-40"))
def test_a_long_token_is_quoted_in_part(int_digits_640, text, message):
    assert _outcome(text, parse_spec)[1] == message
    assert _outcome(text, reference_parse_spec)[1] == message


def test_a_long_operator_name_is_quoted_in_part():
    name = "f" * 5000
    with pytest.raises(ParseError) as got:
        parse_term(name + "(c)", Signature([("c", 0, 0)]))
    assert str(got.value) == ("unknown operator '" + "f" * 20 + "…" + "f" * 10
                              + "' (5000 characters) (line 1, column 1)")


@pytest.mark.parametrize("text,col", [("f[2², 1]", 3), ("f[1, 2²]", 6)], ids=("first", "later"))
def test_term_parameter_int_cannot_read_is_a_parse_error(text, col):
    with pytest.raises(ParseError,
                       match=re.escape(f"expected nat, got '2²' (line 1, column {col})")):
        parse_term(text, Signature([("f", 0, 2)]))


def test_ops_line_after_a_rule_rejected():
    # the rule's template would have been parsed against the empty signature
    text = "behaviour lts labels a\nrule rc : |- c -a-> c\nops c/0\n"
    with pytest.raises(ParseError,
                       match=r"^ops line must precede rules \(line 3, column 1\)$"):
        parse_spec(text)


# every character str.splitlines() breaks at besides "\n", "\r" and "\r\n"
OTHER_LINE_BREAKS = ("\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def test_a_comment_runs_to_newline():
    header = "behaviour lts labels a\nops c/0\n"
    with pytest.raises(ParseError, match=re.escape("unknown declaration 'oops' (line 4, column 1)")):
        parse_spec(header + "# page\fbreak\noops\n")
    spec = parse_spec(header + "# note\x85rule r : |- c -a-> c\n")
    assert (spec.rules, spec.facts) == ((), ())
    for ch in OTHER_LINE_BREAKS:
        spec = parse_spec(header + f"# one{ch}rule r : |- c -a-> c\n"
                                   f"rule s : |- c -a-> c # two{ch}\n")
        assert (spec.rules, spec.facts) == ((), (("c", "a", "c"),)), repr(ch)


@pytest.mark.parametrize("line", ["rule r : |- c -a->{}c", "rule r : |- f(x){}-a-> x",
                                  "ops c/0,{}f/1", "{}behaviour lts labels a"])
@pytest.mark.parametrize("ch", OTHER_LINE_BREAKS, ids=repr)
def test_other_line_breaks_are_blanks_or_errors(line, ch):
    # form feed and vertical tab are blanks; every other one is the
    # tokenizer's error at its own line and column
    body = ["ops c/0, f/1", "rule q : |- c -a-> c"]
    lines = ([line.format(ch)] + body if line.startswith("{}")
             else ["behaviour lts labels a"] + body + [line.format(ch)])
    text = "\n".join(lines) + "\n"
    at = lines.index(line.format(ch))
    if ch in "\f\v":
        assert _denoted(text) == _denoted(text.replace(ch, " "))
    else:
        with pytest.raises(ParseError, match=re.escape(
                f"unexpected character {ch!r} (line {at + 1}, column {line.index('{}') + 1})")):
            parse_spec(text)
    _assert_agrees(text)


@pytest.mark.parametrize("blank", ["\f", "\v", "\f# page", "\v # c", " \f\t", "\r"], ids=repr)
def test_a_line_of_other_blanks_is_blank(blank):
    lines = ["behaviour lts labels a", blank, "ops c/0", blank, "rule q : |- c -a-> c", blank]
    text = "\n".join(lines) + "\n"
    assert _denoted(text) == _denoted(text.replace(blank, ""))
    _assert_agrees(text)


def test_crlf_text_parses_like_lf_text():
    text = "behaviour lts labels a\n\nops c/0 # c\n\nrule q : |- c -a-> c\n"
    assert _denoted(text.replace("\n", "\r\n")) == _denoted(text)
    _assert_agrees(text.replace("\n", "\r\n"))
    # the ground-axiom pattern reads "\r" as a blank, so a fact line with CRLF
    # ends is a fact, not a compiled rule
    lf = fixture_text("explicit")
    crlf = parse_spec(lf.replace("\n", "\r\n"))
    assert crlf.rules == () and crlf.facts == parse_spec(lf).facts
    assert len(crlf.facts) == 22


@pytest.mark.parametrize("blank", ["\f", "\v", "\r"], ids=repr)
def test_a_fact_with_other_blanks_is_a_fact(blank):
    text = (f"behaviour lts labels a\nops{blank}c/0,{blank}d/0\n"
            f"rule q :{blank}|- c -a->{blank}d{blank}\n")
    spec = parse_spec(text)
    assert spec.rules == () and spec.facts == (("c", "a", "d"),)
    assert list(spec.sig.constants()) == ["c", "d"]


# --- validation diagnostics ----------------------------------------------------------

HEADER = "behaviour lts labels a\nops c/0, f/1, g/2\n"


def diags_for(rule_text):
    return validate_spec(parse_spec(HEADER + rule_text + "\n"))


def test_repeated_head_variable():
    diags = diags_for("rule bad: |- g(x, x) -a-> x")
    assert any("head variables not distinct" in d.message for d in diags)
    assert all(d.rule == "bad" for d in diags)


def test_unbound_premise_source():
    diags = diags_for("rule bad: z -a-> w |- f(x) -a-> x")
    assert any("z" in d.message for d in diags)


def test_unbound_conclusion_variable():
    diags = diags_for("rule bad: |- f(x) -a-> g(x, q)")
    assert any("q" in d.message for d in diags)


def test_a_built_rule_keeps_to_what_the_parser_can_write():
    # a Spec built directly can hold a compound premise label and a negative
    # parameter literal, which the engine must never compile
    spec = parse_spec("behaviour stream nat\nops f/1, g/1[1]\n"
                      "rule f : x -n-> y |- f(x) -n-> g[1](y)\n")
    r = spec.rules[0]
    rule = Rule(r.name, r.head_op, (), r.head_vars,
                (Positive("x", LabelAdd(LabelVar("n"), LabelLit(1)), "y"),), r.concl_label,
                TemplateApp("g", (LabelLit(-1),), (Var("y"),)))
    assert [str(d) for d in validate_spec(Spec(spec.kind, spec.sig, (rule,)))] == [
        "rule f: premise label must be a literal or a variable",
        "rule f: operator parameter literal -1 is not a natural"]


def test_negative_premise_needs_bound_source():
    diags = diags_for("rule bad: u -a-/-> |- f(x) -a-> x")
    assert any("unbound premise source 'u'" in d.message for d in diags)


def test_clean_gsos_rule_passes():
    assert diags_for("rule ok: x -a-> y |- f(x) -a-> f(y)") == []


def test_bad_label_literals_report_in_source_order_once_each():
    diags = diags_for("rule r : |- c -(516698*189768*37*(15+20797+1034443)+a+37)-> c")
    assert [str(d) for d in diags] == [
        f"rule r: conclusion: label literal {n} not in label set"
        for n in (516698, 189768, 37, 15, 20797, 1034443)] + [
        "rule r: label arithmetic needs natural labels"]


def test_misspelt_label_is_named_as_outside_the_label_set():
    diags = diags_for("rule s : |- c -b-> c")
    assert [str(d) for d in diags] == [
        "rule s: conclusion label 'b' is not in the label set and no premise binds it"]
    diags = validate_spec(parse_spec("behaviour stream nat\nops c/0\nrule s : |- c -n-> c\n"))
    assert [str(d) for d in diags] == ["rule s: conclusion label uses unbound variable 'n'"]


# --- monotonicity --------------------------------------------------------------------


def test_check_monotone_flags_negatives():
    spec = parse_spec(fixture_text("negloop"))
    report = check_monotone(spec)
    assert not report.monotone
    assert report.offending_rules == ("sigma",)


@pytest.mark.parametrize("name", ("factstream", "lookahead2", "transclosure",
                                  "empty", "wchain"))
def test_check_monotone_clean_fixtures(name):
    report = check_monotone(parse_spec(fixture_text(name)))
    assert report.monotone
    assert report.offending_rules == ()


# --- the ground-axiom recogniser versus the general parser ---------------------------


def reference_parse_spec(text):
    """parse_spec with every line tokenized and parsed by the general parser,
    as it was before the ground-axiom recogniser; the recogniser's oracle.
    The rule of a line the ground-axiom pattern matches goes to the facts if
    reference_fact finds it a plain fact."""
    kind = None
    sig = Signature(())
    has_ops = False
    rules = []
    facts = []
    seen = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        cur = TokenCursor(tokenize(raw, lineno))
        first = cur.peek()
        if first.kind == "eof":
            continue
        if first.kind != "ident":
            raise ParseError(f"expected a declaration, got {quoted(first.value)}", lineno,
                             first.col)
        keyword = first.value
        if keyword == "behaviour":
            cur.next()
            if kind is not None:
                raise ParseError("duplicate behaviour line", lineno, first.col)
            kind = _parse_behaviour_line(cur, lineno)
        elif keyword == "ops":
            cur.next()
            if has_ops:
                raise ParseError("duplicate ops line", lineno, first.col)
            if seen:
                raise ParseError("ops line must precede rules", lineno, first.col)
            has_ops = True
            try:
                sig = Signature(_parse_ops_line(cur))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, first.col) from None
        elif keyword == "rule":
            cur.next()
            if kind is None:
                raise ParseError("behaviour line must precede rules", lineno, first.col)
            rule = _parse_rule_line(cur, kind, sig)
            if rule.name in seen:
                raise ParseError(f"duplicate rule name {quoted(rule.name)}", lineno, first.col)
            seen.add(rule.name)
            fact = reference_fact(rule, kind, sig)
            if fact is not None and _GROUND_AXIOM.fullmatch(raw):
                facts.append(fact)
            else:
                rules.append(rule)
        else:
            raise ParseError(f"unknown declaration {quoted(keyword)}", lineno, first.col)
    if kind is None:
        raise ParseError("missing behaviour line")
    return Spec(kind, sig, rules, facts)


def _outcome(text, parse):
    try:
        spec = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)
    return spec.kind, spec.sig.operators(), spec.rules, spec.facts


def _denoted(text):
    """What parse_spec reads text as, whichever path read each line: _outcome,
    but with every rule that is a plain fact among the facts, which are
    sorted, as a fact the tokenizer reads keeps no line order beside them."""
    outcome = _outcome(text, parse_spec)
    if outcome[0] == "error":
        return outcome
    kind, ops, rules, facts = outcome
    sig = Signature(ops)
    read = [reference_fact(r, kind, sig) for r in rules]
    return (kind, ops, tuple(r for r, fact in zip(rules, read) if fact is None),
            sorted(facts + tuple(fact for fact in read if fact is not None)))


def reference_fact(rule, kind, sig):
    """(head, label, target name) if rule is a plain fact, else None: no premises,
    head variables or parameters, a literal label in the label set, and
    declared constants as head and target."""
    label, target, constants = rule.concl_label, rule.concl_target, sig.constants()
    if (rule.premises or rule.head_vars or rule.head_params
            or not isinstance(label, LabelLit) or not kind.has_label(label.value)
            or not isinstance(target, TemplateApp) or target.args or target.params
            or rule.head_op not in constants or target.op not in constants):
        return None
    return rule.head_op, label.value, target.op


def _recognised(raw, kind, sig) -> bool:
    """Whether the recogniser takes raw as a ground axiom; if it does, it must
    give the fact that the general parser's rule denotes, or, if that rule is
    no plain fact, the rule itself."""
    m = _GROUND_AXIOM.fullmatch(raw)
    if m is None or m["name"] is None:
        return False
    axiom = _ground_axiom(m, kind, sig, frozenset(sig.constants()))
    if axiom is None:  # a label int() cannot convert
        return False
    cur = TokenCursor(tokenize(raw))
    assert cur.next().value == "rule", repr(raw)
    rule = _parse_rule_line(cur, kind, sig)
    fact = reference_fact(rule, kind, sig)
    assert axiom == (rule if fact is None else fact), repr(raw)
    return True


def _assert_agrees(text) -> int:
    """parse_spec gives the reference's spec, or its exact error; returns how
    many lines the recogniser took."""
    expected = _outcome(text, reference_parse_spec)
    assert _outcome(text, parse_spec) == expected, text
    if expected[0] == "error":
        return 0
    spec = reference_parse_spec(text)
    return sum(_recognised(raw, spec.kind, spec.sig) for raw in text.split("\n"))


LABEL_CHOICES = ("a", "b", "tau", "a'", "_x", "0", "7", "007", "zz")  # zz: undeclared
BLANKS = ("", " ", "  ", "\t", " \t")
# characters where the recogniser and the tokenizer could part ways
NEAR_MISS_ALPHABET = (list("ab_01'#|-/>:,()[]+* \t") + ["\xa0", "é", "²", "٣", "\f"])


def random_axiom_spec_text(rng: random.Random, n_rules: int, mutate: float = 0.0) -> str:
    """An LTS spec of ground axioms written with random blanks, comments and
    names; each rule line is, with probability mutate, one character off."""
    n = rng.randrange(2, 8)
    labels = rng.choice(("a, b", "a, b, tau, a', _x", "a"))
    lines = [f"behaviour lts labels {labels}", "",
             "ops " + ", ".join(f"s{i}/0" for i in range(n)) + ", f/1", ""]
    for i in range(n_rules):
        b = [rng.choice(BLANKS) for _ in range(9)]
        name = rng.choice((f"r{i}", f"r{i}'", f"_r{i}", f"rule{i}"))
        target = rng.choice((f"s{rng.randrange(n)}", "x'", "y"))
        comment = rng.choice(("", "", "# note", " # rule |- c -a-> d"))
        line = (f"{b[0]}rule {b[1]}{name}{b[2]}:{b[3]}|-{b[4]}s{rng.randrange(n)}{b[5]}-{b[6]}"
                f"{rng.choice(LABEL_CHOICES)}{b[7]}->{b[8]}{target}{comment}")
        if rng.random() < mutate:
            at = rng.randrange(len(line) + 1)
            cut = at + rng.randrange(2)
            line = line[:at] + rng.choice(("",) + tuple(NEAR_MISS_ALPHABET)) + line[cut:]
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_recogniser_matches_the_general_parser_on_fixtures_and_generated_specs():
    texts = [fixture_text(name) for name in ALL_FIXTURES]
    texts += [random_monotone_lts_text(random.Random(seed)) for seed in range(50)]
    rng = random.Random(3)
    texts += [random_axiom_spec_text(rng, rng.randrange(1, 12)) for _ in range(100)]
    taken = sum(_assert_agrees(text) for text in texts)
    assert taken > 500  # most generated axioms take the recogniser's path


def test_recogniser_matches_the_general_parser_on_mutated_axioms():
    rng = random.Random(4)
    errors = 0
    for _ in range(400):
        text = random_axiom_spec_text(rng, 3, mutate=0.5)
        _assert_agrees(text)
        errors += _outcome(text, parse_spec)[0] == "error"
    assert 0 < errors < 400  # both the rule and the error paths ran


# ops lines the tokenizer rejects, or reads differently from how they look
MALFORMED_OPS = ["ops a/", "ops a/1,", "ops a/1 b/2", "ops a/1[", "ops a/1[2", "ops a/1[]",
                 "ops a/1]", "ops 1/1", "ops a/1\xb2", "ops a/1, a/2", "opsa/1", "ops a/-1",
                 "ops a//1", "ops \xe9/1", "ops a\xe9/1", "ops a/1\xa0", "ops ,", "ops a/1[2,3]",
                 "ops a/1 # c", "\tops a'/2 , b/0[ 3 ] #", "ops", "ops#", " ops a/007",
                 "ops a/1\x0c", f"ops a/{HUGE}", f"ops a/1[{HUGE}]"]


def random_ops_line(rng: random.Random, mutate: float) -> str:
    """An ops line with random blanks, names, arities and parameter counts;
    with probability mutate, one character off."""
    b = [rng.choice(BLANKS) for _ in range(3)]
    entries = [f"{rng.choice(('f', 'g', 'x', '_h'))}{i}{rng.choice(('', chr(39)))}{b[1]}/"
               f"{b[2]}{rng.randrange(3)}" + rng.choice(("", "[1]", f"[{b[1]}2{b[2]}]"))
               for i in range(rng.randrange(4))]
    line = (b[0] + "ops " + rng.choice((",", f"{b[1]},{b[2]}")).join(entries)
            + rng.choice(("", " ", " # ops c/0")))
    if rng.random() < mutate:
        at = rng.randrange(len(line) + 1)
        cut = at + rng.randrange(2)
        line = line[:at] + rng.choice(("",) + tuple(NEAR_MISS_ALPHABET)) + line[cut:]
    return line


def test_ops_recogniser_matches_the_tokenizer_path(int_digits_640):
    rng = random.Random(6)
    lines = MALFORMED_OPS + [random_ops_line(rng, mutate=0.5) for _ in range(400)]
    taken = errors = 0
    for line in lines:
        for text in (f"behaviour lts labels a\n{line}\nrule r : |- c -a-> c\n",
                     f"{line}\nbehaviour lts labels a\n{line}\n",  # a duplicate ops line
                     "behaviour lts labels a\nrule r : |- c -a-> c\n" + line):  # too late
            assert _outcome(text, parse_spec) == _outcome(text, reference_parse_spec), text
        outcome = _outcome(f"behaviour lts labels a\n{line}\n", parse_spec)
        taken += speclang._OPS_LINE.fullmatch(line) is not None
        errors += outcome[0] == "error"
    assert taken > 150 and errors > 100  # both paths ran, and both outcomes


NEAR_MISS_HEADERS = ("behaviour lts labels a, b\nops s0/0, s1/0, f/1\n",
                     "behaviour stream nat\nops s0/0, s1/0, f/1\n")

# (rule line, whether the recogniser takes it)
NEAR_MISSES = [
    ("rule r : |- s0 -a-> s1", True),
    ("rule\tr\t:\t|-\ts0\t-\ta\t->\ts1\t", True),
    ("rule r:|-s0-a->s1", True),
    ("   rule r : |- s0 -a-> s1   # the first move", True),
    ("rule r : |- s0 -a-> s1#no blank before the comment", True),
    ("rule r' : |- s0 -a''-> x'", True),
    ("rule r : |- s0 -c-> s1", True),       # undeclared label: a label variable
    ("rule r : |- s0 -a-> d", True),        # undeclared target: a variable
    ("rule r : |- t -a-> s1", True),        # undeclared head (validate_spec flags it)
    ("rule r : |- s0 -0-> s1", True),
    ("rule r : |- s0 -0012-> s1", True),
    ("rule é : |- s0 -a-> s1", False),
    ("rule r : |- s0 -a-> s1é", False),
    ("rule r : |- s0 -aé-> s1", False),
    ("rule r : |- s0 -1²-> s1", False),
    ("rule r : |- s0 -٣-> s1", False),
    ("rule r : |- s0 -2٣-> s1", False),
    ("rule r : |- s0 -/-> s1", False),
    ("rule r : |- s0 -a-/-> s1", False),
    ("rule r : |- s0() -a-> s1", False),
    ("rule r : |- s0 -a-> f(s1)", False),
    ("rule r : |- s0 -a-> s1()", False),
    ("rule r : |- s0 -a-> s1 s0", False),
    ("rule r : |- s0 -a-> s1,", False),
    ("rule r : |- s0 -a-> s1 -a-> s0", False),
    ("rule r : |- s0 -a- > s1", False),
    ("rule r : | - s0 -a-> s1", False),
    ("rule r : |- s0 --> s1", False),
    ("rule r : |- s0 -a->", False),
    ("rule r : |- s0 -a+1-> s1", False),
    ("rule r : |- s0 -(a)-> s1", False),
    ("rule r : |- s0[n] -a-> s1", False),
    ("rule r : x -a-> y |- f(x) -a-> y", False),
    ("rule r |- s0 -a-> s1", False),
    ("rule : |- s0 -a-> s1", False),
    ("rules : |- s0 -a-> s1", False),
    ("Rule r : |- s0 -a-> s1", False),
    ("rule r : |- s0 -a-> s1\xa0", False),
    ("rule r : |- s0 -a-> s1\f", True),  # a form feed is a blank
    ("rule 1r : |- s0 -a-> s1", False),
    ("rule r : |- 1 -a-> s1", False),
    ("rule r : |- s0 -a-> 1", False),
    (f"rule r : |- s0 -{HUGE}-> s1", not INT_DIGIT_LIMIT),
]


@pytest.mark.parametrize("line,taken", NEAR_MISSES,
                         ids=[repr(m[0]).replace(HUGE, "9...9") for m in NEAR_MISSES])
def test_recogniser_near_misses(line, taken, int_digits_640):
    for header in NEAR_MISS_HEADERS:
        spec = parse_spec(header)
        assert _recognised(line, spec.kind, spec.sig) == taken
        # alone, repeated (a duplicate name), and before the behaviour line
        for text in (header + line + "\n", header + line + "\n" + line + "\n",
                     line + "\n" + header):
            _assert_agrees(text)


# --- ground facts -------------------------------------------------------------------


@pytest.mark.parametrize("line,fact", FACT_SHAPES, ids=[repr(s[0]) for s in FACT_SHAPES])
def test_ground_fact_shapes(line, fact):
    spec = parse_spec(FACT_HEADER + line + "\n")
    if fact is None:
        assert spec.facts == () and len(spec.rules) == 1
    else:
        assert (spec.rules, spec.facts) == ((), (fact,))
        assert validate_spec(spec) == []


def _parse_or_none(text):
    try:
        return parse_spec(text)
    except ParseError:
        return None


def test_validation_diagnostics_do_not_depend_on_the_fact_test():
    # validate_spec reads the rules alone; the same spec with its facts
    # rebuilt as rules, all walked, gives the same diagnostics
    texts = [fixture_text(name) for name in ALL_FIXTURES]
    texts += [random_monotone_lts_text(random.Random(seed)) for seed in range(50)]
    rng = random.Random(3)
    texts += [random_axiom_spec_text(rng, rng.randrange(1, 12)) for _ in range(100)]
    texts += [FACT_HEADER + line + "\n" for line, _ in FACT_SHAPES]
    texts += [header + line + "\n" for header in NEAR_MISS_HEADERS for line, _ in NEAR_MISSES]
    specs = [spec for spec in map(_parse_or_none, texts) if spec is not None]
    diags = [validate_spec(spec) for spec in specs]
    assert [validate_spec(Spec(spec.kind, spec.sig, spec.rules + fact_rules(spec)))
            for spec in specs] == diags
    assert sum(map(len, diags)) > 100


def test_undeclared_label_is_a_variable_and_declared_label_a_literal():
    spec = parse_spec(NEAR_MISS_HEADERS[0] + "rule r : |- s0 -a-> s1\nrule q : |- s0 -c-> d\n")
    assert spec.facts == (("s0", "a", "s1"),)
    assert fact_rules(spec)[0].concl_label == LabelLit("a")
    assert [(r.concl_label, r.concl_target) for r in spec.rules] == [
        (speclang.LabelVar("c"), terms.Var("d"))]


def test_ground_axiom_specs_tokenize_only_behaviour_and_ops_lines(monkeypatch):
    # the recognisers' speed-up is invisible to every other test: patterns
    # that rejected every axiom and ops line would still parse them correctly.
    # A well-formed ops line is read from its match too, so only the
    # behaviour line reaches the tokenizer.
    rng = random.Random(1)
    lines = ["# 140 axioms", "behaviour lts labels a, b", "",
             "ops " + ", ".join(f"s{i}/0" for i in range(40)), ""]
    lines += [f"rule r{i} : |- s{rng.randrange(40)} -{rng.choice('ab')}-> s{rng.randrange(40)}"
              for i in range(140)]
    tokenized = []

    def counting_tokenize(text, line=1):
        tokenized.append(line)
        return tokenize(text, line)

    monkeypatch.setattr(terms, "tokenize", counting_tokenize)
    monkeypatch.setattr(speclang, "tokenize", counting_tokenize)
    spec = parse_spec("\n".join(lines) + "\n")
    assert spec.rules == () and len(spec.facts) == 140
    assert tokenized == [2]
