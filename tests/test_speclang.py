"""Rule language: parsing, validation, monotonicity analysis."""

import random
import re

import pytest

from bigsos import speclang, terms
from bigsos.errors import ParseError
from bigsos.speclang import (_GROUND_AXIOM, Negative, Positive, Spec, _ground_axiom,
                             _parse_behaviour_line, _parse_ops_line, _parse_rule_line,
                             check_monotone, ground_fact, lookahead_depth, parse_spec,
                             validate_spec)
from bigsos.terms import Signature, TokenCursor, parse_term, tokenize
from conftest import fixture_text
from spec_gen import FACT_HEADER, FACT_SHAPES, random_monotone_lts_text

ALL_FIXTURES = ("factstream", "lookahead2", "negloop", "transclosure",
                "empty", "wchain", "explicit")


# --- parsing the fixtures ------------------------------------------------------------


def test_factstream_shape():
    spec = parse_spec(fixture_text("factstream"))
    assert spec.kind.name == "stream"
    assert spec.kind.labels is None          # naturals
    assert len(spec.rules) == 6
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
], ids=("axiom-then-premise-rule", "indented-axiom", "tab-indented-axiom"))
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


def test_negative_premise_needs_bound_source():
    diags = diags_for("rule bad: u -a-/-> |- f(x) -a-> x")
    assert any("unbound premise source 'u'" in d.message for d in diags)


def test_clean_gsos_rule_passes():
    assert diags_for("rule ok: x -a-> y |- f(x) -a-> f(y)") == []


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
    as it was before the ground-axiom recogniser; the recogniser's oracle."""
    kind = None
    sig = Signature(())
    has_ops = False
    rules = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cur = TokenCursor(tokenize(raw, lineno))
        first = cur.peek()
        if first.kind == "eof":
            continue
        if first.kind != "ident":
            raise ParseError(f"expected a declaration, got {first.value!r}", lineno, first.col)
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
            if rules:
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
                raise ParseError(f"duplicate rule name {rule.name!r}", lineno, first.col)
            seen.add(rule.name)
            rules.append(rule)
        else:
            raise ParseError(f"unknown declaration {keyword!r}", lineno, first.col)
    if kind is None:
        raise ParseError("missing behaviour line")
    return Spec(kind, sig, tuple(rules))


def _outcome(text, parse):
    try:
        spec = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)
    return spec.kind, spec.sig.operators(), spec.rules


def _recognised(raw, kind, sig) -> bool:
    """Whether the recogniser takes raw as a ground axiom; if it does, the rule
    it builds must be the one the general parser builds."""
    m = _GROUND_AXIOM.fullmatch(raw)
    if m is None or m["name"] is None:
        return False
    cur = TokenCursor(tokenize(raw))
    assert cur.next().value == "rule", repr(raw)
    assert _ground_axiom(m, kind, sig) == _parse_rule_line(cur, kind, sig), repr(raw)
    return True


def _assert_agrees(text) -> int:
    """parse_spec gives the reference's spec, or its exact error; returns how
    many lines the recogniser took."""
    expected = _outcome(text, reference_parse_spec)
    assert _outcome(text, parse_spec) == expected, text
    if expected[0] == "error":
        return 0
    spec = reference_parse_spec(text)
    return sum(_recognised(raw, spec.kind, spec.sig) for raw in text.splitlines())


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
    ("rule r : |- s0 -a-> s1\f", False),
    ("rule 1r : |- s0 -a-> s1", False),
    ("rule r : |- 1 -a-> s1", False),
    ("rule r : |- s0 -a-> 1", False),
]


@pytest.mark.parametrize("line,taken", NEAR_MISSES, ids=[repr(m[0]) for m in NEAR_MISSES])
def test_recogniser_near_misses(line, taken):
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
    rule, = spec.rules
    assert ground_fact(rule, spec.kind, spec.sig) == fact
    if fact is not None:
        assert validate_spec(spec) == []


def _parse_or_none(text):
    try:
        return parse_spec(text)
    except ParseError:
        return None


def test_validation_diagnostics_do_not_depend_on_the_fact_test(monkeypatch):
    # a rule ground_fact accepts is passed by; every other rule is walked
    texts = [fixture_text(name) for name in ALL_FIXTURES]
    texts += [random_monotone_lts_text(random.Random(seed)) for seed in range(50)]
    rng = random.Random(3)
    texts += [random_axiom_spec_text(rng, rng.randrange(1, 12)) for _ in range(100)]
    texts += [FACT_HEADER + line + "\n" for line, _ in FACT_SHAPES]
    texts += [header + line + "\n" for header in NEAR_MISS_HEADERS for line, _ in NEAR_MISSES]
    texts = [text for text in texts if _parse_or_none(text) is not None]
    diags = [validate_spec(parse_spec(text)) for text in texts]
    # fresh specs: each Spec classifies its rules once and keeps the answers
    monkeypatch.setattr(speclang, "ground_fact", lambda rule, kind, sig: None)
    assert [validate_spec(parse_spec(text)) for text in texts] == diags
    assert sum(map(len, diags)) > 100


def test_undeclared_label_is_a_variable_and_declared_label_a_literal():
    spec = parse_spec(NEAR_MISS_HEADERS[0] + "rule r : |- s0 -a-> s1\nrule q : |- s0 -c-> d\n")
    assert [(r.concl_label, r.concl_target) for r in spec.rules] == [
        (speclang.LabelLit("a"), speclang.TemplateApp("s1")),
        (speclang.LabelVar("c"), terms.Var("d"))]


def test_ground_axiom_specs_tokenize_only_behaviour_and_ops_lines(monkeypatch):
    # the recogniser's speed-up is invisible to every other test: a pattern
    # that rejected every axiom would still parse them all correctly
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
    assert len(spec.rules) == 140
    assert tokenized == [2, 4]
