"""Rule language: parsing, validation, monotonicity analysis."""

import re

import pytest

from bigsos.errors import ParseError
from bigsos.speclang import (Negative, Positive, check_monotone,
                             lookahead_depth, parse_spec, validate_spec)
from bigsos.terms import Signature, parse_term
from conftest import fixture_text

ALL_FIXTURES = ("factstream", "lookahead2", "negloop", "transclosure",
                "empty", "wchain")


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
    with pytest.raises(ParseError, match="duplicate rule name"):
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
