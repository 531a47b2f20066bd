"""Command line driver: exit codes, output formats, determinism."""

import ast
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import bigsos
from bigsos.behaviour import PartialStream
from bigsos.cli import _parser, _write_json, run
from bigsos.engine import MAX_ITERS, least_model
from bigsos.relations import CongruenceReport, CongruenceViolation
from bigsos.speclang import parse_spec
from bigsos.terms import App, UniversePolicy, print_term
from conftest import fixture_path, unfold_tree
from spec_gen import random_monotone_lts_text
from test_cli_golden import SMALL_CAPS, TERMS


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --- check -------------------------------------------------------------------------


def test_check_monotone_spec():
    code, out, _ = cli("check", fixture_path("lookahead2"))
    assert code == 0
    assert "monotone: yes" in out


def test_check_negative_spec_names_rule():
    code, out, _ = cli("check", fixture_path("negloop"))
    assert code == 3
    assert "sigma" in out


def test_check_force_does_not_silence_verdict():
    code, _, _ = cli("check", fixture_path("negloop"), "--force")
    assert code == 3


def test_check_json_format():
    code, out, _ = cli("check", fixture_path("negloop"), "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["monotone"] is False
    assert doc["offending_rules"] == ["sigma"]


def test_check_reports_validation_diagnostics():
    code, out, err = cli("check", fixture_path("empty"))
    assert code == 0  # empty but well-formed


# --- model -------------------------------------------------------------------------


def test_model_text_output():
    code, out, _ = cli("model", fixture_path("lookahead2"), "tau(c)")
    assert code == 0
    assert "tau(c) -a-> sigma(tau(c))" in out
    assert "converged yes" in out


def test_model_empty_spec_all_bottom():
    code, out, _ = cli("model", fixture_path("empty"))
    assert code == 0
    assert "c ⊥" in out


def test_model_weighted_text_shows_weights():
    code, out, _ = cli("model", fixture_path("wchain"))
    assert code == 0
    lines = out.splitlines()
    for line in ("c -a[1.0]-> d", "c -b[1.0]-> c", "d ⊥"):
        assert line in lines


def test_model_json_has_report():
    code, out, _ = cli("model", fixture_path("lookahead2"), "tau(c)",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["behaviour", "frontier", "report", "universe"]
    assert doc["report"]["converged"] is True


def test_model_nonmonotone_refused():
    code, _, err = cli("model", fixture_path("negloop"))
    assert code == 3
    assert "sigma" in err


def test_model_forced_oscillation_exits_4():
    code, out, _ = cli("model", fixture_path("negloop"), "--force")
    assert code == 4
    assert "oscillation yes" in out  # report still printed


def test_model_dot_output():
    code, out, _ = cli("model", fixture_path("lookahead2"), "tau(c)",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph model {")


def test_model_dot_rejected_for_streams():
    code, out, err = cli("model", fixture_path("factstream"), "--format", "dot")
    assert code == 0
    assert "digraph" not in out
    assert "dot" in err  # warned, fell back to json
    assert "universe" in json.loads(out)


# --- unfold ------------------------------------------------------------------------


def test_unfold_factorials():
    code, out, _ = cli("unfold", fixture_path("factstream"), "sigma(pos)",
                       "-d", "3", "--universe-size", "16", "--universe-count", "400")
    assert code == 0
    assert out.strip() == "1 6 120"


def test_unfold_bottom_marker():
    code, out, _ = cli("unfold", fixture_path("factstream"), "c", "-d", "2",
                       "--universe-size", "16", "--universe-count", "400")
    assert code == 0
    assert out.strip() == "1 ⊥"


def test_unfold_json():
    code, out, _ = cli("unfold", fixture_path("lookahead2"), "tau(c)",
                       "-d", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["term"] == "tau(c)"
    assert "a" in doc["step"]


def test_unfold_weighted_text_shows_weights():
    code, out, _ = cli("unfold", fixture_path("wchain"), "f(c)", "-d", "2")
    assert code == 0
    assert out.splitlines() == ["f(c)", "  -b[1.0]-> f(d)"]


def test_unfold_and_model_order_successors_alike(tmp_path):
    # one successor order everywhere: the model's structural order (state_key),
    # so g(z) comes before the smaller z in model and unfold, text and JSON
    spec = tmp_path / "order.sos"
    spec.write_text("behaviour lts labels a\nops c/0, z/0, g/1\n"
                    "rule c1 : |- c -a-> z\nrule c2 : |- c -a-> g(z)\n")
    code, out, _ = cli("model", str(spec), "c")
    assert code == 0
    assert out.splitlines()[:2] == ["c -a-> g(z)", "c -a-> z"]
    code, out, _ = cli("model", str(spec), "c", "--format", "json")
    assert json.loads(out)["behaviour"]["c"] == {"a": ["g(z)", "z"]}
    code, out, _ = cli("unfold", str(spec), "c", "-d", "1")
    assert code == 0
    assert out.splitlines() == ["c", "  -a-> g(z)", "  -a-> z"]
    code, out, _ = cli("unfold", str(spec), "c", "-d", "1", "--format", "json")
    assert [node["term"] for node in json.loads(out)["step"]["a"]] == ["g(z)", "z"]


# The unfold renderer as it was before it read rows: a tree of nested values
# (conftest.unfold_tree), walked recursively and dumped by json.dumps.

JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=30)


@given(JSON_DOCS)
def test_json_text_matches_json_dumps(doc):
    out = io.StringIO()
    _write_json(doc, out)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


# The writer's one-join shapes (containers of scalars, arrays of non-empty
# string arrays) and their near misses, which take the general path.
FAST_PATH_DOCS = [
    [["s1", "s2"], ["s1", "s3"], ["s2", "s2"]],
    {"related": True, "witness": {"pairs": [["c", "c"], ["c", "d"]]}, "relation": "sim"},
    {"a": ["sigma(c)", "c"], "b": ["d"]},
    {"c": {}, "d": {"a": ["x"]}, "e": [], "f": ()},
    [[]],
    [["a"], []],
    [[], ["a"]],
    [],
    {},
    ("a", "b"),
    (("a", "b"), ["c"]),
    [("a",), ("b", "c")],
    ["a", 1, 2.5, None, True, "b"],
    [["a", 1], ["b"]],
    [["a"], [None]],
    [["a"], "b"],
    [["a"], {"b": "c"}],
    [[["a"]]],
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0,
     "big": 10 ** 40, "neg": -(10 ** 40), "yes": True, "no": False, "none": None},
    [math.nan, math.inf, -math.inf, -0.0, 10 ** 40, True, None],
    {"é\u2028\x00\x1f\"\\": "ü\x7f\ud800\n\t", "ключ": ["平", "\x01"], "": ""},
    ["é", "\u2029", "\x1b"],
    [["\U0001f600", "\\\""], ["\x00"]],
]


@pytest.mark.parametrize("doc", FAST_PATH_DOCS, ids=range(len(FAST_PATH_DOCS)))
def test_json_fast_paths_match_json_dumps(doc):
    for level in (doc, [doc], {"k": [0, doc]}):  # at indent 0, 1 and 3
        out = io.StringIO()
        _write_json(level, out)
        assert out.getvalue() == json.dumps(level, indent=2) + "\n"


class CountingOut:
    def __init__(self):
        self.parts: list = []

    def write(self, text):
        self.parts.append(text)


def test_json_is_written_piece_by_piece():
    # a witness-shaped array, one container of 40,000 pairs, and a deep
    # general-path tree: both reach out in many writes, none the whole document
    pairs = [[f"s{i}", f"s{j}"] for i in range(200) for j in range(200)]
    tree: dict = {"leaf": None}
    for i in range(300):
        tree = {"depth": i, "step": [tree, "x" * 50]}
    for doc in ({"pairs": pairs}, tree):
        out = CountingOut()
        _write_json(doc, out)
        want = json.dumps(doc, indent=2) + "\n"
        assert len(out.parts) >= 5 and max(map(len, out.parts)) < len(want)
        assert "".join(out.parts) == want


# sha256 of the text of `model transclosure.sos` under the default caps
TRANSCLOSURE_MODEL_SHA256 = "537e2cd11964999b500d407a185e25fc669b8167414cc4db9a0c740710daf8fc"


def test_text_is_written_line_by_line():
    # every write is one line; the lines join to the whole output
    unfold = "c\n" + "".join("  " * k + "-a[1.0]-> d\n" + "  " * k + "-b[1.0]-> c\n"
                             for k in range(1, 2001))
    for argv, check in (
            (("unfold", fixture_path("wchain"), "c", "-d", "2000"), lambda text: text == unfold),
            (("model", fixture_path("transclosure")),
             lambda text: hashlib.sha256(text.encode()).hexdigest() == TRANSCLOSURE_MODEL_SHA256)):
        out = CountingOut()
        assert run(list(argv), out=out, err=io.StringIO()) == 0
        assert len(out.parts) > 60
        assert all(part.endswith("\n") and part.count("\n") == 1 for part in out.parts)
        assert check("".join(out.parts)), argv


# The child's own peak: VmHWM belongs to the process image that exec made,
# while ru_maxrss starts from the peak of the parent that spawned it.
PEAK_RSS_KIB = """
import os, sys
from bigsos.cli import run
with open(os.devnull, "w") as out:
    run(sys.argv[1:], out=out)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_text_peak_memory_does_not_grow_with_output():
    # unfold -d 6000 prints about 70 MB of text, -d 500 about 0.5 MB
    src = str(pathlib.Path(bigsos.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    peaks = []
    for depth in ("6000", "500"):
        argv = ["unfold", fixture_path("wchain"), "c", "-d", depth]
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS_KIB, *argv], env=env,
                              capture_output=True, text=True, check=True)
        peaks.append(int(proc.stdout) / 1024)
    assert peaks[0] - peaks[1] < 20, peaks


def _limit_address_space(mib):
    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))
    return limit


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets RLIMIT_AS")
def test_running_out_of_memory_exits_4_without_a_traceback():
    # the unfold rows of a million steps outgrow a 300 MB address space; the
    # limit is set in the child only
    src = str(pathlib.Path(bigsos.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "bigsos", "unfold", fixture_path("wchain"),
                           "c", "-d", "1000000", "--format", "json"],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120, preexec_fn=_limit_address_space(300))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: out of memory\n"


def test_one_json_writer():
    # every JSON document goes through _write_json: no json.dumps with indent
    for path in sorted(pathlib.Path(bigsos.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)) \
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps":
                assert "indent" not in {k.arg for k in node.keywords}, \
                    f"{path.name}:{node.lineno} calls dumps with indent"


def tree_text(kind, tree) -> list:
    if isinstance(kind, PartialStream):
        labels = []
        while tree.step is not None:
            if kind.is_bottom(tree.step):
                labels.append("⊥")
                break
            labels.append(str(tree.step.label))
            tree = tree.step.state
        return [" ".join(labels) if labels else "⊥"]
    lines = [print_term(tree.root)]

    def walk(node, indent):
        if node.step is None:
            return
        for lab, kid, w in kind.moves(node.step):
            mark = "  # opaque" if kid.opaque else ""
            lines.append("  " * indent + f"{kind.arrow(lab, w)} {print_term(kid.root)}{mark}")
            walk(kid, indent + 1)

    walk(tree, 1)
    return lines


def tree_document(kind, tree) -> dict:
    node = {"term": print_term(tree.root), "depth": tree.depth}
    if tree.opaque:
        node["opaque"] = True
    node["step"] = (None if tree.step is None else
                    kind.tree_json(tree.step, lambda sub: tree_document(kind, sub)))
    return node


def test_unfold_matches_the_tree_renderer(tmp_path):
    # every fixture but the non-monotone negloop, which unfold refuses, and
    # 30 generated specs; up to six carrier terms each, depths 0-4
    specs = [(fixture_path(name), SMALL_CAPS[0]) for name in TERMS if name != "negloop"]
    for seed in range(30):
        path = tmp_path / f"gen{seed}.sos"
        path.write_text(random_monotone_lts_text(random.Random(seed)))
        specs.append((str(path), ("--universe-count", "10", "--universe-size", "3")))
    for path, caps in specs:
        spec = parse_spec(pathlib.Path(path).read_text())
        policy = UniversePolicy(max_count=int(caps[1]), max_size=int(caps[3]))
        constants = [App(c) for c in spec.sig.constants()]
        for t in least_model(spec, constants, policy)[0].carrier()[:6]:
            model, _ = least_model(spec, constants + [t], policy)  # as the CLI seeds it
            for depth in range(5):
                tree = unfold_tree(model, t, depth)
                argv = ("unfold", path, print_term(t), "-d", str(depth)) + caps
                want = "\n".join(tree_text(spec.kind, tree)) + "\n"
                assert cli(*argv) == (0, want, ""), argv
                want = json.dumps(tree_document(spec.kind, tree), indent=2) + "\n"
                assert cli(*argv, "--format", "json") == (0, want, ""), argv


# --- equiv, congruence, laws ---------------------------------------------------------


def test_equiv_text_verdict():
    code, out, _ = cli("equiv", fixture_path("lookahead2"), "tau(c)", "tau(d)")
    assert code == 0
    assert "related: yes" in out


def test_equiv_unrelated_terms():
    code, out, _ = cli("equiv", fixture_path("lookahead2"), "tau(c)", "c")
    assert code == 0
    assert "related: no" in out


def test_equiv_reports_first_separating_round():
    # every sigma-term of this model is tainted and the unfoldings branch
    # widely; the bisimilarity refinement separates the pair in round 2
    code, out, _ = cli("equiv", fixture_path("transclosure"), "sigma(c)", "c")
    assert code == 0
    assert out == "related: no\nwitness: distinguishing depth 2\n"


def test_congruence_clean():
    code, out, _ = cli("congruence", fixture_path("lookahead2"),
                       "sigma(tau(c))", "sigma(tau(d))", "--samples", "25")
    assert code == 0
    assert "violations 0" in out


def test_congruence_prints_each_violation(monkeypatch):
    # hand-made: on a monotone spec every violation today comes from truncation
    ones = App("ones")
    report = CongruenceReport(9, 7, 2, (
        CongruenceViolation("otimes", (2,), App("otimes", (2,), (ones,)),
                            App("otimes", (2,), (App("pos"),)), 2),
        CongruenceViolation("oplus", (), App("oplus", (), (ones, ones)),
                            App("oplus", (), (ones, App("c"))), None)))
    monkeypatch.setattr(bigsos.cli, "congruence_test",
                        lambda spec, model, samples, depth, seed: report)
    argv = ("congruence", fixture_path("factstream"), "ones")
    assert cli(*argv) == (0, "checked 7 skipped 2 violations 2\n"
                             "  otimes[2](ones) !~ otimes[2](pos)\n"
                             "  oplus(ones, ones) !~ oplus(ones, c)\n", "")
    assert cli(*argv, "--format", "json") == (0, json.dumps({
        "samples": 9, "checked": 7, "skipped": 2, "violations": [
            {"op": "otimes", "params": [2], "left": "otimes[2](ones)",
             "right": "otimes[2](pos)", "depth": 2},
            {"op": "oplus", "params": [], "left": "oplus(ones, ones)",
             "right": "oplus(ones, c)", "depth": None}]}, indent=2) + "\n", "")


def test_laws_all_pass():
    code, out, _ = cli("laws", fixture_path("lookahead2"))
    assert code == 0
    for law in ("L3", "L2", "T1", "T2-eta", "T2-mu"):
        assert f"{law}: pass" in out


def test_laws_json_is_exact_and_ignores_depth():
    argv = ("laws", fixture_path("transclosure"), "--universe-size", "9",
            "--universe-count", "40", "--format", "json")
    shallow, deep = cli(*argv, "-d", "1"), cli(*argv, "-d", "5")
    assert shallow == deep
    code, out, _ = shallow
    assert code == 0
    doc = json.loads(out)
    assert all(r["status"] == "pass" for r in doc)
    witnesses = {r["law"]: r["witness"] for r in doc}
    assert witnesses["T1"] == {"checked": 4, "skipped": 15}
    assert witnesses["T2-mu"] == {"checked": 4, "skipped": 33}
    assert not any("depth" in w for w in witnesses.values())


# --- error handling -------------------------------------------------------------------


def test_parse_error_exits_1(tmp_path):
    bad = tmp_path / "bad.sos"
    bad.write_text("behaviour lts labels a\nops c/0\nrule r: |- c -a->\n")
    code, _, err = cli("check", str(bad))
    assert code == 1
    assert "error" in err


def test_missing_file_exits_2():
    code, _, err = cli("model", "/does/not/exist.sos")
    assert code == 2


def test_invalid_term_argument(tmp_path):
    code, _, err = cli("unfold", fixture_path("lookahead2"), "nosuchop(c)")
    assert code == 1


def test_unknown_name_in_a_term_is_an_unknown_operator():
    # a CLI term is closed, so a bare unknown name is not a variable
    look2 = fixture_path("lookahead2")
    assert cli("equiv", look2, "tau(c)", "nosuchop") == (
        1, "", "error: unknown operator 'nosuchop' (line 1, column 1)\n")
    assert cli("model", look2, "sigma(nosuch)") == (
        1, "", "error: unknown operator 'nosuch' (line 1, column 7)\n")


def test_nat_int_cannot_read_exits_1(tmp_path):
    # "1²" is one natural token, which int() rejects: a parse error, not exit 2
    bad = tmp_path / "sup.sos"
    bad.write_text("behaviour stream nat\nops ones/0\nrule ones : |- ones -1²-> ones\n")
    assert cli("check", str(bad)) == (
        1, "", "error: expected nat, got '1²' (line 3, column 22)\n")
    assert cli("model", fixture_path("factstream"), "otimes[2²](ones)") == (
        1, "", "error: expected nat, got '2²' (line 1, column 8)\n")


@pytest.mark.parametrize("text, want", [
    ("behaviour stream\n", "behaviour line needs a label domain (line 1, column 17)"),
    ("behaviour lts labels\n", "behaviour line needs a label domain (line 1, column 21)"),
    ("behaviour lts labels a b\n", "trailing input 'b' (line 1, column 24)"),
    ("behaviour stream nat 1\n", "trailing input '1' (line 1, column 22)"),
    ("behaviour lts labels a\nbehaviour lts labels a\n",
     "duplicate behaviour line (line 2, column 1)"),
    ("ops c/0\n", "missing behaviour line"),
    ("", "missing behaviour line"),
    # not the ops pattern's shape, so the ops line is tokenized
    ("behaviour lts labels a\nops c/0 d/0\n", "trailing input 'd' (line 2, column 9)"),
    ("behaviour lts labels a\nops c/0, d/1[1] )\n", "trailing input ')' (line 2, column 17)"),
    ("behaviour lts labels a\nops c/0\nrule c : |- c -a-> c c\n",
     "trailing input 'c' (line 3, column 22)"),
    ("behaviour stream nat\nops c/0, g/1\nrule g : x -n-> y |- g(x) -n+1-> y )\n",
     "trailing input ')' (line 3, column 36)"),
    # premises are separated by commas, with none before the first or after the last
    ("behaviour stream nat\nops c/0, g/1\nrule c : |- c -1-> c\n"
     "rule g : x -n-> y, |- g(x) -n-> y\n", "expected ident, got '|-' (line 4, column 20)"),
    ("behaviour stream nat\nops c/0, g/1\nrule c : |- c -1-> c\nrule g : , |- g(x) -n-> x\n",
     "expected ident, got ',' (line 4, column 10)"),
], ids=["no-domain", "no-label-names", "behaviour-trailing", "nat-trailing",
        "duplicate-behaviour", "missing-behaviour", "empty-file", "ops-trailing",
        "ops-trailing-bracket", "axiom-trailing", "rule-trailing", "premise-trailing-comma",
        "premise-leading-comma"])
def test_spec_syntax_errors_exit_1(tmp_path, text, want):
    path = tmp_path / "bad.sos"
    path.write_text(text, encoding="utf-8")
    assert cli("check", str(path)) == (1, "", f"error: {want}\n")


def test_trailing_input_after_a_term_exits_1():
    stream = fixture_path("factstream")
    assert cli("model", stream, "ones ones") == (
        1, "", "error: trailing input 'ones' (line 1, column 6)\n")
    assert cli("model", stream, "oplus(ones, pos))") == (
        1, "", "error: trailing input ')' (line 1, column 17)\n")


@pytest.mark.parametrize("text, want", [
    ("behaviour stream nat\nops c/0, f/1[2]\nrule c : |- c -1-> c\n"
     "rule f : |- f[m, m](x) -m-> x\n",
     "rule f: head parameter variables not distinct\nmonotone: yes\n"),
    ("behaviour stream nat\nops c/0, g/1\nrule g : x -n-> x |- g(x) -n-> x\n",
     "rule g: premise target 'x' not fresh\nmonotone: yes\n"),
    ("behaviour lts labels a\nops c/0, g/1\nrule g : x -l-/-> |- g(x) -a-> x\n",
     "rule g: negative premise requires a literal label\nmonotone: no (g)\n"),
    ("behaviour stream nat\nops c/0, g/1\nrule g : x -n-> y |- g(x) -n-> h(y)\n",
     "rule g: unknown operator 'h' in conclusion target\nmonotone: yes\n"),
    ("behaviour stream nat\nops c/0, g/1, f/1[1]\nrule g : x -n-> y |- g(x) -n-> f[k](y)\n",
     "rule g: operator parameter uses variable 'k' that cannot be a natural here\n"
     "monotone: yes\n"),
    ("behaviour lts labels a\nops c/0, g/1, f/1[1]\nrule g : |- g(x) -a-> f[a](x)\n",
     "rule g: operator parameter literal 'a' is not a natural\nmonotone: yes\n"),
], ids=["head-params", "not-fresh", "negative-variable", "unknown-target-op",
        "param-variable", "param-literal"])
def test_check_prints_diagnostics_and_exits_2(tmp_path, text, want):
    path = tmp_path / "diag.sos"
    path.write_text(text, encoding="utf-8")
    assert cli("check", str(path)) == (2, want, "")


def test_validation_diagnostics_exit_2(tmp_path):
    bad = tmp_path / "diag.sos"
    bad.write_text("behaviour lts labels a\nops c/0\nrule r: |- c -b-> c\n")
    code, _, err = cli("model", str(bad))
    assert code == 2
    assert "label" in err


def test_inconsistent_stream_spec_is_a_user_error(tmp_path):
    bad = tmp_path / "twosteps.sos"
    bad.write_text("behaviour stream nat\nops c/0\n"
                   "rule a : |- c -1-> c\nrule b : |- c -2-> c\n")
    code, out, err = cli("model", str(bad))
    assert code == 2
    assert err == "error: c: inconsistent stream step: (1, c), (2, c)\n"
    assert "internal" not in err and out == ""


def test_conclusion_label_outside_domain_is_a_user_error(tmp_path):
    bad = tmp_path / "paramlabel.sos"
    bad.write_text("behaviour lts labels a\nops f/1[1], c/0\n"
                   "rule r : |- f[m](x) -m-> x\n")
    code, _, err = cli("model", str(bad), "f[1](c)")
    assert code == 2
    assert err.startswith("error: rule r: conclusion label 1 outside the label domain")


def test_usage_errors_and_help_go_to_runs_streams(capsys):
    code, out, err = cli("model")
    assert code == 2 and out == ""
    assert err.startswith("usage: bigsos model")
    assert "error: the following arguments are required: spec_file" in err
    code, out, err = cli("frobnicate")
    assert code == 2 and out == "" and "invalid choice: 'frobnicate'" in err
    code, out, err = cli("unfold", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: bigsos unfold") and "--universe-count" in out
    assert capsys.readouterr() == ("", "")  # nothing reached the process streams
    # the parser is shared between runs and keeps no state from them
    assert cli("model", "--help") == cli("model", "--help")
    assert cli("check", fixture_path("lookahead2"))[0] == 0


def test_cap_defaults_are_the_librarys():
    args = _parser().parse_args(["model", "spec.sos"])
    caps = UniversePolicy()
    assert (args.universe_count, args.universe_size, args.max_iters) == (
        caps.max_count, caps.max_size, MAX_ITERS) == (500, 12, 1000)
    text = " ".join(cli("model", "--help")[1].split())
    assert "--universe-count N universe term budget (default 500)" in text
    assert "--universe-size N largest term admitted into the universe (default 12)" in text


def test_bad_bounds_rejected():
    for flag in ("--universe-count", "--universe-size", "--max-iters"):
        want = (2, "", f"error: {flag} must be positive\n")
        assert cli("model", fixture_path("lookahead2"), flag, "0") == want
        # checked before the spec is read: negloop alone would exit 3
        assert cli("laws", fixture_path("negloop"), flag, "-1") == want


def test_counts_are_checked_in_flag_order():
    argv = ("congruence", fixture_path("lookahead2"), "--samples", "-1", "-d", "-1",
            "--max-iters", "0", "--universe-size", "0")
    assert cli(*argv) == (2, "", "error: --universe-size must be positive\n")
    assert cli(*argv, "--universe-count", "0") == (
        2, "", "error: --universe-count must be positive\n")
    assert cli("congruence", fixture_path("lookahead2"), "--samples", "-1", "-d", "-1") == (
        2, "", "error: --depth must be a natural\n")


def test_bad_seed_env_names_the_variable(monkeypatch):
    monkeypatch.setenv("BIGSOS_SEED", "x")
    want = (2, "", "error: BIGSOS_SEED must be an integer, got 'x'\n")
    assert cli("congruence", fixture_path("lookahead2")) == want
    # the seed is checked before the counts
    assert cli("model", fixture_path("lookahead2"), "--universe-count", "0") == want
    # an explicit --seed leaves the variable unread
    assert cli("check", fixture_path("lookahead2"), "--seed", "3")[0] == 0


def test_negative_samples_rejected():
    want = "error: --samples must be a natural\n"
    for fmt in ("text", "json"):
        assert cli("congruence", fixture_path("factstream"), "--samples", "-5",
                   "--format", fmt) == (2, "", want)
    # rejected before the model is built: negloop alone would exit 3
    assert cli("congruence", fixture_path("negloop"), "--samples", "-5") == (2, "", want)
    assert cli("congruence", fixture_path("negloop"), "--samples", "0")[0] == 3
    done = _run_module(("congruence", "factstream", "--samples", "-5"))
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", want.encode())
    assert cli("congruence", fixture_path("factstream"), "--samples", "0") == (
        0, "checked 0 skipped 0 violations 0\n", "")


# --- seeds and determinism -------------------------------------------------------------


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("BIGSOS_SEED", "9")
    code1, out1, _ = cli("congruence", fixture_path("lookahead2"),
                         "sigma(tau(c))", "sigma(tau(d))", "--samples", "20",
                         "--format", "json")
    monkeypatch.delenv("BIGSOS_SEED")
    code2, out2, _ = cli("congruence", fixture_path("lookahead2"),
                         "sigma(tau(c))", "sigma(tau(d))", "--samples", "20",
                         "--seed", "9", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("model", "lookahead2", "tau(c)", "--format", "json"),
    ("laws", "wchain", "--format", "json"),
    ("congruence", "lookahead2", "sigma(tau(c))", "--samples", "15",
     "--seed", "4", "--format", "json"),
])
def test_byte_identical_reruns(argv):
    argv = (argv[0], fixture_path(argv[1])) + argv[2:]
    one = cli(*argv)
    two = cli(*argv)
    assert one == two


# Each command runs in a fresh interpreter under several hash seeds: output that
# leaned on set or dict iteration order of hashed strings would differ here.
CROSS_PROCESS_COMMANDS = [
    ("model", "transclosure", "--format", "json"),
    ("model", "lookahead2", "--format", "json"),
    ("unfold", "factstream", "sigma(pos)", "-d", "3", "--universe-size", "16"),
    ("laws", "wchain"),
    ("congruence", "factstream"),
    ("equiv", "wchain", "f(c)", "f(d)"),
    ("equiv", "factstream", "c", "pos", "--rel", "sim", "--universe-size", "16",
     "--format", "json"),
    ("equiv", "transclosure", "sigma(c)", "c"),
    # many iterations with frontier promotion, and the law suite's lifted models
    pytest.param(("unfold", "factstream", "sigma(pos)", "-d", "6", "--universe-size", "48",
                  "--universe-count", "8000"), id="unfold-factstream-promoting"),
    ("laws", "transclosure", "--universe-size", "9", "--universe-count", "40"),
    # deep terms printed many times from their cached text, and a run that
    # builds and drops many terms while the intern table churns
    pytest.param(("model", "transclosure", "sigma(" * 12 + "c" + ")" * 12, "--universe-size",
                  "14", "--universe-count", "14", "--format", "json"),
                 id="model-transclosure-deep"),
    pytest.param(("congruence", "factstream", "--samples", "400", "--seed", "7",
                  "--format", "json"), id="congruence-factstream-churn"),
]


def _run_module(argv, hash_seed=0):
    """`python -m bigsos` in a fresh process; argv[1] names a fixture."""
    src = str(pathlib.Path(bigsos.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("BIGSOS_SEED", None)
    argv = (argv[0], fixture_path(argv[1])) + argv[2:]
    return subprocess.run([sys.executable, "-m", "bigsos", *argv], env=env,
                          capture_output=True, timeout=60)


def _cli_in_subprocess(argv, hash_seed):
    done = _run_module(argv, hash_seed)
    return done.returncode, done.stdout


@pytest.mark.parametrize("argv", CROSS_PROCESS_COMMANDS, ids=lambda a: "-".join(a[:2]))
def test_output_identical_across_hash_seeds(argv):
    runs = [_cli_in_subprocess(argv, seed) for seed in (0, 1, 2)]
    assert runs[0][0] == 0
    assert runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_output_identical_after_term_churn_in_one_process():
    # terms hash by identity, so a set of terms iterates in an order that
    # depends on where its terms were allocated; no output may follow it
    commands = [getattr(c, "values", (c,))[0] for c in CROSS_PROCESS_COMMANDS]

    def outputs():
        return [cli(argv[0], fixture_path(argv[1]), *argv[2:]) for argv in commands]

    first = outputs()
    assert all(code == 0 and out for code, out, _ in first)
    kept = [App("churn", (i,), (App(f"k{i % 97}"),)) for i in range(40000)][::3]
    assert outputs() == first
    del kept
    assert outputs() == first


def test_deep_seed_is_a_clean_error():
    # deeper than the interpreter's recursion limit: the parser cannot build it
    deep = "sigma(" * 1200 + "c" + ")" * 1200
    assert cli("model", fixture_path("transclosure"), deep) == (
        2, "", "error: input nested too deeply\n")
    done = _run_module(("model", "transclosure", deep))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, b"", b"error: input nested too deeply\n")


def test_deep_label_is_a_clean_error(tmp_path):
    # the label parser recurses three frames per parenthesis; past the
    # recursion limit it is refused like any other input too deep to parse
    path = tmp_path / "deep.sos"
    for depth in (100, 400):
        path.write_text("behaviour stream nat\nops c/0, g/1\nrule c : |- c -1-> c\n"
                        "rule g : x -n-> y |- g(x) -" + "(" * depth + "n" + "+1)" * depth
                        + "-> y\n", encoding="utf-8")
        if depth == 100:
            code, out, err = cli("model", str(path), "g(c)")
            assert (code, err) == (0, "") and "g(c) -101-> c" in out
            continue
        assert cli("model", str(path), "g(c)") == (2, "", "error: input nested too deeply\n")
        assert cli("check", str(path)) == (2, "", "error: input nested too deeply\n")


def test_deep_unfolds_succeed():
    # one walk and an iterative JSON writer: no depth limit but the output's
    # size, far past the interpreter's recursion limit in text, and past the
    # 199 levels json.dumps could nest in JSON
    wchain, stream = fixture_path("wchain"), fixture_path("factstream")
    code, text, err = cli("unfold", wchain, "c", "-d", "2000")
    lines = text.splitlines()
    assert (code, err, len(lines)) == (0, "", 1 + 2 * 2000)  # c -a-> d and c -b-> c
    assert lines[-2:] == ["  " * 2000 + "-a[1.0]-> d", "  " * 2000 + "-b[1.0]-> c"]
    assert cli("unfold", stream, "ones", "-d", "2000") == (0, " ".join(["1"] * 2000) + "\n", "")
    # JSON nests 8 indent levels per wchain step and 4 per stream step; no
    # json.loads, since the parser recurses too
    for path, term, per_level, per_line in ((wchain, "c", 8, 21), (stream, "ones", 4, 7)):
        code, out, err = cli("unfold", path, term, "-d", "500", "--format", "json")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", per_line * 500 + 5)
        assert " " * (2 + per_level * 500) + '"depth": 0,' in lines
        assert lines[-1] == "}"
    done = _run_module(("unfold", "wchain", "c", "-d", "2000"))
    assert (done.returncode, done.stdout, done.stderr) == (0, text.encode(), b"")


def test_unfold_prints_a_seed_as_deep_as_model_does():
    deep = "f(" * 400 + "c" + ")" * 400
    assert cli("model", fixture_path("wchain"), deep)[0] == 0
    assert cli("unfold", fixture_path("wchain"), deep, "-d", "2") == (0, deep + "\n", "")
