"""Golden CLI replay: exit code and stdout/stderr digests of many invocations.

tests/golden/cli.json holds one entry per invocation: the argv (fixture
files named relative to tests/fixtures), the BIGSOS_SEED it runs under (or
none), the exit code, and SHA-256 digests of stdout and stderr.  The test
replays every entry in-process and names the first one whose output moved.

Regenerate the file, after a deliberate output change only, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import json
import os
import pathlib
import random

from bigsos import relations
from bigsos.cli import run

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden" / "cli.json"

SMALL_CAPS = (("--universe-count", "30", "--universe-size", "8"),
              ("--universe-count", "60", "--universe-size", "10"))
FORMATS = ("text", "json", "dot")

# fixture -> (terms for unfold, pairs for equiv, extra seeds for model/congruence)
TERMS = {
    "empty": (("c",), (("c", "c"),), ()),
    "factstream": (("sigma(pos)", "c", "oplus(ones, ones)"),
                   (("c", "pos"), ("ones", "otimes[1](ones)"), ("sigma(pos)", "pos")),
                   ("oplus(ones, pos)",)),
    "lookahead2": (("tau(c)", "sigma(tau(c))"),
                   (("tau(c)", "tau(d)"), ("tau(c)", "c"), ("sigma(tau(c))", "c")),
                   ("sigma(tau(c))", "sigma(tau(d))")),
    "negloop": (("sigma(c)",), (("sigma(c)", "c"),), ("sigma(sigma(c))",)),
    "transclosure": (("sigma(c)", "c"),
                     (("sigma(c)", "c"), ("sigma(c)", "sigma(sigma(c))")),
                     ("sigma(sigma(c))",)),
    "wchain": (("f(c)", "c"), (("f(c)", "f(d)"), ("c", "d"), ("f(c)", "c")),
               ("f(f(c))",)),
    "explicit": (("s0", "s7"), (("s0", "s1"), ("s3", "s6"), ("s8", "s9")), ("s11",)),
}


def _cases() -> list:
    """(argv, BIGSOS_SEED or None) for every golden invocation."""
    cases = []
    for name, (unfolds, pairs, seeds) in TERMS.items():
        spec = f"{name}.sos"
        for caps in SMALL_CAPS:
            for fmt in FORMATS:
                tail = caps + ("--format", fmt)
                cases.append((("check", spec) + tail, None))
                cases.append((("model", spec) + tail, None))
                cases.append((("model", spec, *seeds) + tail, None))
                cases.append((("laws", spec) + tail, None))
                for term in unfolds:
                    for depth in ("0", "1", "3", "8"):
                        cases.append((("unfold", spec, term, "-d", depth) + tail, None))
                for t1, t2 in pairs:
                    for rel in ("sim", "bisim"):
                        cases.append((("equiv", spec, t1, t2, "--rel", rel) + tail, None))
                for samples, seed in (("20", "0"), ("20", "1"), ("0", "0")):
                    cases.append((("congruence", spec, *seeds, "--samples", samples,
                                   "--seed", seed) + tail, None))
            cases.append((("model", spec, "--force") + caps, None))
            cases.append((("model", spec, "--max-iters", "1") + caps, None))
            cases.append((("unfold", spec, unfolds[0], "--max-iters", "1") + caps, None))
            cases.append((("equiv", spec, *pairs[0], "--max-iters", "1") + caps, None))
            cases.append((("congruence", spec, "--max-iters", "1") + caps, None))
            cases.append((("unfold", spec, unfolds[0], "--force") + caps, None))
            cases.append((("equiv", spec, *pairs[0], "--force") + caps, None))
            cases.append((("congruence", spec, "--force", "--samples", "10") + caps, None))
            cases.append((("congruence", spec, "--samples", "10") + caps, "5"))
    # count and seed errors, alone and combined: the first bad value is reported
    lk = "lookahead2.sos"
    bad = [("--universe-count", "0"), ("--universe-count", "-3"),
           ("--universe-size", "0"), ("--max-iters", "0"), ("-d", "-1"),
           ("--samples", "-1")]
    for cmd in ("check", "model", "congruence", "laws"):
        for flag, value in bad:
            if flag == "--samples" and cmd != "congruence":
                continue
            cases.append(((cmd, lk, flag, value), None))
            cases.append(((cmd, lk, flag, value), "x"))
        cases.append(((cmd, lk), "x"))
        cases.append(((cmd, lk), " 12 "))
        cases.append(((cmd, lk, "--seed", "3"), "x"))
        cases.append(((cmd, "negloop.sos", "--universe-count", "0"), None))
        cases.append(((cmd, "missing.sos"), None))
        cases.append(((cmd, "missing.sos", "--universe-count", "0"), None))
        cases.append(((cmd, "missing.sos"), "x"))
    for i, (f1, v1) in enumerate(bad):
        for f2, v2 in bad[i + 1:]:
            cases.append((("congruence", lk, f2, v2, f1, v1), None))
    cases.append((("unfold", lk, "nosuchop(c)"), None))
    cases.append((("unfold", lk, "tau(c)", "-d", "-2"), "x"))
    cases.append((("equiv", lk, "tau(c)", "nosuchop"), None))
    return cases


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _invoke(argv, seed) -> dict:
    old = os.environ.pop("BIGSOS_SEED", None)
    if seed is not None:
        os.environ["BIGSOS_SEED"] = seed
    try:
        out, err = io.StringIO(), io.StringIO()
        code = run(list(argv), out=out, err=err)
    finally:
        os.environ.pop("BIGSOS_SEED", None)
        if old is not None:
            os.environ["BIGSOS_SEED"] = old
    return {"argv": list(argv), "seed_env": seed, "code": code,
            "out": _digest(out.getvalue()), "err": _digest(err.getvalue())}


def test_cli_matches_golden(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(entries) >= 300
    for want in entries:
        got = _invoke(want["argv"], want["seed_env"])
        assert got == want, f"first differing invocation: {want['argv']} " \
                            f"(BIGSOS_SEED={want['seed_env']})"


def test_golden_congruence_covers_both_paths(monkeypatch):
    """The golden congruence entries reach both paths of congruence_test:
    reports the class-signature groups settle, which draw no sample, and
    reports the sampler draws."""
    monkeypatch.chdir(FIXTURES)
    settled, draws = [], []
    groups_settle = relations._groups_settle
    monkeypatch.setattr(relations, "_groups_settle",
                        lambda *a: settled.append(groups_settle(*a)) or settled[-1])
    choice = random.Random.choice
    monkeypatch.setattr(random.Random, "choice",
                        lambda self, seq: draws.append(1) or choice(self, seq))
    paths = set()
    for want in json.loads(GOLDEN.read_text(encoding="utf-8")):
        if want["argv"][0] != "congruence":
            continue
        settled.clear()
        draws.clear()
        assert _invoke(want["argv"], want["seed_env"]) == want, want["argv"]
        if settled:
            assert settled[0] != bool(draws), want["argv"]
            paths.add(settled[0])
    assert paths == {True, False}


if __name__ == "__main__":
    os.chdir(FIXTURES)
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = [_invoke(argv, seed) for argv, seed in _cases()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n",
                      encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
