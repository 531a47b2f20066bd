"""Mutation fuzz of the command line: no spec text may crash it.

Each fixture spec, without its comment lines, is mutated by one to three
character deletions, insertions or replacements, drawn from the characters
of those texts plus the rule syntax's symbols, digits and "²" (a numeral
that is not a decimal digit).  Every mutant runs in-process through one of
the six subcommands at small caps.  Whatever the mutant says, the command
must end with an exit code and a message: no exception may leave cli.run,
and no run may exit 5 or print an internal error or a traceback.  The
random source is seeded, so every run checks the same mutants.
"""

import io
import random

import pytest

from bigsos.cli import run
from conftest import fixture_text
from test_cli_golden import TERMS

RUNS_PER_FIXTURE = 290
CAPS = ("--universe-count", "30", "--universe-size", "8", "--max-iters", "50")
TEXTS = {name: "\n".join(line for line in fixture_text(name).splitlines()
                         if not line.lstrip().startswith("#"))
         for name in sorted(TERMS)}
ALPHABET = sorted(set("".join(TEXTS.values())) | set("()[],->|/0123456789²"))


def mutate(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "insert", "replace"))
        if op == "insert":
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(ALPHABET))
        elif chars:
            i = rng.randrange(len(chars))
            if op == "delete":
                del chars[i]
            else:
                chars[i] = rng.choice(ALPHABET)
    return "".join(chars)


def commands(name: str, path: str) -> list:
    """One argv per subcommand, with the golden replay's terms for the fixture."""
    unfolds, pairs, seeds = TERMS[name]
    return [["check", path], ["model", path, *seeds], ["unfold", path, unfolds[0]],
            ["equiv", path, *pairs[0]], ["congruence", path, *seeds, "--samples", "5"],
            ["laws", path]]


@pytest.mark.parametrize("name", TEXTS)
def test_mutated_specs_never_crash_the_cli(tmp_path, name):
    rng = random.Random(f"fuzz-{name}")
    path = tmp_path / "mutant.sos"
    argvs = commands(name, str(path))
    codes = set()
    for i in range(RUNS_PER_FIXTURE):
        mutant = mutate(TEXTS[name], rng)
        path.write_text(mutant, encoding="utf-8")
        argv = argvs[i % len(argvs)] + list(CAPS)
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)
        message = err.getvalue()
        assert code != 5 and "internal error" not in message and "Traceback" not in message, (
            argv[0], mutant, code, message)
        codes.add(code)
    assert codes & {1, 2}  # the mutants reach the error paths
