"""Seeded random monotone LTS specs over a fixed three-term universe, and
ground-fact test specs.

Used by the least-fixed-point oracle: every generated spec keeps rule targets
inside the universe {c, d, u(c)}, so the full candidate-model space is the
8^3 assignments of successor sets and can be enumerated outright.

The fact-path tests use FACT_SHAPES, rules that speclang.ground_fact does and
does not take, and random_ground_lts_text, explicit LTS specs.
"""

import random

from bigsos.speclang import parse_spec

UNIVERSE_TEXTS = ("c", "d", "u(c)")
LITERALS = ("c", "d", "u(c)")


def _axiom(rng, op_head):
    return f"|- {op_head} -a-> {rng.choice(LITERALS)}"


def _u_rule(rng):
    shape = rng.randrange(3)
    if shape == 0:
        return _axiom(rng, "u(x)")
    if shape == 1:
        target = rng.choice(("x", "y") + LITERALS)
        return f"x -a-> y |- u(x) -a-> {target}"
    target = rng.choice(("x", "y", "z") + LITERALS)
    return f"x -a-> y, y -a-> z |- u(x) -a-> {target}"


def random_monotone_lts_text(rng: random.Random) -> str:
    """One random spec as source text; deterministic in the rng state."""
    lines = ["behaviour lts labels a", "ops c/0, d/0, u/1"]
    n = 0
    for head in ("c", "d"):
        for _ in range(rng.randrange(3)):
            lines.append(f"rule r{n}: {_axiom(rng, head)}")
            n += 1
    for _ in range(rng.randrange(1, 3)):
        lines.append(f"rule r{n}: {_u_rule(rng)}")
        n += 1
    return "\n".join(lines) + "\n"


def random_monotone_lts_spec(rng: random.Random):
    return parse_spec(random_monotone_lts_text(rng))


# --- ground facts -------------------------------------------------------------------

FACT_HEADER = "behaviour lts labels a, b\nops c/0, d/0, f/1, p/0[1]\n"

# (rule line, what ground_fact returns for it)
FACT_SHAPES = [
    ("rule r : |- c -a-> d", ("a", "d")),
    ("rule r : |- c -b-> c", ("b", "c")),
    ("rule r : |- c -z-> d", None),             # label outside the alphabet
    ("rule r : |- c -1-> d", None),
    ("rule r : |- f -a-> d", None),             # head takes an argument
    ("rule r : |- p -a-> d", None),             # head takes a parameter
    ("rule r : |- c -a-> f", None),             # target takes an argument
    ("rule r : |- c -a-> p", None),             # target takes a parameter
    ("rule r : |- zz -a-> d", None),            # unknown head
    ("rule r : |- c -a-> zz", None),            # unknown target: a variable
    ("rule r : |- c -a-> f(d)", None),          # closed compound target
    ("rule r : |- c -a-> c(d)", None),          # c(d) must not take c's facts
    ("rule r : |- c -a-> p[1]", None),
    ("rule r : |- c -a-> d[1]", None),
    ("rule r : |- f(x) -a-> d", None),
    ("rule r : |- p[n] -a-> d", None),
    ("rule r : c -a-> d |- c -a-> d", None),
    ("rule r : c -a-/-> |- c -a-> d", None),
]


def random_ground_lts_text(rng: random.Random) -> str:
    """An explicit LTS spec: ground axioms over constants, a few of them with
    closed compound targets f(sI) and a rule for f."""
    n = rng.randrange(2, 12)
    lines = ["behaviour lts labels a, b",
             "ops " + ", ".join(f"s{i}/0" for i in range(n)) + ", f/1",
             "rule f : x -a-> y |- f(x) -b-> y"]
    for i in range(rng.randrange(1, 4 * n)):
        target = f"s{rng.randrange(n)}"
        if rng.random() < 0.1:
            target = f"f({target})"
        lines.append(f"rule r{i} : |- s{rng.randrange(n)} -{rng.choice('ab')}-> {target}")
    return "\n".join(lines) + "\n"
