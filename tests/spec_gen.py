"""Seeded random monotone LTS specs over a fixed three-term universe, and
ground-fact test specs.

Used by the least-fixed-point oracle: every generated spec keeps rule targets
inside the universe {c, d, u(c)}, so the full candidate-model space is the
8^3 assignments of successor sets and can be enumerated outright.

The fact-path tests use FACT_SHAPES, rules that parse_spec does and does not
read as plain facts, random_ground_lts_text, explicit LTS specs, and
fact_rules, which turns a spec's facts back into the rules they denote.
"""

import random

from bigsos.speclang import LabelLit, Rule, TemplateApp, parse_spec

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

# (rule line, its entry in Spec.facts, or None if it parses to a rule)
FACT_SHAPES = [
    ("rule r : |- c -a-> d", ("c", "a", "d")),
    ("rule r : |- c -b-> c", ("c", "b", "c")),
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


def fact_rules(spec) -> tuple:
    """The rule each fact (head, label, target) of spec denotes, the one the
    general parser makes of its line, named fact<i> for the i-th fact."""
    return tuple(Rule(f"fact{i}", head, (), (), (), LabelLit(label), TemplateApp(target))
                 for i, (head, label, target) in enumerate(spec.facts))


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


# --- random rule specs ----------------------------------------------------------------
#
# Rules over c/0, d/0, f/1, g/1[1] and h/2 with premise chains that bind and
# test label variables, negative premises, a head parameter, and label
# arithmetic in conclusion labels and operator parameters, under four kinds.
# Some of them are invalid (arithmetic or a parameter from a premise label
# over a finite alphabet); validate_spec sorts those out.

RULE_KINDS = ("lts labels a, b", "wts labels a, b", "stream labels a, b", "stream nat")
RULE_SEEDS = ("f(c)", "g[2](c)", "g[3](f(d))", "h(c, d)", "h(g[1](d), c)")


def _label(rng, labels, lits, depth=0) -> str:
    """A label expression over the label variables labels and literals lits."""
    if depth < 2 and rng.random() < 0.4:
        op = rng.choice((" + ", " * "))
        return _label(rng, labels, lits, depth + 1) + op + _label(rng, labels, lits, depth + 1)
    return rng.choice(labels) if labels and rng.random() < 0.7 else rng.choice(lits)


def _target(rng, terms, labels, depth=0) -> str:
    """A conclusion target over the term variables terms; parameters draw on
    labels and naturals."""
    shape = rng.randrange(5) if depth < 2 else rng.randrange(2)
    if shape == 0:
        return rng.choice(terms)
    if shape == 1:
        return rng.choice(("c", "d"))
    if shape == 2:
        return f"f({_target(rng, terms, labels, depth + 1)})"
    if shape == 3:
        param = _label(rng, labels, ["0", "1", "2"])
        return f"g[{param}]({_target(rng, terms, labels, depth + 1)})"
    return f"h({_target(rng, terms, labels, depth + 1)}, {_target(rng, terms, labels, depth + 1)})"


def _rule(rng, lits) -> str:
    head, terms, params = rng.choice((("f(x)", ["x"], []), ("g[p](x)", ["x"], ["p"]),
                                      ("h(x, y)", ["x", "y"], [])))
    labels = list(params)  # label variables bound so far
    premises = []
    for i in range(rng.randrange(3)):
        source = rng.choice(terms)
        if rng.random() < 0.25:
            premises.append(f"{source} -{rng.choice(lits)}-/->")
            continue
        label = rng.choice((rng.choice(lits), f"n{i}", *labels))
        if label == f"n{i}":
            labels.append(label)
        terms.append(f"z{i}")
        premises.append(f"{source} -{label}-> z{i}")
    # squaring p from the seed g[2](c) passes the bound on computed naturals;
    # a conclusion label p is a natural, outside a finite alphabet
    target = "g[p * p](x)" if params and rng.random() < 0.3 else _target(rng, terms, labels)
    return " ".join([", ".join(premises)] * bool(premises)
                    + ["|-", head, f"-{_label(rng, labels, lits)}->", target])


def random_rule_spec_text(rng: random.Random) -> str:
    """One random spec as source text; deterministic in the rng state."""
    kind = rng.choice(RULE_KINDS)
    lits = ["0", "1", "2"] if kind.endswith("nat") else ["a", "b"]
    lines = [f"behaviour {kind}", "ops c/0, d/0, f/1, g/1[1], h/2",
             f"rule c : |- c -{rng.choice(lits)}-> {rng.choice(('c', 'd', 'f(c)', 'g[1](d)'))}",
             f"rule d : |- d -{rng.choice(lits)}-> {rng.choice(('c', 'd', 'h(c, d)'))}"]
    lines += [f"rule r{i} : {_rule(rng, lits)}" for i in range(rng.randrange(1, 4))]
    return "\n".join(lines) + "\n"
