import pathlib
from dataclasses import dataclass

import pytest
from hypothesis import settings

from bigsos.behaviour import state_key
from bigsos.errors import LabelEvalError, UnboundVariableError
from bigsos.speclang import LabelAdd, LabelLit, LabelVar, parse_spec
from bigsos.terms import App, Var

# Exhaustive oracles in some properties are slow on CI boxes; no deadline.
settings.register_profile("bigsos", deadline=None, max_examples=60)
settings.load_profile("bigsos")

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.sos").read_text(encoding="utf-8")


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.sos")


@pytest.fixture
def load_spec():
    def load(name: str):
        return parse_spec(fixture_text(name))
    return load


# --- reference evaluators ---------------------------------------------------------------
#
# Label expressions and conclusion targets interpreted by walking them, the
# definition the engine's compiled conclusions are checked against.


def eval_label(e, env):
    if isinstance(e, LabelLit):
        return e.value
    if isinstance(e, LabelVar):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(f"no binding for label variable {e.name!r}") from None
    left = eval_label(e.left, env)
    right = eval_label(e.right, env)
    if not isinstance(left, int) or not isinstance(right, int):
        raise LabelEvalError("label arithmetic over non-natural labels")
    return left + right if isinstance(e, LabelAdd) else left * right


def instantiate_template(tt, env):
    """Evaluate the parameter expressions of a target; variables are left in place."""
    if isinstance(tt, Var):
        return tt
    params = []
    for e in tt.params:
        v = eval_label(e, env)
        if not isinstance(v, int) or v < 0:
            raise LabelEvalError(f"operator parameter evaluated to {v!r}, expected a natural")
        params.append(v)
    return App(tt.op, tuple(params), tuple(instantiate_template(a, env) for a in tt.args))



# --- unfolding trees ----------------------------------------------------------------
#
# An unfolding as a tree of nested values, built by mapping each step's states
# to their subtrees: the shape engine.unfold had before it returned rows.  The
# renderer and depth-similarity oracles read it.


@dataclass(frozen=True)
class UnfoldTree:
    """depth is the remaining budget (0: no step recorded); opaque marks a
    frontier or tainted root."""

    root: object
    depth: int
    step: object = None
    opaque: bool = False

    def sort_key(self):
        # sibling trees have distinct roots, so they keep the model's order
        return ("tree", state_key(self.root))


def unfold_tree(model, t, depth):
    value = model.step(t)
    opaque = t in model.frontier or t in model.tainted
    if depth == 0:
        return UnfoldTree(t, 0, None, opaque)
    step = model.kind.map_states(lambda s: unfold_tree(model, s, depth - 1), value)
    return UnfoldTree(t, depth, step, opaque)

# --- acceptance reporting ------------------------------------------------------------
#
# test_acceptance.py marks each test with @pytest.mark.criterion(n, "name"); the
# terminal summary prints one pass/fail line per criterion.

_acceptance_results = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, name): acceptance criterion identity")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, name = marker.args
    if rep.when == "call":
        _acceptance_results[num] = (name, rep.passed, rep.duration)
    elif rep.when == "setup" and not rep.passed:
        _acceptance_results[num] = (name, False, rep.duration)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        name, passed, duration = _acceptance_results[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {num} ({name}): {verdict}  [{duration:.2f}s]")
