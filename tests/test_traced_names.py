"""The names bench/spans.py traces must exist in the package.

The tracer patches each (module, function) of its FUNCTIONS list and each
of its KIND_METHODS in the behaviour-kind classes' own __dict__, so deleting
or inheriting one of them breaks a traced benchmark run.  The module is read
and executed here without being imported, so nothing is written under bench/.
"""

import importlib
import pathlib
import types

from bigsos import behaviour

SPANS = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    mod = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(mod))
    return mod


def test_traced_functions_exist():
    spans = load_spans()
    missing = [f"{mod}.{fn}" for mod, fn in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"bigsos.{mod}"), fn, None))]
    assert missing == []


def test_traced_kind_methods_are_defined_in_each_kind():
    spans = load_spans()
    assert set(spans.KIND_CLASSES) == {"PartialStream", "CountableLTS", "WeightedLTS"}
    missing = [f"{cls}.{meth}" for cls in spans.KIND_CLASSES
               for meth in spans.KIND_METHODS if meth not in vars(getattr(behaviour, cls))]
    assert missing == []
