"""The immutable records (terms.Record): equality within one class, the hash
of the fields' tuple, the repr in a frozen dataclass's format, no assignment
or deletion, copying and pickling; and the cold import of the command line,
which loads neither dataclasses nor inspect."""

import copy
import pathlib
import pickle
import subprocess
import sys

import pytest

import bigsos
from bigsos.behaviour import (BOTTOM, Bottom, CountableLTS, LtsValue, PartialStream, Relation,
                              StreamStep, WeightedLTS, WtsValue)
from bigsos.engine import ConvergenceReport, GenCoalgebra, Model
from bigsos.relations import CongruenceReport, CongruenceViolation, EquivResult, LawResult
from bigsos.speclang import (Diagnostic, LabelAdd, LabelLit, LabelMul, LabelVar,
                             MonotoneReport, Negative, Positive, Rule, TemplateApp)
from bigsos.terms import App, Operator, Record, UniversePolicy, Var

A = frozenset({"a"})
N, ONE = LabelVar("n"), LabelLit(1)
MOVES = (("a", "p", 1),)
C, D = App("c"), App("d")

# Each record class with every field given, in field order, and its repr as
# a frozen dataclass printed it.  Twins of different classes share fields.
RECORDS = [
    (Operator, ("f", 1, 0), "Operator(name='f', arity=1, param_count=0)"),
    (UniversePolicy, (500, 12), "UniversePolicy(max_count=500, max_size=12)"),
    (Bottom, (), "BOTTOM"),
    (StreamStep, (1, "p"), "StreamStep(label=1, state='p')"),
    (LtsValue, (MOVES,), "LtsValue(moves=(('a', 'p', 1),))"),
    (WtsValue, (MOVES,), "WtsValue(moves=(('a', 'p', 1),))"),
    (Relation, (("p",), ("q",), (1,)), "Relation(left=('p',), right=('q',), rows=(1,))"),
    (PartialStream, (A,), "PartialStream(labels=frozenset({'a'}))"),
    (CountableLTS, (A,), "CountableLTS(labels=frozenset({'a'}))"),
    (WeightedLTS, (A,), "WeightedLTS(labels=frozenset({'a'}))"),
    (Model, (CountableLTS(A), (C,), {C: LtsValue((("a", D, 1),))}, frozenset({D}),
             frozenset({C})),
     "Model(kind=CountableLTS(labels=frozenset({'a'})), universe=(App('c'),), "
     "behaviour={App('c'): LtsValue(moves=(('a', App('d'), 1),))}, "
     "frontier=frozenset({App('d')}), tainted=frozenset({App('c')}))"),
    (ConvergenceReport, (2, True, False, 1),
     "ConvergenceReport(iterations=2, converged=True, oscillation_detected=False, "
     "frontier_size=1)"),
    (GenCoalgebra, (("x",), {"x": LtsValue((("a", "x", 1),))}),
     "GenCoalgebra(states=('x',), dynamics={'x': LtsValue(moves=(('a', 'x', 1),))})"),
    (EquivResult, (False, 2), "EquivResult(related=False, witness=2)"),
    (CongruenceViolation, ("f", (1,), C, D, None),
     "CongruenceViolation(op='f', params=(1,), left=App('c'), right=App('d'), depth=None)"),
    (CongruenceReport, (4, 3, 1, ()),
     "CongruenceReport(samples=4, checked=3, skipped=1, violations=())"),
    (LawResult, ("T1", "pass", None), "LawResult(law='T1', status='pass', witness=None)"),
    (LabelLit, ("a",), "LabelLit(value='a')"),
    (LabelVar, ("a",), "LabelVar(name='a')"),
    (LabelAdd, (N, ONE), "LabelAdd(left=LabelVar(name='n'), right=LabelLit(value=1))"),
    (LabelMul, (N, ONE), "LabelMul(left=LabelVar(name='n'), right=LabelLit(value=1))"),
    (TemplateApp, ("f", (N,), (Var("x"),)),
     "TemplateApp(op='f', params=(LabelVar(name='n'),), args=(Var('x'),))"),
    (Positive, ("x", N, "y"), "Positive(source='x', label=LabelVar(name='n'), target='y')"),
    (Negative, ("x", ONE), "Negative(source='x', label=LabelLit(value=1))"),
    (Rule, ("r", "f", ("n",), ("x",), (Positive("x", N, "y"),), LabelAdd(N, ONE), Var("y")),
     "Rule(name='r', head_op='f', head_params=('n',), head_vars=('x',), "
     "premises=(Positive(source='x', label=LabelVar(name='n'), target='y'),), "
     "concl_label=LabelAdd(left=LabelVar(name='n'), right=LabelLit(value=1)), "
     "concl_target=Var('y'))"),
    (Diagnostic, ("r", "m"), "Diagnostic(rule='r', message='m')"),
    (MonotoneReport, (False, ("r",)), "MonotoneReport(monotone=False, offending_rules=('r',))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def all_subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in {direct} | all_subclasses(direct)}


def test_every_record_class_is_covered():
    assert {cls for cls, _, _ in RECORDS} == {cls for cls in all_subclasses(Record)
                                             if cls.__module__.startswith("bigsos.")}


@pytest.mark.parametrize("cls, fields, shown", RECORDS, ids=IDS)
def test_records_behave_as_frozen_dataclasses(cls, fields, shown):
    r = cls(*fields)
    assert tuple(getattr(r, name) for name in cls._fields) == fields
    assert repr(r) == shown
    twin = cls(*fields)
    assert r == twin and not r != twin and r is not twin
    try:
        want = hash(fields)
    except TypeError:  # a field is a dict: unhashable, as with dataclasses
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(twin) == want
    # equal only within one class, even to a record of the same fields
    for other_cls, other_fields, _ in RECORDS:
        if other_cls is not cls:
            other = other_cls(*other_fields)
            assert r != other and not r == other
    assert r != fields and r != object()
    for name in (*cls._fields, "fresh"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert tuple(getattr(r, name) for name in cls._fields) == fields
    for back in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(back) is cls and repr(back) == shown


def test_record_constructors_take_keywords_and_defaults():
    assert UniversePolicy() == UniversePolicy(500, 12) == UniversePolicy(max_size=12)
    assert Operator("f", 1) == Operator(name="f", arity=1, param_count=0)
    assert EquivResult(True) == EquivResult(related=True, witness=None)
    assert TemplateApp("c") == TemplateApp("c", (), ()) and PartialStream().labels is None
    assert Model(PartialStream(), (), {}).frontier == frozenset()
    assert Bottom() == BOTTOM and hash(BOTTOM) == hash(())
    for bad in (lambda: UniversePolicy(1, 2, 3), lambda: UniversePolicy(1, max_count=2),
                lambda: LawResult("T1"), lambda: Diagnostic("r", "m", extra=1)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError, match="relation pair"):
        Relation.from_pairs(("p",), ("q",), frozenset({("q", "p")}))
    for rows in ((), (1, 0), (2,), (-1,)):
        with pytest.raises(ValueError, match="relation rows"):
            Relation(("p",), ("q",), rows)
    with pytest.raises(ValueError, match="finite label alphabet"):
        CountableLTS(None)


def test_model_keeps_its_cached_properties():
    model = Model(CountableLTS(A), (C,), {C: LtsValue((("a", D, 1),))}, frozenset({D}))
    assert model.carrier() == (C, D) and model.index == {C: 0, D: 1}
    assert model.index is model.index


def test_stream_step_move_is_no_field():
    step = StreamStep(1, "p")
    assert StreamStep._fields == ("label", "state") and step.moves == ((1, "p", 1),)
    with pytest.raises(AttributeError):
        setattr(step, "moves", ())


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(bigsos.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import bigsos.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout == "[]\n"
