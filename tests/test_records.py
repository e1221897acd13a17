"""The record protocol of invforge's 21 frozen record types: construction
by position and by keyword with defaults, the ``repr`` text, equality over
the compared fields of one class only, the hash of the compared fields'
tuple, frozen assignment and deletion, each ``__post_init__`` refusal,
``copy_with`` and the signature ``inspect`` reads; and that importing
invforge generates no code and loads neither dataclasses nor inspect.
"""

import ast
import copy
import inspect
import pathlib
import pickle
import subprocess
import sys

import pytest

from invforge.exprlang import Bin, Call, Neg, Num, SourceSpan, Sym
from invforge.invcat import BasisFamily, EquationInfo, JetSpace, \
    TensorBuilder
import invforge
from invforge.jetspace import COMPLEX, REAL, JetCoordinateId, JetPoint, \
    Metric, Record
from invforge.liealg import AlgebraSpec, Geometry
from invforge.verify import CompletenessReport, CovarianceRecord, \
    CovarianceReport, InvarianceRecord, InvarianceReport, RankReport

_POINT_ARGS = (1, 1, REAL, (0.5,), (1.0,), ((2.0,),), (((3.0,),),))
_SPACE = JetSpace(2, 1)
_SPEC = AlgebraSpec("AE", 3)


def _marker():
    """A not-compared value: a function, compared and hashed by identity."""


# class: (positional arguments, the same instance by keyword with its
# defaults left out, its compared fields, its not-compared fields, a value
# for the first compared field that differs, and the recorded repr)
CASES = {
    Metric: (
        ("minkowski", 4), {"kind": "minkowski", "dim": 4},
        ("kind", "dim"), (), "euclidean",
        "Metric(kind='minkowski', dim=4)"),
    JetCoordinateId: (
        ("d2", 1, 0, 1), {"kind": "d2", "r": 1, "j": 1},
        ("kind", "r", "i", "j"), (), "d1",
        "JetCoordinateId(kind='d2', r=1, i=0, j=1)"),
    JetPoint: (
        _POINT_ARGS,
        dict(zip(("n_base", "n_fields", "field_kind", "x", "u", "du", "ddu"),
                 _POINT_ARGS)),
        ("n_base", "n_fields", "field_kind", "x", "u", "du", "ddu"), (), 1,
        "JetPoint(n_base=1, n_fields=1, field_kind=<FieldKind.REAL: 'real'>,"
        " x=(0.5,), u=(1.0,), du=((2.0,),), ddu=(((3.0,),),))"),
    AlgebraSpec: (
        ("AE", 3, 1, 1.0, 1.0, 1.0, REAL, "u", 0, 3, False, ()),
        {"name": "AE", "n": 3},
        ("name", "n", "m", "lam", "mu", "mass", "field_kind", "rep", "seed",
         "instances", "extended"), ("functions",), "AO",
        "AlgebraSpec(name='AE', n=3, m=1, lam=1.0, mu=1.0, mass=1.0, "
        "field_kind=<FieldKind.REAL: 'real'>, rep='u', seed=0, instances=3, "
        "extended=False, functions=())"),
    Geometry: (
        (("t",), "euclidean", REAL),
        {"leading": ("t",), "metric_kind": "euclidean", "field_kind": REAL},
        ("leading", "metric_kind", "field_kind"), (), ("x0",),
        "Geometry(leading=('t',), metric_kind='euclidean', "
        "field_kind=<FieldKind.REAL: 'real'>)"),
    JetSpace: (
        (3, 2, REAL, None, False), {"n_base": 3, "n_fields": 2},
        ("n_base", "n_fields", "field_kind", "metric", "positive_fields"),
        (), 4,
        "JetSpace(n_base=3, n_fields=2, field_kind=<FieldKind.REAL: 'real'>,"
        " metric=None, positive_fields=False)"),
    TensorBuilder: (
        ("w", "matrix", 2, _SPACE, ("u1_0",), ("w", None)),
        {"label": "w", "kind": "matrix", "size": 2, "space": _SPACE,
         "deps": ("u1_0",), "source": ("w", None)},
        ("label", "kind", "size", "space", "deps"), ("source",), "theta",
        "TensorBuilder(label='w', kind='matrix', size=2, space=JetSpace("
        "n_base=2, n_fields=1, field_kind=<FieldKind.REAL: 'real'>, "
        "metric=None, positive_fields=False), deps=('u1_0',), "
        "source=('w', None))"),
    BasisFamily: (
        ("F", _SPEC, ("a",), 1, _SPACE, (), ""),
        {"label": "F", "algebra": _SPEC, "members": ("a",),
         "expected_count": 1, "space": _SPACE, "deps": ()},
        ("label", "algebra", "members", "expected_count", "space", "deps",
         "notes"), (), "G",
        "BasisFamily(label='F', algebra=AlgebraSpec(name='AE', n=3, m=1, "
        "lam=1.0, mu=1.0, mass=1.0, field_kind=<FieldKind.REAL: 'real'>, "
        "rep='u', seed=0, instances=3, extended=False, functions=()), "
        "members=('a',), expected_count=1, space=JetSpace(n_base=2, "
        "n_fields=1, field_kind=<FieldKind.REAL: 'real'>, metric=None, "
        "positive_fields=False), deps=(), notes='')"),
    EquationInfo: (
        ("heat", None, "AG2_I", {"rep": "u"}, ("mu",), None, "note"),
        {"name": "heat", "residual": None, "algebra": "AG2_I",
         "spec": {"rep": "u"}, "reads": ("mu",), "solve_for": None,
         "note": "note"},
        ("name", "algebra", "spec", "reads", "solve_for", "note"),
        ("residual",), "eikonal",
        "EquationInfo(name='heat', residual=None, algebra='AG2_I', "
        "spec={'rep': 'u'}, reads=('mu',), solve_for=None, note='note')"),
    SourceSpan: (
        (1, 4), {"start": 1, "end": 4}, ("start", "end"), (), 0,
        "SourceSpan(start=1, end=4)"),
    Num: ((1.5,), {"value": 1.5}, ("value",), (), 2.5, "Num(value=1.5)"),
    Sym: (("u",), {"name": "u"}, ("name",), (), "v", "Sym(name='u')"),
    Neg: ((Num(1.0),), {"arg": Num(1.0)}, ("arg",), (), Num(2.0),
          "Neg(arg=Num(value=1.0))"),
    Bin: (
        ("+", Num(1.0), Sym("u")),
        {"op": "+", "left": Num(1.0), "right": Sym("u")},
        ("op", "left", "right"), (), "-",
        "Bin(op='+', left=Num(value=1.0), right=Sym(name='u'))"),
    Call: (
        ("S", (Num(2.0),), ()), {"name": "S", "args": (Num(2.0),)},
        ("name", "args", "fields"), (), "R",
        "Call(name='S', args=(Num(value=2.0),), fields=())"),
    InvarianceRecord: (
        ("X1", "S1", 1e-12, 2.0, "PASS"),
        {"operator": "X1", "invariant": "S1", "max_residual": 1e-12,
         "scale": 2.0, "verdict": "PASS"},
        ("operator", "invariant", "max_residual", "scale", "verdict"), (),
        "X2",
        "InvarianceRecord(operator='X1', invariant='S1', max_residual=1e-12,"
        " scale=2.0, verdict='PASS')"),
    InvarianceReport: (
        ("F", (), 4, 0, 1e-08),
        {"label": "F", "records": (), "n_samples": 4, "seed": 0,
         "tol": 1e-08},
        ("label", "records", "n_samples", "seed", "tol"), (), "G",
        "InvarianceReport(label='F', records=(), n_samples=4, seed=0, "
        "tol=1e-08)"),
    RankReport: (
        ("AE", 3, 9, (0, 1), 2, 2, "PASS"),
        {"label": "AE", "n_rows": 3, "n_cols": 9, "pivots": (0, 1),
         "rank": 2, "expected": 2, "verdict": "PASS"},
        ("label", "n_rows", "n_cols", "pivots", "rank", "expected",
         "verdict"), (), "AO",
        "RankReport(label='AE', n_rows=3, n_cols=9, pivots=(0, 1), rank=2, "
        "expected=2, verdict='PASS')"),
    CompletenessReport: (
        ("AE", 13, 6, 7, 7, 7, "PASS", "PASS"),
        {"label": "AE", "n_jet_vars": 13, "algebra_rank": 6, "expected": 7,
         "family_size": 7, "independence_rank": 7,
         "invariance_verdict": "PASS", "verdict": "PASS"},
        ("label", "n_jet_vars", "algebra_rank", "expected", "family_size",
         "independence_rank", "invariance_verdict", "verdict"), (), "AO",
        "CompletenessReport(label='AE', n_jet_vars=13, algebra_rank=6, "
        "expected=7, family_size=7, independence_rank=7, "
        "invariance_verdict='PASS', verdict='PASS')"),
    CovarianceRecord: (
        ("X1", 0.0, 1.0, "PASS", ()),
        {"operator": "X1", "residual": 0.0, "scale": 1.0, "verdict": "PASS"},
        ("operator", "residual", "scale", "verdict"), ("fit",), "X2",
        "CovarianceRecord(operator='X1', residual=0.0, scale=1.0, "
        "verdict='PASS', fit=())"),
    CovarianceReport: (
        ("w", (), 4, 0, 1e-08),
        {"label": "w", "records": (), "n_samples": 4, "seed": 0,
         "tol": 1e-08},
        ("label", "records", "n_samples", "seed", "tol"), (), "theta",
        "CovarianceReport(label='w', records=(), n_samples=4, seed=0, "
        "tol=1e-08)"),
}
RECORDS = list(CASES)


def _compared(obj, names):
    return tuple(getattr(obj, name) for name in names)


def test_every_record_type_is_covered():
    assert len(CASES) == 21


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_is_the_recorded_text(cls):
    args, kwargs, *_, text = CASES[cls]
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_position_keyword_and_defaults_build_equal_records(cls):
    args, kwargs, compared, ignored, *_ = CASES[cls]
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    for name in compared + ignored:
        assert getattr(by_position, name) == getattr(by_keyword, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_changed_compared_field_makes_records_unequal(cls):
    args, _, _, _, other, _ = CASES[cls]
    changed = list(args)
    changed[0] = other
    if cls is JetPoint:  # a point of two base coordinates
        changed = [2, 1, REAL, (0.5, 0.5), (1.0,), ((2.0, 2.0),),
                   (((3.0, 0.0), (0.0, 3.0)),)]
    a, b = cls(*args), cls(*changed)
    assert a != b
    assert not a == b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_another_class_with_the_same_values_is_unequal(cls):
    args, _, compared, *_ = CASES[cls]
    record = cls(*args)
    other = type("Other", (cls,), {})(*args)
    assert record != other and other != record
    assert not record == other
    assert record != _compared(record, compared)
    assert record != tuple(args)
    assert record.__eq__(tuple(args)) is NotImplemented


@pytest.mark.parametrize("cls", [c for c in RECORDS if CASES[c][3]],
                         ids=lambda c: c.__name__)
def test_a_changed_not_compared_field_leaves_records_equal(cls):
    args, _, _, (name,), *_ = CASES[cls]
    # each not-compared field is the last but EquationInfo's residual
    position = 1 if cls is EquationInfo else len(args) - 1
    changed = list(args)
    changed[position] = _marker
    a, b = cls(*args), cls(*changed)
    assert getattr(b, name) is _marker
    assert a == b
    if cls is not EquationInfo:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_compared_fields(cls):
    args, _, compared, *_ = CASES[cls]
    record = cls(*args)
    values = _compared(record, compared)
    if cls is EquationInfo:  # its spec is a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(values)
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(values)
        assert hash(record) == hash(cls(*args))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    args, _, compared, *_ = CASES[cls]
    record = cls(*args)
    for name in (compared[0], "unknown_attribute"):
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert getattr(record, compared[0]) == args[0]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_refuses_what_its_signature_refuses(cls):
    args, kwargs, compared, *_ = CASES[cls]
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, unknown_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{compared[0]: args[0]})


@pytest.mark.parametrize("build, message", [
    (lambda: Metric("spherical", 3), "unknown metric kind 'spherical'"),
    (lambda: Metric("euclidean", 0), "metric dimension must be positive"),
    (lambda: JetPoint(2, 1, REAL, (0.5,), (1.0,), ((2.0, 2.0),),
                      (((3.0, 0.0), (0.0, 3.0)),)),
     "inconsistent base/field array sizes"),
    (lambda: JetPoint(1, 1, REAL, (0.5,), (1.0,), ((2.0, 2.0),),
                      (((3.0,),),)),
     "inconsistent first-derivative array sizes"),
    (lambda: JetPoint(1, 1, REAL, (0.5,), (1.0,), ((2.0,),),
                      (((3.0, 1.0),),)),
     "inconsistent second-derivative array sizes"),
    (lambda: JetPoint(2, 1, REAL, (0.5, 0.5), (1.0,), ((2.0, 2.0),),
                      (((3.0, 1.0), (0.0, 3.0)),)),
     "second derivatives must be symmetric"),
    (lambda: JetPoint(2, 1, REAL, (0.5, 0.5), (1.0,), ((2.0, 2.0),),
                      (((3.0, 0.0), (-0.0, 3.0)),)),
     "second derivatives must be symmetric"),
    (lambda: AlgebraSpec("XX", 3), "unknown algebra family 'XX'"),
    (lambda: AlgebraSpec("AE", 3, m=0), "m must be at least 1"),
    (lambda: AlgebraSpec("AE", 2), "AE requires n >= 3"),
    (lambda: AlgebraSpec("AP_inf", 1), "AP_inf requires n >= 2"),
    (lambda: AlgebraSpec("AG2_I", 3, lam=1.0),
     r"AG2_I fixes lambda = -n/2 = -1\.5"),
    (lambda: AlgebraSpec("AG_II", 3, m=2),
     r"AG_II acts on a complex field pair"),
    (lambda: AlgebraSpec("AG_II", 3, field_kind=COMPLEX),
     r"AG_II uses the slot pair \(phi, phi\*\)"),
    (lambda: AlgebraSpec("AE", 3, rep="exp"), "rep must be 'u' or 'log'"),
    (lambda: AlgebraSpec("AE", 3, lam=float("nan")),
     "lam, mu and mass must be finite"),
    (lambda: BasisFamily("F", _SPEC, ("a", "b"), 1, _SPACE, ()),
     "F: 2 members but expected 1"),
])
def test_post_init_refusals_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copy_with_changes_the_named_fields_only(cls):
    args, _, compared, ignored, other, _ = CASES[cls]
    record = cls(*args)
    same = record.copy_with()
    assert same == record and same is not record
    assert repr(same) == repr(record)
    for name in compared + ignored:
        assert getattr(same, name) is getattr(record, name)
    if cls is not JetPoint:
        changed = record.copy_with(**{compared[0]: other})
        assert getattr(changed, compared[0]) == other
        assert changed == cls(other, *args[1:])
        for name in compared[1:] + ignored:
            assert getattr(changed, name) is getattr(record, name)
    with pytest.raises(TypeError, match="unknown_field"):
        record.copy_with(unknown_field=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal_records(cls):
    record = cls(*CASES[cls][0])
    for made in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(made) is cls
        assert made == record and repr(made) == repr(record)


def test_copy_with_checks_the_new_record():
    point = JetPoint(*_POINT_ARGS)
    with pytest.raises(ValueError,
                       match="^inconsistent base/field array sizes$"):
        point.copy_with(x=(0.5, 0.5))
    spec = AlgebraSpec("AE", 3)
    with pytest.raises(ValueError, match="^AE requires n >= 3$"):
        spec.copy_with(n=2)


def test_jet_point_replace_is_copy_with_of_one_entry():
    point = JetPoint(*_POINT_ARGS)
    assert point.replace(JetCoordinateId("d1", 1, 0), 5.0) == \
        point.copy_with(du=((5.0,),))


def test_a_subclass_keeps_the_fields_and_the_defaults():
    class Tagged(JetCoordinateId):
        pass

    tagged = Tagged("base", i=2)
    assert repr(tagged) == \
        f"{Tagged.__qualname__}(kind='base', r=0, i=2, j=0)"
    assert hash(tagged) == hash(("base", 0, 2, 0))
    assert tagged != JetCoordinateId("base", i=2)


def test_importing_invforge_leaves_dataclasses_out():
    code = ("import sys, invforge, invforge.cli; "
            "print('dataclasses' in sys.modules)")
    src = str(pathlib.Path(invforge.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=src)
    assert done.stdout.split() == ["False"]


def test_importing_invforge_loads_no_inspect():
    """Only a read of a record's signature imports inspect; some Pythons
    load it at start-up, and then there is nothing to check."""
    code = ("import sys; before = 'inspect' in sys.modules; "
            "import invforge, invforge.cli; "
            "print(before, 'inspect' in sys.modules)")
    src = str(pathlib.Path(invforge.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=src)
    before, after = done.stdout.split()
    assert after == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_signature_is_the_fields_with_their_defaults(cls):
    args, kwargs, *_ = CASES[cls]
    sig = inspect.signature(cls)
    assert tuple(sig.parameters) == cls._fields
    assert {p.kind for p in sig.parameters.values()} == \
        {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    bound = sig.bind(**kwargs)
    bound.apply_defaults()
    assert bound.args == tuple(args)
    assert sig.bind(*args).arguments == bound.arguments
    with pytest.raises(TypeError):
        sig.bind()


def test_signature_text():
    assert str(inspect.signature(JetCoordinateId)) == "(kind, r=0, i=0, j=0)"
    assert str(inspect.signature(AlgebraSpec)) == (
        "(name, n, m=1, lam=1.0, mu=1.0, mass=1.0, "
        "field_kind=<FieldKind.REAL: 'real'>, rep='u', seed=0, instances=3, "
        "extended=False, functions=())")

    class Tagged(JetCoordinateId):
        label: str = ""

    assert str(inspect.signature(Tagged)) == \
        "(kind, r=0, i=0, j=0, label='')"


def test_no_module_imports_dataclasses_or_runs_generated_code():
    """No import of dataclasses and no call of the builtins exec, eval or
    compile anywhere in the package."""
    found = []
    for path in pathlib.Path(invforge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name):
                names = [node.func.id]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name in ("dataclasses", "exec", "eval", "compile")]
    assert found == []


def test_every_record_type_is_a_record():
    assert all(issubclass(cls, Record) for cls in RECORDS)


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if "__slots__" not in vars(c)],
                         ids=lambda c: c.__name__)
def test_an_instance_dict_holds_exactly_the_fields(cls):
    args, _, compared, ignored, *_ = CASES[cls]
    record = cls(*args)
    assert vars(record) == {name: getattr(record, name)
                            for name in cls._fields}
    assert sorted(vars(record)) == sorted(compared + ignored)


@pytest.mark.parametrize("cls", (Num, Sym, Neg, Bin, Call),
                         ids=lambda c: c.__name__)
def test_syntax_nodes_keep_their_slots(cls):
    args, _, compared, *_ = CASES[cls]
    assert cls.__slots__ == compared
    assert not hasattr(cls(*args), "__dict__")
