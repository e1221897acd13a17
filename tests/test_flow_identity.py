"""Flow-table identity guard for the second prolongation of every algebra.

For every generator of every algebra over a grid of configurations this
pins a sha256 of the ``repr`` of its flow table and of its coefficient
table at four sampled points.  A rewrite of how the prolongation is
computed (the Hessian pass, the total-derivative expansion) must leave
every entry byte-identical.  Running this file records the entries that
are missing and leaves the others alone:

    PYTHONPATH=src python tests/test_flow_identity.py

The same grid also checks every coefficient's partials and every flow
table against the bitwise references in ``references.py``: the nested-dual
Hessian pass and the total-derivative loops run for every coefficient.
A table at positions ``at`` builds only the blocks they read; it must equal
the whole table there, and three checks' counts of that work are pinned.
"""

import hashlib
import json
import math
import os

import pytest

from invforge import liealg
from invforge.dual import EvaluationError, seed_jets, value_grad_hess
from invforge.exprlang import BindError, bind_coefficient, \
    bind_scalar_function
from invforge.invcat import EQUATIONS, basis, equation_function
from invforge.jetspace import COMPLEX, base_coord, d1_coord, d2_coord, \
    field_coord
from invforge.liealg import _FAMILIES, VectorField, catalog, \
    flow_positions, generator_rows, make_sampler, make_spec, prolong2
from invforge.verify import check_absolute, check_on_manifold
from references import nested_value_grad_hess, reference_flow

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "flow_identity.json")
POINTS = 4
NS = (3, 4)
LAMS = (1.0, 0.6, 0.0)
MS = (1, 2)
GALILEI = ("AG_I", "AG1_I", "AG2_I", "AG_II", "AG1_II", "AG2_II")
# the eikonal algebra's coefficient functions given as text, and whether
# they need positive field values
FUNCTION_SETS = (
    ((("eta", "u^2"), ("a0", "1+u")), False),
    ((("eta", "exp(u)/(2+u)"), ("b01", "u^0.5 - 3/u")), True),
)


def _bound(functions):
    return tuple((name, bind_scalar_function(text))
                 for name, text in functions)


def _configs():
    """(key, spec builder, positive fields) for every configuration."""
    out = []

    def add(key, build, positive=False):
        out.append((key, build, positive))

    for n in NS:
        for name in _FAMILIES:
            if name in ("AO", "AE", "AP"):
                for m in MS:
                    add(f"{name} n={n} m={m}",
                        lambda name=name, n=n, m=m: make_spec(name, n, m=m))
            elif name in ("AE1", "AC"):
                for m in MS:
                    for lam in LAMS:
                        add(f"{name} n={n} m={m} lam={lam:g}",
                            lambda name=name, n=n, m=m, lam=lam:
                            make_spec(name, n, m=m, lam=lam))
            elif name in ("APtilde", "AC1n"):
                for lam in LAMS:
                    add(f"{name} n={n} lam={lam:g}",
                        lambda name=name, n=n, lam=lam:
                        make_spec(name, n, lam=lam))
            elif name in GALILEI:
                for rep in ("u", "log"):
                    add(f"{name} n={n} rep={rep}",
                        lambda name=name, n=n, rep=rep:
                        make_spec(name, n, rep=rep))
            elif name == "AP_inf":
                add(f"AP_inf n={n}", lambda n=n: make_spec("AP_inf", n))
                add(f"AP_inf n={n} extended",
                    lambda n=n: make_spec("AP_inf", n, extended=True))
                for funcs, positive in FUNCTION_SETS:
                    text = ", ".join(f"{k}={v}" for k, v in funcs)
                    add(f"AP_inf n={n} functions {text}",
                        lambda n=n, funcs=funcs:
                        make_spec("AP_inf", n, functions=_bound(funcs)),
                        positive)
            else:
                add(f"{name} n={n}", lambda name=name, n=n:
                    make_spec(name, n))
        # the massless projective generators, where lam is free
        for rep in ("u", "log"):
            add(f"AG2_I n={n} mu=0 rep={rep}",
                lambda n=n, rep=rep: make_spec("AG2_I", n, mu=0.0, rep=rep))
            add(f"AG2_II n={n} mass=0 rep={rep}",
                lambda n=n, rep=rep: make_spec("AG2_II", n, mass=0.0,
                                               rep=rep))
    return out


CONFIGS = _configs()


def sample_points(spec, positive):
    sampler = make_sampler(spec.n_base, spec.n_fields, spec.field_kind,
                           seed=0, positive_fields=positive)
    return [sampler(idx) for idx in range(POINTS)]


def _digest(table_of, points):
    h = hashlib.sha256()
    for point in points:
        try:
            h.update(repr(table_of(point)).encode())
        except (EvaluationError, ArithmeticError) as exc:
            h.update(f"error {exc!r}".encode())
    return h.hexdigest()


def describe(spec, positive):
    """Per generator: its label and the hashes of its flow and coefficient
    tables over the sampled points."""
    points = sample_points(spec, positive)
    out = []
    for field in catalog(spec):
        op = prolong2(field)
        out.append([op.label, _digest(op.flow_table, points),
                    _digest(op.coefficient_table, points)])
    return out


@pytest.fixture(scope="module")
def fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_grid_size():
    assert len(CONFIGS) == 90


@pytest.mark.parametrize("key,build,positive", CONFIGS,
                         ids=[k for k, _, _ in CONFIGS])
def test_flow_tables_are_identical(key, build, positive, fixture):
    assert describe(build(), positive) == fixture[key]


def _partials(field, point):
    """Each coefficient's (value, gradient, Hessian) at a point, as
    ``_flow`` requests them, from the jet pass and the nested pass."""
    n = field.n_base
    args = list(point.x) + list(point.u)
    for fn in field.xi + field.eta:
        def wrapped(a, fn=fn):
            return fn(a[:n], a[n:])
        yield value_grad_hess(wrapped, args), \
            nested_value_grad_hess(wrapped, args)


@pytest.mark.parametrize("key,build,positive", CONFIGS,
                         ids=[k for k, _, _ in CONFIGS])
def test_flow_tables_match_the_references(key, build, positive):
    spec = build()
    for point in sample_points(spec, positive):
        for field in catalog(spec):
            for got, want in _partials(field, point):
                assert repr(got) == repr(want)
            op = prolong2(field)
            assert repr(op.flow_table(point)) == \
                repr(reference_flow(op, point))


def _with(point, changes):
    for cid, value in changes:
        point = point.replace(cid, value)
    return point


# unusual jet points: the total-derivative loops give nan (a derivative
# that is not finite, or a product of two first derivatives that
# overflows) or a zero whose type varies with (i, j)
_UNUSUAL = (
    [(d1_coord(1, 1), float("inf")), (d2_coord(1, 0, 2), float("nan"))],
    [(d1_coord(1, 0), float("nan"))],
    [(d2_coord(1, 1, 1), float("-inf"))],
    [(d1_coord(1, 2), 1e200), (d1_coord(1, 0), -1e200)],
    [(d1_coord(1, 2), 3e154)],
    [(d2_coord(1, 0, 1), 1.5j)],
    [(d1_coord(1, 1), 2)],
)


@pytest.mark.parametrize("name,kw", [("AE", {"m": 2}), ("AC", {"lam": 0.0}),
                                     ("AG2_I", {"rep": "u"}),
                                     ("AG_II", {"rep": "u"}),
                                     ("AP_inf", {"extended": True})])
@pytest.mark.parametrize("changes", _UNUSUAL,
                         ids=["inf-nan", "nan", "-inf", "overflow",
                              "overflow-square", "mixed-kinds", "int-entry"])
def test_unusual_points_run_the_loops(name, kw, changes):
    spec = make_spec(name, 3, **kw)
    if spec.field_kind is COMPLEX and changes[0][1] == 1.5j:
        changes = [(cid, 1.5) for cid, _ in changes]
    point = _with(sample_points(spec, False)[0], changes)
    for field in catalog(spec):
        op = prolong2(field)
        assert repr(op.flow_table(point)) == repr(reference_flow(op, point))


@pytest.mark.parametrize("eta", [lambda xs, us: -0.0 * us[0],
                                 lambda xs, us: 0j * us[0] - xs[1] * 0.0],
                         ids=["negative-zero", "complex-zero"])
def test_zero_partials_that_are_not_plus_zero_run_the_loops(eta):
    # a coefficient whose partials are all zero, but -0.0 or complex
    field = VectorField(3, 1, [lambda xs, us: 0.0] * 3, [eta], "Z")
    op = prolong2(field)
    sampler = make_sampler(3, 1, seed=2)
    for idx in range(4):
        point = sampler(idx)
        # with every derivative positive, -0.0 partials keep -0.0 through
        # the loops
        positive = point.copy_with(
            du=tuple(tuple(map(abs, row)) for row in point.du),
            ddu=tuple(tuple(tuple(map(abs, row)) for row in mat)
                      for mat in point.ddu))
        for p in (point, positive):
            assert repr(op.flow_table(p)) == repr(reference_flow(op, p))


@pytest.mark.parametrize(
    "key,build,positive",
    [c for c in CONFIGS if not c[0].startswith("AP_inf")],
    ids=[k for k, _, _ in CONFIGS if not k.startswith("AP_inf")])
def test_held_slopes_are_the_slopes_of_every_pass(key, build, positive):
    # the slopes a field's first row holds, here at a point whose
    # coordinate and field value are not finite, are a full-depth pass's
    # there, at the sampled points and at an unusual one
    spec = build()
    n = spec.n_base
    rows = generator_rows(spec)
    fields = liealg.bind_generators(spec, rows)
    points = sample_points(spec, positive)
    points = [_with(points[0], [(base_coord(0), float("inf")),
                                (field_coord(1), float("nan"))]),
              *points, _with(points[0], _UNUSUAL[0])]
    for field in fields:
        prolong2(field).flow_table(points[0])
    texts = [t for _, xi, eta in rows for t in (*xi, *eta)]
    held = [(f, h) for field in fields
            for f, h in zip(field.xi + field.eta, field.plan[0])]
    assert len(held) == len(texts)
    for text, (fn, slopes) in zip(texts, held):
        for point in points if slopes is not None else ():
            got = value_grad_hess(lambda a: fn(a[:n], a[n:]),
                                  (*point.x, *point.u))[1:]
            assert repr(slopes) == repr(got), (key, text)


# texts over AG_II's space at n = 3, (t, x1..x3) and the pair (u1, u2),
# and whether a jet pass at NaN arguments shows their slopes the same at
# every point.  x1 ^ 1 is the product 1.0 * x1 and conj(u1) reads the
# partner slot, so neither pass reads a value into a slot
_PROBED = [
    ("x1 * x2", False), ("u1 / x1", False), ("exp(x1)", False),
    ("x1 ^ 2", False), ("t * x1", False), ("2.0 / x1", False),
    ("(2.0 / x1) * x2", False), ("x1 * (u1 - u1)", False),
    ("x1 ^ 1", True), ("conj(u1)", True),
    ("2.0 * x1 - u1 / 4.0", True), ("-(i * 1.0) * x1", True),
    ("(1.5 + 2.0 ^ 0.5) * t", True), ("exp(2.0) * x1 + log(3.0)", True),
    ("x1 * (2.0 * 0.5)", True), ("u2", True), ("1.0", True), ("0", True),
]


def _coefficient(text, spec):
    space = liealg.algebra_space(spec)
    return bind_coefficient(text, space["n_base"], space["n_fields"],
                            space["metric"], space["field_kind"],
                            space["time_mode"])[0]


@pytest.mark.parametrize("text,held", _PROBED, ids=[t for t, _ in _PROBED])
def test_the_probe_holds_the_slopes_a_pass_reads_no_value_into(text, held):
    # the probe rests on each interpreter's float and complex NaN rules:
    # every operation of a jet pass carries a NaN operand into its result
    spec = make_spec("AG_II", 3)
    fn = _coefficient(text, spec)
    slopes = liealg._probe(fn, 4, 2)
    assert (slopes is not None) is held
    for point in sample_points(spec, False) if held else ():
        got = value_grad_hess(lambda a: fn(a[:4], a[4:]),
                              (*point.x, *point.u))[1:]
        assert repr(slopes) == repr(got)


def test_a_probe_is_one_value_grad_hess_call_at_nan_arguments(monkeypatch):
    # a text no other test binds, so its function is fresh; a second
    # probe of it is the first's, made by no call
    fn = _coefficient("0.8125 * x3 - u2 / 4.0", make_spec("AG_II", 3))
    calls = []

    def counted(fn, args, hessian=True, seeded=None):
        calls.append((args, hessian, seeded))
        return value_grad_hess(fn, args, hessian, seeded)

    monkeypatch.setattr(liealg, "value_grad_hess", counted)
    slopes = liealg._probe(fn, 4, 2)
    assert slopes is not None and liealg._probe(fn, 4, 2) is slopes
    assert len(calls) == 1
    args, hessian, seeded = calls[0]
    assert len(args) == 6 and all(map(math.isnan, args))
    assert hessian is True and seeded is None


def test_a_coefficient_text_reads_no_second_derivative():
    with pytest.raises(BindError):
        _coefficient("S(1)", make_spec("AG_II", 3))


def _flows(fields, point):
    return [repr(prolong2(f).flow_table(point)) for f in fields]


def _references(fields, point):
    return [repr(reference_flow(prolong2(f), point)) for f in fields]


def _planned(fields):
    """``fields`` as a list, each given its plan
    (:attr:`liealg.VectorField.plan`) here if it has none yet."""
    fields = list(fields)
    for field in fields:
        if field.plan is None:
            field.plan = liealg._plan(field)
    return fields


def _held_hessian(fn, n, m, kind=float):
    """``liealg._hessians`` of ``fn`` at points whose field values are of
    type ``kind``; AP_inf's coefficients, made afresh per call, ask for
    none."""
    if type(fn) is liealg.EikonalCoefficient:
        return None
    return liealg._hessians(fn, n, m, (float,) * n + (kind,) * m)


def _unheld(fields, hessians=False, kind=float):
    """The coefficient functions of ``fields`` whose slopes are not held
    (:attr:`liealg.VectorField.plan`) and, with ``hessians``, whose Hessian
    is held at points of ``kind`` (:func:`_held_hessian`), which make a
    Jet1 pass per point, else whose Hessian is not held either, which make
    a value_grad_hess call per point.  It plans the fields that have no
    plan, such as the translations a check leaves out
    (``verify._moves_none``), and so belongs outside any count of
    passes."""
    return {f for field in _planned(fields)
            for f, held in zip(field.xi + field.eta, field.plan[0])
            if held is None and hessians == (_held_hessian(
                f, field.n_base, field.n_fields, kind) is not None)}


@pytest.mark.parametrize("spec,shared,passes,kernels", [
    (make_spec("AE", 3), True, 0, 0),
    (make_spec("AG_II", 3, rep="log"), True, 0, 0),
    (make_spec("AP_inf", 3), False, 0, 15)], ids=["AE", "AG_II-log", "AP_inf"])
def test_each_coefficient_function_is_differentiated_once_per_point(
        spec, shared, passes, kernels, monkeypatch):
    # the operators of an algebra share the jets of a coefficient function
    # at one point, and only a function whose slopes are not held is
    # differentiated there: every text of AE and of AG_II in the log
    # representation is affine, and AP_inf's coefficients share nothing
    # and hold none.  Each of those makes its lane kernel's call
    # (liealg.EikonalCoefficient), not a value_grad_hess call, on the
    # point's one argument tuple, and the kernels make one two-argument
    # pass per function of u (per instance 4 a^mu, 6 b^{mu nu} and eta),
    # shared by the coefficients reading it.  The fields are planned
    # before the count: a probe is a value_grad_hess call, made once per
    # function for the whole process
    fields = _planned(catalog(spec))
    calls, kernel_calls, lanes = [], [], []

    def counted(fn, args, hessian=True, seeded=None):
        calls.append(fn)
        return value_grad_hess(fn, args, hessian, seeded)

    kernel = liealg.EikonalCoefficient.value_grad_hess

    def counted_kernel(fn, args, hessian=True, passes=None):
        kernel_calls.append((fn, args, hessian))
        return kernel(fn, args, hessian, passes)

    poly_lanes = liealg.PolynomialOfU.lanes

    def counted_lanes(poly, w, second):
        lanes.append((poly, second))
        return poly_lanes(poly, w, second)

    monkeypatch.setattr(liealg, "value_grad_hess", counted)
    monkeypatch.setattr(liealg.EikonalCoefficient, "value_grad_hess",
                        counted_kernel)
    monkeypatch.setattr(liealg.PolynomialOfU, "lanes", counted_lanes)
    fns = {f for field in fields for f in field.xi + field.eta}
    total = sum(len(field.xi + field.eta) for field in fields)
    assert (len(fns) < total) == shared
    point = sample_points(spec, False)[0]
    assert _flows(fields, point) == _references(fields, point)
    assert set(liealg._LAST[1]) == fns
    assert len(calls) == passes
    assert len(kernel_calls) == kernels
    assert len(calls) + len(kernel_calls) == len(_unheld(fields))
    assert {fn for fn, _, _ in kernel_calls} == (fns if kernels else set())
    assert all(a is liealg._LAST[2] and h for _, a, h in kernel_calls)
    assert len(lanes) == len(set(lanes)) == len(liealg._LAST[5]) == \
        (33 if kernels else 0)
    assert set(liealg._LAST[5]) == set(lanes)
    _flows(fields, point)
    assert len(calls) == passes
    assert len(kernel_calls) == kernels
    assert len(lanes) == (33 if kernels else 0)


@pytest.mark.parametrize("name,kw", [("AE", {"m": 2}), ("AG_II", {}),
                                     ("AC", {"lam": 0.6})])
def test_shared_jets_follow_the_point(name, kw):
    # a Newton step's point, then the first again: no row is stale
    spec = make_spec(name, 3, **kw)
    fields = catalog(spec)
    p = sample_points(spec, False)[0]
    step = p.replace(base_coord(1), p.x[1] + 0.25)
    for point in (p, step, p):
        assert _flows(fields, point) == _references(fields, point)


def test_shared_jets_tell_signed_zeros_apart():
    # equal points whose base coordinate is 0.0 and -0.0 get their own rows
    spec = make_spec("AE", 3)
    fields = catalog(spec)
    plus = _with(sample_points(spec, False)[0], [(base_coord(0), 0.0)])
    minus = plus.replace(base_coord(0), -0.0)
    assert plus == minus
    rows = [_flows(fields, p) for p in (plus, minus, plus)]
    assert rows == [_references(fields, p) for p in (plus, minus, plus)]
    assert rows[0] != rows[1]


# the fields that take a sparse plan (liealg.VectorField.plan): every
# rotation, the translations, AG_II's phase J on log jets and the real
# Galilei boosts and field scaling on log jets
_PLANNED = [
    (make_spec("AO", 3), "J12 J13 J23"),
    (make_spec("AE", 3), "P1 P2 P3 J12 J13 J23"),
    (make_spec("AE", 5), "P1 P2 P3 P4 P5 J12 J13 J14 J15 J23 J24 J25 J34 "
                         "J35 J45"),
    (make_spec("AP", 3), "P0 P1 P2 P3 J01 J02 J03 J12 J13 J23"),
    (make_spec("AG_I", 3, rep="log"),
     "Pt P1 P2 P3 J12 J13 J23 G1 G2 G3 I"),
    (make_spec("AG_II", 3), "Pt P1 P2 P3 J12 J13 J23"),
    (make_spec("AG_II", 3, rep="log"), "Pt P1 P2 P3 J J12 J13 J23"),
]


def _served_kind(spec):
    """The number type of the points of ``spec`` a plan serves here."""
    if spec.field_kind is not COMPLEX:
        return float
    return complex if liealg._PROMOTES else None


@pytest.mark.parametrize("spec,planned", _PLANNED,
                         ids=["AO", "AE", "AE-n5", "AP", "AG_I-log", "AG_II",
                              "AG_II-log"])
def test_the_fields_that_take_a_plan(spec, planned):
    # at a sampled point the planned fields read every coefficient they
    # alone read at depth 0, value only; the rest build total derivatives.
    # A complex point is served only where liealg._PROMOTES holds
    fields = catalog(spec)
    point = sample_points(spec, False)[0]
    assert _flows(fields, point) == _references(fields, point)
    kind = _served_kind(spec)
    assert liealg._plan_kind(point) is kind
    assert " ".join(f.label for f in fields if f.plan[1]) == planned
    assert all(f.plan[1] is None for f in fields if f.label not in planned)
    dense = {g for f in fields if not (f.plan[1] and kind)
             for g in f.xi + f.eta}
    for fn, jets in liealg._LAST[1].items():
        assert (jets[1] is None) == (fn not in dense)


_BELOW = math.nextafter(2.0 ** 500, 0.0)
# (id, changes at a real point, at a complex one, whether a plan serves
# it): the edges of liealg._plan_kind's guard
_EDGES = [
    ("du-below-2**500", [(d1_coord(1, 1), -_BELOW)],
     [(d1_coord(1, 1), complex(0.5, _BELOW))], True),
    ("du-at-2**500", [(d1_coord(1, 1), 2.0 ** 500)],
     [(d1_coord(1, 1), complex(-2.0 ** 500, 0.5))], False),
    ("one-other-kind", [(d2_coord(1, 0, 1), 1.5j)],
     [(d2_coord(1, 0, 1), 1.5)], False),
    ("int-entry", [(d1_coord(1, 1), 2)], [(d1_coord(1, 1), 2)], False),
    ("signed-zeros", [(d1_coord(1, 0), 0.0), (d1_coord(1, 2), -0.0),
                      (d2_coord(1, 0, 2), -0.0), (d2_coord(1, 1, 1), 0.0)],
     [(d1_coord(1, 0), complex(0.0, -0.0)), (d1_coord(1, 2), -0j),
      (d2_coord(1, 0, 2), complex(-0.0, 0.0)), (d2_coord(1, 1, 1), 0j)],
     True),
    ("inf", [(d2_coord(1, 2, 2), -math.inf)],
     [(d2_coord(1, 2, 2), complex(0.5, math.inf))], False),
    ("nan", [(d1_coord(1, 0), math.nan)],
     [(d1_coord(1, 0), complex(math.nan, 0.5))], False),
]


@pytest.mark.parametrize("spec", [make_spec("AE", 3, m=2), make_spec("AP", 3),
                                  make_spec("AG_I", 3, rep="log"),
                                  make_spec("AG_II", 3, rep="log")],
                         ids=["AE-m2", "AP", "AG_I-log", "AG_II-log"])
@pytest.mark.parametrize("changes_real,changes_complex,served", [
    e[1:] for e in _EDGES], ids=[e[0] for e in _EDGES])
def test_planned_rows_at_the_edges_of_the_guard(spec, changes_real,
                                                changes_complex, served):
    # on each side of every edge the planned fields' rows, sparse or
    # dense, equal the reference's to the bit
    point = _with(sample_points(spec, False)[1],
                  changes_complex if spec.field_kind is COMPLEX
                  else changes_real)
    fields = catalog(spec)
    assert _flows(fields, point) == _references(fields, point)
    assert any(f.plan[1] for f in fields)
    assert liealg._plan_kind(point) is \
        (_served_kind(spec) if served else None)


def test_held_signed_zero_slopes_and_the_rules():
    # an eta whose base-slot gradient holds -0.0 takes the dense plan: its
    # D_i eta is a zero whose sign follows du.  A xi's zero entries may
    # have either sign, and a field slot a zero one, since a term whose
    # factor is a zero is dropped
    rows = [("Zeta", ["0", "0", "0"], ["-0.0 * x1"]),
            ("Zxi", ["-0.0 * x2", "0.0 * u1 + x3", "-1.0 * x2"],
             ["1.5 * x1 + 0.0 * u1"])]
    fields = liealg.bind_generators(make_spec("AE", 3), rows)
    for point in make_sampler(3, 1, seed=3)(0), make_sampler(3, 1, seed=4)(1):
        for sign in (1.0, -1.0):
            signed = point.copy_with(
                du=tuple(tuple(sign * abs(z) for z in row)
                         for row in point.du),
                ddu=tuple(tuple(tuple(sign * abs(z) for z in row)
                                for row in mat) for mat in point.ddu))
            assert _flows(fields, signed) == _references(fields, signed)
    assert [f.plan[1] is None for f in fields] == [True, False]
    assert fields[1].plan[1][0] == [(), (2,), (1,)]


def test_complex_slopes_take_their_plan_at_complex_points_only():
    # a planned field whose slopes hold a complex has no float plan: at a
    # point whose du and ddu entries are all floats its rows are complex
    spec = make_spec("AG_II", 3, rep="log")
    fields = liealg.bind_generators(spec, [("Zi", ["0"] * 4,
                                            ["i * x1", "i * x2"])])
    point = sample_points(spec, False)[0]
    real = point.copy_with(
        du=tuple(tuple(z.real for z in row) for row in point.du),
        ddu=tuple(tuple(tuple(z.real for z in row) for row in mat)
                  for mat in point.ddu))
    for p in (point, real):
        assert _flows(fields, p) == _references(fields, p)
    assert liealg._plan_kind(real) is float
    assert list(fields[0].plan[1][2]) == [complex]


def _partial_shapes(n, m):
    """Coordinate lists a check may read: d1 of one field only; d2 only,
    the row's last entry and its first d2 entry; base coordinates only; one
    field of a pair whole (value, d1 and d2)."""
    return ([d1_coord(m, i) for i in range(n)],
            [d2_coord(m, n - 1, n - 1), d2_coord(1, 0, 0)],
            [base_coord(i) for i in range(n)],
            [field_coord(m)] + [d1_coord(m, i) for i in range(n)]
            + [d2_coord(m, i, j) for i in range(n) for j in range(i, n)])


def _one_per_family():
    """The first configuration of each family, n, and m or rep: the blocks
    a row builds depend on the family's space, not on its parameters."""
    seen, out = set(), []
    for key, build, positive in CONFIGS:
        words = key.split()
        group = (words[0], *(w for w in words[1:]
                             if w.startswith(("n=", "m=", "rep="))))
        if group not in seen:
            seen.add(group)
            out.append((key, build, positive))
    return out


def test_partial_rows_equal_the_full_rows():
    # the first three shapes are built in order on one copy of the point,
    # whose memo starts empty, so a d2 block is built after first-order
    # ones filled it; the last, on a copy of its own, builds one cold
    configs = _one_per_family()
    assert len(configs) == 52
    for key, build, positive in configs:
        spec = build()
        n, m = spec.n_base, spec.n_fields
        ops = [prolong2(f) for f in catalog(spec)]
        shapes = [(c, flow_positions(n, m, c)) for c in _partial_shapes(n, m)]
        for p in sample_points(spec, positive):
            full = [(op.flow_table(p), op.coefficient_table(p)) for op in ops]
            shared = p.copy_with()
            for s, (coords, at) in enumerate(shapes):
                q = shared if s < 3 else p.copy_with()
                for op, (flow, table) in zip(ops, full):
                    assert repr(op.flow_table(q, at)) == \
                        repr([flow[c] for c in coords]), key
                    assert repr(op.coefficient_table(q, at)) == \
                        repr([table[c] for c in coords]), key


def _counting(monkeypatch, fields):
    """The functions passed to ``value_grad_hess``, and the AP_inf
    coefficients whose lane kernel (``liealg.EikonalCoefficient``) stands
    for that call, whether each pass carried Hessian pairs, every
    per-point memo of coefficient jets made while counting, and every
    per-point dict of passes, where a function with a held Hessian
    (``liealg._hessians``) keeps its one Jet1 pass (:func:`_held_passes`).
    ``fields`` are planned (:func:`_planned`) before the count starts: a
    plan's probes are ``value_grad_hess`` calls, made once per function
    for the whole process, so no count may depend on which tests ran
    first."""
    _planned(fields)
    calls, depths, memos, points = [], [], {}, []

    def counter(run):
        def counted(fn, args, hessian=True, *rest, **kw):
            calls.append(fn)
            depths.append(hessian)
            memo = liealg._LAST[1]
            memos[id(memo)] = memo
            return run(fn, args, hessian, *rest, **kw)
        return counted

    def at(point):
        # a point's state, made once per point and asked for again
        state = real_at(point)
        if not any(passes is state[5] for passes in points):
            points.append(state[5])
        return state

    real_at = liealg._at
    monkeypatch.setattr(liealg, "value_grad_hess", counter(value_grad_hess))
    monkeypatch.setattr(liealg.EikonalCoefficient, "value_grad_hess",
                        counter(liealg.EikonalCoefficient.value_grad_hess))
    monkeypatch.setattr(liealg, "_at", at)
    return calls, depths, memos, points


def _held_passes(points):
    """The functions of :func:`_counting`'s per-point passes that made a
    held Jet1 pass, one entry per point: AP_inf's two-argument passes share
    those dicts under (function, depth) keys, and a function whose Hessian
    is not held, or whose Jet1 pass is not finite, is there as False."""
    return [fn for passes in points for fn, held in passes.items()
            if not isinstance(fn, tuple) and held]


def _check_equation(monkeypatch, name, **kw):
    """The fields of the equation's default algebra and the counts
    (:func:`_counting`) of its check on them, which must PASS."""
    spec = EQUATIONS[name].default_algebra(3, kw)
    fields = catalog(spec)
    counts = _counting(monkeypatch, fields)
    report = check_on_manifold(
        [prolong2(f) for f in fields], equation_function(name, 3, **kw),
        solve_for=EQUATIONS[name].solve_for, n_samples=5, seed=0)
    assert report.verdict == "PASS"
    return fields, counts


def test_a_first_order_check_builds_no_second_total_derivative(monkeypatch):
    # the eikonal residual reads first derivatives only; whole rows built
    # all 75 coefficients' second total derivatives, and until the passes
    # took a depth every pass carried Hessian pairs.  Each coefficient of
    # AP_inf makes its lane kernel's call (liealg.EikonalCoefficient),
    # and at each of the 5 points each of the 33 polynomials of u makes
    # one two-argument pass, at the first-order depth
    lanes = []
    poly_lanes = liealg.PolynomialOfU.lanes

    def counted_lanes(poly, w, second):
        lanes.append((poly, second, id(liealg._LAST[5])))
        return poly_lanes(poly, w, second)

    monkeypatch.setattr(liealg.PolynomialOfU, "lanes", counted_lanes)
    _, (calls, depths, memos, points) = _check_equation(monkeypatch,
                                                        "eikonal")
    jets = [j for memo in memos.values() for j in memo.values()]
    assert len(calls) == len(jets) == 75
    assert all(type(fn) is liealg.EikonalCoefficient for fn in calls)
    assert all(j[2] is None for j in jets)
    assert not any(depths)
    assert len(lanes) == len(set(lanes)) == 5 * 33
    assert len({point for _, _, point in lanes}) == 5
    assert not any(second for _, second, _ in lanes)
    assert not _held_passes(points)


def test_a_field_with_no_read_entry_is_not_differentiated(monkeypatch):
    # the Schrodinger residual reads psi alone; its conjugate's eta,
    # where no other coefficient shares it, is never differentiated (whole
    # rows made 130 calls, 30 of them for those six functions).  Of the 20
    # functions read at a point, 12 are affine texts with held slopes; the
    # boosts' psi eta and the projective generator's xi have held Hessians
    # and make 7 Jet1 passes per point, and the projective generator's
    # cubic psi eta makes the 1 value_grad_hess call per point (8 calls
    # per point before Hessians were held)
    fields, (calls, depths, memos, points) = _check_equation(
        monkeypatch, "schrodinger", mass=1.0)
    conj = {f.eta[1] for f in fields} - \
        {g for f in fields for g in f.xi + f.eta[:1]}
    assert len(conj) == 6
    assert len(calls) == 5
    assert len(points) == 5
    assert len(_held_passes(points)) == 5 * 7
    assert set(_held_passes(points)) == \
        _unheld(fields, hessians=True, kind=complex) - conj
    assert not any(fn in conj for memo in memos.values() for fn in memo)
    # psi's d2 block is read, so its jets and the xi's have second ones,
    # each from its one pass, which carried Hessian pairs, or from its
    # held slopes or Hessian; but the rotations J12, J13 and J23 take
    # their sparse plan, so their four xi texts are read at depth 0, value
    # only
    assert sum(j[2] is not None
               for memo in memos.values() for j in memo.values()) == 80
    assert sum(j[1] is None
               for memo in memos.values() for j in memo.values()) == 20
    assert all(depths)


def test_a_basis_check_differentiates_every_coefficient(monkeypatch):
    # a basis check reads every block: as many passes as whole rows make,
    # one per point for each function whose slopes are not held.  Every
    # text of AE is affine; AC's 12 that are not, its special conformal
    # generators' xi and eta, have held Hessians and make a Jet1 pass
    # each, no value_grad_hess call (60 calls before), as do AG2_I's 5 on
    # log jets, the projective generator's xi and eta
    specs = {make_spec("AE", 3): (0, 0), make_spec("AC", 3, lam=0.6): (0, 60),
             make_spec("AG2_I", 3, rep="log"): (0, 25)}
    unheld = {spec: (len(_unheld(catalog(spec))),
                     len(_unheld(catalog(spec), hessians=True)))
              for spec in specs}
    calls, depths, _, points = _counting(
        monkeypatch, [f for spec in specs for f in catalog(spec)])
    for spec, (passes, ones) in specs.items():
        before, start = len(calls), len(points)
        check_absolute([prolong2(f) for f in catalog(spec)], basis(spec),
                       n_samples=5, seed=0)
        assert len(calls) - before == 5 * unheld[spec][0] == passes
        assert len(_held_passes(points[start:])) == \
            5 * unheld[spec][1] == ones
    assert all(depths)


def test_a_d2_read_after_a_first_order_row_runs_the_full_pass(monkeypatch):
    # the first-order row's passes carry no Hessian pairs; the first d2
    # read at the point runs each unheld coefficient's value_grad_hess call
    # again, at full depth, takes a coefficient with held slopes' D_j D_i
    # from its slopes, and one with held Hessians' from its first-order
    # Jet1 pass and its Hessian, with no second pass, and the rows equal
    # the whole row's entries.  AG2_I's projective eta makes 2 calls, each
    # a value pass and a jet pass, and its 7 functions with held Hessians
    # a Jet1 pass each (AC's 12 functions made 24 calls before Hessians
    # were held)
    spec = make_spec("AG2_I", 3)
    evaluations, wrapped = [], {}

    def counted(fn):
        def run(xs, us):
            jet = getattr(xs[0], "d", None)
            evaluations.append((fn, None if jet is None else len(jet)))
            return fn(xs, us)
        return wrapped.setdefault(fn, run)

    def wrap(fns, held):
        return [f if h is not None else counted(f) for f, h in zip(fns, held)]

    # each wrapping field takes the plan of the field it wraps, so its
    # first row makes no probe
    ops = []
    for f in catalog(spec):
        plan = liealg._plan(f)
        ops.append(prolong2(VectorField(4, 1, wrap(f.xi, plan[0]),
                                        wrap(f.eta, plan[0][4:]), f.label,
                                        f.moves, plan)))
    # the functions the wrappers wrap
    inner = {run: fn for fn, run in wrapped.items()}
    sources = [op.source for op in ops]
    unheld, ones = ({inner[run] for run in _unheld(sources, hessians)}
                    for hessians in (False, True))
    assert len(unheld) == 1 and len(ones) == 7 and len(wrapped) == 8
    # the sign-aware passes that decided the held Hessians, once per
    # function for the whole process, are not counted
    evaluations.clear()
    _, depths, _, _ = _counting(monkeypatch, sources)
    point = sample_points(spec, False)[0]
    d1 = flow_positions(4, 1, [d1_coord(1, i) for i in range(4)])
    d2 = flow_positions(4, 1, [d2_coord(1, 0, 1), d2_coord(1, 3, 3)])
    rows = [op.flow_table(point, at) for at in (d1, d2, d2) for op in ops]
    assert depths == [False] + [True]
    # the unheld function: two value passes, its first-order jet pass (5
    # gradient slots twice) and its full-depth one (and 15 Hessian slots);
    # the others: one Jet1 pass (5 gradient slots), which gives the value
    assert sorted(map(repr, evaluations)) == sorted(
        [repr((fn, size)) for fn in unheld for size in (None, None, 10, 25)]
        + [repr((fn, 5)) for fn in ones])
    whole = [reference_flow(op, point) for op in ops]
    coords = [d1_coord(1, i) for i in range(4)], \
        [d2_coord(1, 0, 1), d2_coord(1, 3, 3)]
    want = [[flow[c] for c in cs] for cs in (*coords, coords[1])
            for flow in whole]
    assert repr(rows) == repr(want)


def test_each_eikonal_polynomial_is_evaluated_once_per_pass(monkeypatch):
    # b^{mu nu}(u) is read by xi^mu and xi^nu, whose passes at a point
    # share their arguments: each of the 33 polynomials (per instance 4
    # a^mu, 6 b^{mu nu} and eta) is evaluated once by the value passes and
    # once per depth by its two-argument pass (PolynomialOfU.lanes), which
    # the lane kernels of every coefficient reading it share, where xi^mu
    # evaluating its own made 102 evaluations per point
    evaluations = []

    class Coeffs(tuple):
        def __reversed__(self):
            evaluations.append(self)
            return iter(self[::-1])

    class Counted(liealg.PolynomialOfU):
        __slots__ = ()

        def __init__(self, coeffs):
            super().__init__(coeffs)
            self.coeffs = Coeffs(self.coeffs)

    monkeypatch.setattr(liealg, "PolynomialOfU", Counted)
    spec = make_spec("AP_inf", 3)
    ops = [prolong2(f) for f in catalog(spec)]
    p, q = sample_points(spec, False)[:2]
    d1 = flow_positions(4, 1, [d1_coord(1, i) for i in range(4)])
    counts = []
    for point, at in ((p, d1), (p, None), (p, None), (q, None)):
        before = len(evaluations)
        rows = [op.flow_table(point, at) for op in ops]
        counts.append(len(evaluations) - before)
        if at is None:
            assert repr(rows) == \
                repr([reference_flow(op, point) for op in ops])
    assert len(set(map(id, evaluations))) == 33
    assert counts == [66, 33, 0, 66]


def test_the_passes_at_a_point_share_one_set_of_arguments(monkeypatch):
    # every pass at a point gets the point's one argument tuple and, per
    # depth, one list of seeded jets made for it; a whole row after a
    # first-order one at the same point makes each unheld function's call
    # again, at full depth, on the point's one list of full-depth jets.
    # AG2_II's two cubic projective etas (the field and its conjugate)
    # make the calls (AC's 12 functions made 12 per row before their
    # Hessians were held), and each point keeps their refusal; the 10
    # functions with held Hessians make their Jet1 passes on the point's
    # one list of Jet1 arguments, made by the first, and none for the
    # second row.  The fields are planned first, so no probe is counted
    seen, seeds, ones, passes, refused = [], [], [], [], []
    spec = make_spec("AG2_II", 3)
    fields = _planned(catalog(spec))
    ops = [prolong2(f) for f in fields]
    held = _unheld(fields, hessians=True, kind=complex)
    unheld = _unheld(fields, kind=complex)

    def counted(fn, args, hessian=True, seeded=None):
        seen.append((args, hessian, seeded))
        return value_grad_hess(fn, args, hessian, seeded)

    def seeding(args, hessian=True):
        seeds.append((args, hessian))
        return seed_jets(args, hessian)

    monkeypatch.setattr(liealg, "value_grad_hess", counted)
    monkeypatch.setattr(liealg, "seed_jets", seeding)
    p, q = sample_points(spec, False)[:2]
    d1 = flow_positions(4, 2, [d1_coord(r, i) for r in (1, 2)
                               for i in range(4)])
    groups = []
    for point, at in ((p, d1), (p, None), (q, None)):
        before = len(seen)
        for op in ops:
            op.flow_table(point, at)
        groups.append(seen[before:])
        state = liealg._LAST[5]
        passes.append({fn for fn in held if state.get(fn)})
        refused.append({fn for fn in state if state[fn] is False})
        ones.append(liealg._LAST[3][liealg.Jet1])
    assert len(unheld) == 2 and [len(g) for g in groups] == [2, 2, 2]
    for group, point, depth in zip(groups, (p, p, q), (False, True, True)):
        args, _, seeded = group[0]
        assert args == (*point.x, *point.u)
        assert all(a is args and h is depth and s is seeded
                   for a, h, s in group)
        assert repr([(j.value, j.d) for j in seeded]) == \
            repr([(j.value, j.d) for j in seed_jets(args, depth)])
    assert [h for _, h in seeds] == [False, True, True]
    assert seeds[0][0] is seeds[1][0] is groups[0][0][0] is groups[1][0][0]
    assert seeds[2][0] is groups[2][0][0] is not seeds[0][0]
    assert refused == [unheld, unheld, unheld]
    # one list of Jet1 arguments per point, seeded on its one argument
    # tuple, and each held function's one pass there
    assert len(held) == 10 and passes == [held, held, held]
    assert ones[0] is ones[1] is not ones[2]
    for jets, (args, _, _) in zip(ones, (g[0] for g in groups)):
        assert tuple(map(type, args)) == (float,) * 4 + (complex,) * 2
        assert [j.value for j in jets] == list(args)
        assert [j.d for j in jets] == [
            tuple(float(i == a) for i in range(6)) for a in range(6)]


def record():
    out = {}
    if os.path.exists(FIXTURE):
        with open(FIXTURE, encoding="utf-8") as fh:
            out = json.load(fh)
    for key, build, positive in CONFIGS:
        if key not in out:
            out[key] = describe(build(), positive)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
