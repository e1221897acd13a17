"""Held Hessians of the coefficients whose slopes are not held.

``liealg._hessians`` decides once per coefficient and argument types, by
a pass over sign-aware abstract numbers, whether its ``Jet2`` Hessian has
the same bits at every point of those types where a ``Jet1`` pass of it is
finite.  For such a coefficient ``liealg._jets`` takes the value and
gradient from one ``Jet1`` pass and the Hessian, or the D_j D_i table of
one that reads no field value, from that decision.  Both must give
``dual.value_grad_hess``'s bits,
signed zeros included, which rests on each interpreter's signed-zero
rules.  A point where the ``Jet1`` pass is not finite takes the full pass.
"""

import cmath
import math
import random

import pytest

from invforge import liealg
from invforge.dual import Jet1, value_grad_hess
from invforge.exprlang import bind_coefficient
from invforge.jetspace import COMPLEX, base_coord
from invforge.liealg import _FAMILIES, catalog, make_sampler, make_spec, \
    prolong2
from references import reference_flow

# every catalog algebra at n = 3 and 4, the Galilei families in both
# representations, and the conformal ones with two fields
SPECS = [make_spec(name, n, **kw) for n in (3, 4) for name in _FAMILIES
         if name != "AP_inf"
         for kw in ([{"rep": "u"}, {"rep": "log"}] if name.startswith("AG")
                    else [{}])] + \
    [make_spec("AC", 3, m=2, lam=0.6), make_spec("AC1n", 3, m=2, lam=0.6)]


def _types(spec):
    """The argument types of the points of ``spec``."""
    kind = complex if spec.field_kind is COMPLEX else float
    return (float,) * spec.n_base + (kind,) * spec.m


def _held(spec):
    """(field, coefficient, Hessian) of each coefficient of ``spec`` with a
    held Hessian at its points."""
    out = []
    for field in catalog(spec):
        field.plan = field.plan or liealg._plan(field)
        for fn, h in zip(field.xi + field.eta, field.plan[0]):
            held = h is None and liealg._hessians(
                fn, spec.n_base, spec.m, _types(spec))
            if held:
                out.append((field, fn, held[0]))
    return out


def _entry(rng, kind, zeros):
    """A signed zero (with ``zeros``) or a small number, of type ``kind``."""
    def part():
        return rng.choice([0.0, -0.0] if zeros else
                          [0.0, -0.0, rng.uniform(-2.0, 2.0)])
    return complex(part(), part()) if kind is complex else part()


def _points(spec, rng):
    """A sampled point, one whose every x, u, du and ddu entry is a signed
    zero and one where some are."""
    n, m = spec.n_base, spec.n_fields
    kind = complex if spec.field_kind is COMPLEX else float
    point = make_sampler(n, m, spec.field_kind, seed=1)(0)
    out = [point]
    for zeros in (True, False):
        def mat():
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = _entry(rng, kind, zeros)
            return tuple(map(tuple, rows))
        out.append(point.copy_with(
            x=tuple(_entry(rng, float, zeros) for _ in range(n)),
            u=tuple(_entry(rng, kind, zeros) for _ in range(m)),
            du=tuple(tuple(_entry(rng, kind, zeros) for _ in range(n))
                     for _ in range(m)),
            ddu=tuple(mat() for _ in range(m))))
    return out


def _seeded(args):
    """The seeded Jet1 arguments of a pass over ``args``."""
    return [Jet1(a, tuple(float(i == j) for i in range(len(args))))
            for j, a in enumerate(args)]


def _spec_id(spec):
    return f"{spec.name}-n{spec.n}-m{spec.m}-{spec.rep}"


@pytest.mark.parametrize("spec", SPECS, ids=map(_spec_id, SPECS))
def test_held_hessians_and_jet1_passes_are_the_full_pass(spec):
    rng = random.Random(_spec_id(spec))
    held = _held(spec)
    n = spec.n_base
    fields = {field for field, _, _ in held}
    for point in _points(spec, rng):
        args = (*point.x, *point.u)
        ones = _seeded(args)
        for _, fn, hess in held:
            want = value_grad_hess(lambda a: fn(a[:n], a[n:]), args)
            out = fn(ones[:n], ones[n:])
            assert repr((out.value, list(out.d))) == repr(want[:2])
            assert repr([list(row) for row in hess]) == repr(want[2])
        for field in fields:
            op = prolong2(field)
            assert repr(op.flow_table(point)) == \
                repr(reference_flow(op, point))


def test_the_conformal_projective_and_boost_rows_hold_their_hessians():
    # of each row's coefficients without held slopes, (how many have a
    # held Hessian, how many not): K_a's xi and eta, the projective
    # generator's xi and, on log jets, its eta, and the complex pair's
    # boosts' eta on u-jets; the projective eta on u-jets is cubic
    for spec, labels, counts in [
            (make_spec("AC", 3), ("K1", "K2", "K3"), (4, 0)),
            (make_spec("AC1n", 3), ("K0", "K1", "K2", "K3"), (5, 0)),
            (make_spec("AG2_I", 3), ("A",), (4, 1)),
            (make_spec("AG2_I", 3, rep="log"), ("A",), (5, 0)),
            (make_spec("AG_II", 3), ("G1", "G2", "G3"), (2, 0))]:
        fields = [f for f in catalog(spec) if f.label in labels]
        assert len(fields) == len(labels)
        for f in fields:
            f.plan = f.plan or liealg._plan(f)
            held = [liealg._hessians(fn, spec.n_base, spec.m, _types(spec))
                    for fn, h in zip(f.xi + f.eta, f.plan[0]) if h is None]
            assert (len(held) - held.count(None), held.count(None)) == \
                counts, (spec.name, f.label)


def test_a_pass_that_is_not_finite_runs_the_full_pass(monkeypatch):
    # K1's xi^1 = 2 x1 x1 - x.x is inf - inf at x1 = 1e160: that
    # coefficient alone makes a value_grad_hess call, and the row keeps
    # the full pass's bits, nan included
    spec = make_spec("AC", 3, lam=0.6)
    field = next(f for f in catalog(spec) if f.label == "K1")
    field.plan = field.plan or liealg._plan(field)
    point = make_sampler(3, 1, seed=4)(0).replace(base_coord(0), 1e160)
    calls = []

    def counted(fn, args, hessian=True, seeded=None):
        calls.append(fn)
        return value_grad_hess(fn, args, hessian, seeded)

    monkeypatch.setattr(liealg, "value_grad_hess", counted)
    op = prolong2(field)
    row = op.flow_table(point)
    assert len(calls) == 1
    assert any(isinstance(v, float) and math.isnan(v) for v in row.values())
    assert repr(row) == repr(reference_flow(op, point))


def _text(text):
    return bind_coefficient(text, 3, 1)[0]


def _projective_eta(name):
    spec = make_spec(name, 3)
    field = next(f for f in catalog(spec) if f.label == "A")
    return field.eta[0], spec.n_base, spec.m


# (id, (coefficient, n, m)): none may be held.  The first two are
# quadratic, but a zero of their Hessian takes its sign from the point;
# the third's Hessian term x1 x3, times 0.0, is nan where it overflows
# though the Jet1 pass is finite (:func:`test_a_hessian_term_may_overflow`);
# the projective eta on u-jets is cubic; exp and a jet divisor are refused
# whatever the Hessian, since a Jet1 pass does not give their Jet2
# gradient's bits
_OVERFLOW = "(x1 * x2) * (x3 * u1) * 0.0 + x1 * 0.0"
_CONTROLS = [
    ("minus-square", (_text("-1.0 * x1 * x1"), 3, 1)),
    ("difference-square", (_text("(x1 - x2) * (x1 - x2)"), 3, 1)),
    ("overflowing-hessian-term", (_text(_OVERFLOW), 3, 1)),
    ("exp", (_text("exp(x1 - x1) * x2 * x3"), 3, 1)),
    ("jet-divisor", (_text("x1 * x2 / (1.0 + 0.0 * x3)"), 3, 1)),
    ("projective-eta-AG2_I", _projective_eta("AG2_I")),
    ("projective-eta-AG2_II", _projective_eta("AG2_II")),
]


@pytest.mark.parametrize("fn,n,m", [c[1] for c in _CONTROLS],
                         ids=[c[0] for c in _CONTROLS])
def test_what_is_not_held(fn, n, m):
    assert liealg._probe(fn, n, m) is None
    for kind in (float, complex):
        assert liealg._hessians(fn, n, m, (float,) * n + (kind,) * m) is None


@pytest.mark.parametrize("text", ["-1.0 * x1 * x1", "(x1 - x2) * (x1 - x2)"])
def test_the_sign_of_a_quadratic_hessian_zero_follows_the_point(text):
    fn = _text(text)
    hessians = [repr(value_grad_hess(lambda a: fn(a[:3], a[3:]),
                                     (x, 0.5, 0.25, 1.0))[2])
                for x in (1.0, -1.0)]
    assert hessians[0] != hessians[1]


def test_a_hessian_term_may_overflow():
    fn = _text(_OVERFLOW)
    args = (1e200, 1e-200, 1e200, 1e-200)
    ones = _seeded(args)
    jet = fn(ones[:3], ones[3:])
    assert all(map(math.isfinite, (jet.value, *jet.d)))
    hess = value_grad_hess(lambda a: fn(a[:3], a[3:]), args)[2]
    assert math.isnan(hess[1][3])


_LEAVES = ["0.0", "-0.0", "1.0", "-1.0", "2.5", "1e-300", "1e300", "3"]


def _random_text(rng, depth, symbols, leaves):
    """A random text of + - * and / by a number over ``symbols``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(symbols if rng.random() < 0.7 else leaves)
    op = rng.choice("+-*/")
    if op == "/":
        return f"({_random_text(rng, depth - 1, symbols, leaves)}) / 2.5"
    return (f"({_random_text(rng, depth - 1, symbols, leaves)}) {op} "
            f"({_random_text(rng, depth - 1, symbols, leaves)})")


@pytest.mark.parametrize("kind", (float, complex))
def test_random_texts_keep_the_full_pass_bits(kind):
    # texts of every degree up to 16 over AG_II's space, complex constants
    # included, at points of signed zeros, tiny and overflowing entries:
    # wherever a Jet1 pass is finite, a held Hessian and the pass's value
    # and gradient are the full pass's
    rng = random.Random(f"texts {kind.__name__}")
    at = random.Random(f"points {kind.__name__}")
    spec = make_spec("AG_II", 3)
    space = liealg.algebra_space(spec)
    n, m = space["n_base"], space["n_fields"]
    types = (float,) * n + (kind,) * m
    leaves = _LEAVES + ["i", "(-0.0 * i)"] * (kind is complex)
    held = 0
    for _ in range(200):
        text = _random_text(rng, 4, ["t", "x1", "x2", "u1", "u2"], leaves)
        fn = bind_coefficient(text, n, m, space["metric"],
                              space["field_kind"], space["time_mode"])[0]
        hess = liealg._probe(fn, n, m) is None and \
            liealg._hessians(fn, n, m, types)
        if not hess:
            continue
        held += 1
        for _ in range(8):
            parts = [at.choice([0.0, -0.0, at.uniform(-2.0, 2.0),
                                at.uniform(1e150, 1e160), -1e-200])
                     for _ in range(n + 2 * m)]
            args = (*parts[:n], *(complex(*parts[n + 2 * r:n + 2 * r + 2])
                                  if kind is complex else parts[n + 2 * r]
                                  for r in range(m)))
            ones = _seeded(args)
            try:
                out = fn(ones[:n], ones[n:])
            except ArithmeticError:
                continue
            if all(map(cmath.isfinite, (out.value, *out.d))):
                want = value_grad_hess(lambda a: fn(a[:n], a[n:]), args)
                assert repr((out.value, list(out.d), [list(row) for row in
                             hess[0]])) == repr(want), text
    assert held > 30  # of the 200 texts, 39 and 37 on Python 3.11
