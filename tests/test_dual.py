import math
from fractions import Fraction

import pytest

from invforge.dual import (
    Dual,
    EvaluationError,
    Jet1,
    Jet2,
    _jet_seeds,
    derivs,
    dexp,
    dlog,
    seed_jets,
    value_grad_hess,
    value_of,
)
from references import (
    DerivVector,
    nested_value_grad_hess,
    unit_derivs,
    vector_derivs,
)


def test_product_rule_is_exact(rng):
    for _ in range(50):
        a, da = rng.uniform(-3, 3), rng.uniform(-3, 3)
        b, db = rng.uniform(-3, 3), rng.uniform(-3, 3)
        out = Dual(a, da) * Dual(b, db)
        assert out.value == a * b
        assert out.deriv == a * db + da * b


def test_quotient_rule(rng):
    for _ in range(50):
        a, da = rng.uniform(1, 3), rng.uniform(-3, 3)
        b, db = rng.uniform(1, 3), rng.uniform(-3, 3)
        out = Dual(a, da) / Dual(b, db)
        assert abs(out.value - a / b) < 1e-15
        assert abs(out.deriv - (da * b - a * db) / b**2) < 1e-14


def test_chain_rule_exp_log(rng):
    for _ in range(20):
        x = rng.uniform(0.5, 2.0)
        out = dexp(Dual(x, 1.0) * Dual(x, 1.0))
        assert abs(out.deriv - 2 * x * math.exp(x * x)) < 1e-12
        out = dlog(Dual(x, 1.0))
        assert out.deriv == 1.0 / x


def test_integer_powers(rng):
    x = 1.7
    out = Dual(x, 1.0) ** 5
    assert abs(out.deriv - 5 * x**4) < 1e-12
    out = Dual(x, 1.0) ** -2
    assert abs(out.deriv + 2 * x**-3) < 1e-12
    assert (Dual(x, 1.0) ** 0).deriv == 0.0


def test_complex_payloads():
    z = complex(1.0, 2.0)
    out = Dual(z, 1.0) * Dual(z, 1.0)
    assert out.value == z * z
    assert out.deriv == 2 * z


def test_scalar_mixing():
    out = 3.0 * Dual(2.0, 1.0) + 1 - Dual(0.5, 0.25)
    assert out.value == 6.5
    assert out.deriv == 2.75
    out = 2.0 / Dual(4.0, 1.0)
    assert abs(out.deriv + 2.0 / 16.0) < 1e-15


def test_nested_duals_give_second_derivative():
    # f(x) = x^3 at x=2: f'' = 12
    x = Dual(Dual(2.0, 1.0), Dual(1.0, 0.0))
    out = x * x * x
    assert abs(out.deriv.deriv - 12.0) < 1e-12


def test_value_grad_hess():
    def f(args):
        x, y = args
        return x * x * y + y * y

    val, grad, hess = value_grad_hess(f, [2.0, 3.0])
    assert val == 21.0
    assert grad == [12.0, 10.0]
    assert hess[0][0] == 6.0
    assert hess[0][1] == hess[1][0] == 4.0
    assert hess[1][1] == 2.0


def reference_value_grad_hess(fn, args):
    """Unsymmetric nested seeding: one pass per ordered pair (i, j), so
    every Hessian entry, mirrored ones included, comes from its own pass."""
    n = len(args)
    val = value_of(fn(list(args)))
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            seeded = [
                Dual(
                    Dual(a, 1.0 if k == i else 0.0),
                    Dual(1.0 if k == j else 0.0, 0.0),
                )
                for k, a in enumerate(args)
            ]
            out = fn(seeded)
            if not isinstance(out, Dual):
                continue
            d = out.deriv
            if isinstance(d, Dual):
                hess[i][j] = d.deriv
            if i == 0:
                grad[j] = value_of(d)
    return val, grad, hess


def _non_polynomial(args):
    out = dexp(args[0] * args[-1]) / (2.0 + args[0] * args[0])
    for k, a in enumerate(args):
        out = out + a ** 2.5 / (1.0 + k + a) + a ** 3 * args[k - 1]
    return out


def _complex_valued(args):
    # generator-like coefficient with an imaginary weight, as in the
    # Schroedinger algebras: (lam t + i mass |x|^2 / 2) u
    mu = 1j * 0.7
    sq = 0.0
    for a in args[1:]:
        sq = sq + a * a
    return (0.4 * args[0] + mu * sq / 2.0) * args[-1] * args[0]


def _skips_arguments(args):
    out = 1.5
    for a in args[::2]:
        out = out * (a + 0.5) - a * a
    return out


@pytest.mark.parametrize("fn", [_non_polynomial, _complex_valued,
                                _skips_arguments])
@pytest.mark.parametrize("k", range(1, 7))
def test_value_grad_hess_matches_unsymmetric_reference(fn, k, rng):
    for _ in range(5):
        args = [rng.uniform(0.5, 2.0) for _ in range(k)]
        val, grad, hess = value_grad_hess(fn, args)
        want_val, want_grad, want_hess = reference_value_grad_hess(fn, args)
        assert val == want_val
        assert grad == want_grad
        for i in range(k):
            for j in range(i, k):
                assert hess[i][j] == want_hess[i][j]
                assert hess[j][i] == hess[i][j]
                mirrored = want_hess[j][i]
                assert abs(hess[j][i] - mirrored) <= 1e-13 * abs(mirrored)


@pytest.mark.parametrize("k", range(1, 7))
def test_value_grad_hess_argument_free(k):
    val, grad, hess = value_grad_hess(lambda args: 2.5, [1.0] * k)
    assert val == 2.5
    assert grad == [0.0] * k
    assert hess == [[0.0] * k for _ in range(k)]


def symmetric_value_grad_hess(fn, args):
    """Scalar symmetric nested seeding: one pass per pair i <= j, the
    inner layer along i and the outer along j; ``hess[j][i]`` is a copy."""
    n = len(args)
    val = value_of(fn(list(args)))
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    one, zero = Dual(1.0, 0.0), Dual(0.0, 0.0)
    for i in range(n):
        inner = [Dual(a, 1.0 if k == i else 0.0) for k, a in enumerate(args)]
        for j in range(i, n):
            out = fn([Dual(a, one if k == j else zero)
                      for k, a in enumerate(inner)])
            if not isinstance(out, Dual):
                if j == 0:
                    return val, grad, hess
                continue
            d = out.deriv
            if isinstance(d, Dual):
                hess[i][j] = hess[j][i] = d.deriv
            if i == 0:
                grad[j] = value_of(d)
    return val, grad, hess


@pytest.mark.parametrize("fn", [_non_polynomial, _complex_valued,
                                _skips_arguments, lambda args: 2.5,
                                lambda args: -2.0 * args[-1]])
@pytest.mark.parametrize("k", range(1, 7))
def test_value_grad_hess_matches_scalar_symmetric_loop(fn, k, rng):
    # every entry bit for bit, mirrored ones and signed zeros included
    for _ in range(5):
        args = [rng.uniform(0.5, 2.0) for _ in range(k)]
        assert repr(value_grad_hess(fn, args)) == \
            repr(symmetric_value_grad_hess(fn, args))


def column_value_grad_hess(fn, args):
    """Per-column nested seeding: the outer layer scalar along j, the inner
    layer a vector over every i; one pass per j plus the value pass."""
    n = len(args)
    val = value_of(fn(list(args)))
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    inner = [Dual(a, e) for a, e in zip(args, unit_derivs(n))]
    one, zero = Dual(1.0, 0.0), Dual(0.0, 0.0)
    for j in range(n):
        out = fn([Dual(a, one if k == j else zero)
                  for k, a in enumerate(inner)])
        if not isinstance(out, Dual):
            if j == 0:
                return val, grad, hess
            continue
        d = out.deriv
        col = vector_derivs(d, n)
        for i in range(j + 1):
            hess[i][j] = hess[j][i] = col[i]
        grad[j] = value_of(d)
    return val, grad, hess


def _quotients_and_powers(args):
    # Dual / Dual, c / Dual with c != 1, ** 0, a negative integer power,
    # Dual ** Dual and dlog
    x, y = args[0], args[-1]
    out = x / (1.5 + y) - 2.5 / (x + y) + y ** 0 * x ** -3
    for a in args:
        out = out + (0.5 + a) ** x - dlog(a * y) / a
    return out


@pytest.mark.parametrize("fn", [_non_polynomial, _complex_valued,
                                _skips_arguments, _quotients_and_powers,
                                lambda args: 2.5,
                                lambda args: -2.0 * args[-1]])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("k", range(1, 7))
def test_value_grad_hess_matches_column_loop(fn, kind, k, rng):
    # every entry bit for bit, mirrored ones and signed zeros included
    for _ in range(5):
        if kind == "complex":
            args = [complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
                    for _ in range(k)]
        else:
            args = [rng.uniform(0.5, 2.0) for _ in range(k)]
        assert repr(value_grad_hess(fn, args)) == \
            repr(column_value_grad_hess(fn, args))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_jet1_operations_are_the_scalar_dual_per_slot(kind, rng):
    def draw():
        if kind == "complex":
            return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        return rng.uniform(-2.0, 2.0)

    for _ in range(10):
        x = Jet1(rng.choice((-0.0, draw())), [draw(), -0.0, draw(), 0.0])
        y = Jet1(draw(), [0.0, draw(), 1.0, -0.0])
        c = draw()
        for op in (lambda a, b: a * b, lambda a, b: a / b,
                   lambda a, b: b * a):
            got = op(x, y)
            want = [op(Dual(x.value, a), Dual(y.value, b)).deriv
                    for a, b in zip(x.d, y.d)]
            assert isinstance(got, Jet1)
            assert repr(got.d) == repr(want)
        for z, op in ((x, lambda a: a * c), (x, lambda a: c * a),
                      (x, lambda a: a / c), (y, lambda a: c / a),
                      (x, lambda a: a ** 0), (y, lambda a: a ** -2),
                      (y, lambda a: a ** 2.5), (y, lambda a: a ** c),
                      (y, dlog), (x, dexp)):
            got = op(z)
            want = [op(Dual(z.value, a)).deriv for a in z.d]
            assert isinstance(got, Jet1)
            assert repr(got.d) == repr(want)


@pytest.mark.parametrize("fn", [_non_polynomial, lambda args: 2.5])
def test_value_grad_hess_makes_two_passes(fn):
    calls = []

    def counted(args):
        calls.append(len(args))
        return fn(args)

    value_grad_hess(counted, [0.5, 1.0, 1.5, 2.0, 2.5])
    assert calls == [5, 5]


def test_cached_hess_seeds_are_unchanged_by_a_pass():
    # the jet pass shares one set of unit seeds, zero Hessian entries and
    # index pairs per argument count and depth
    for hessian in (True, False):
        seeds = _jet_seeds(4, hessian)
        before = repr(seeds)
        seen = []

        def fn(args):
            seen.append(args)
            return _quotients_and_powers(args)

        for f in (fn, _complex_valued):
            value_grad_hess(f, [0.5, 1.0, 1.5, 2.0], hessian)
        assert _jet_seeds(4, hessian) is seeds
        assert repr(seeds) == before
        # the pass seeded its jets from these cached slots and shape
        assert all(a.shape is seeds[0] and a.d is d
                   for a, d in zip(seen[1], seeds[1]))


@pytest.mark.parametrize("fn", [_non_polynomial, _quotients_and_powers,
                                _complex_valued, _skips_arguments,
                                lambda args: 2.5,
                                lambda args: -2.0 * args[-1]])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("k", range(1, 7))
def test_value_grad_hess_matches_nested_pass(fn, kind, k, rng):
    # every entry bit for bit, mirrored ones and signed zeros included
    for _ in range(5):
        if kind == "complex":
            args = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
                    for _ in range(k)]
        else:
            args = [rng.uniform(-2.0, 2.0) for _ in range(k)]
        assert repr(value_grad_hess(fn, args)) == \
            repr(nested_value_grad_hess(fn, args))


def _every_operation(args):
    # each jet operation with jet, int, float and complex operands:
    # reflected forms, unary minus, integer, float, complex and jet powers
    x, y = args[0], args[-1]
    out = -x + 2 - (3.5 - y) * 2 + 0.5 * x - y * 1.5 + 1j * x - y / 4
    out = out + x / (y + 3.0) - 2.5 / (x * x + 1.0) + 1 / (1.5 + y)
    out = out + x ** 0 + y ** 1 + x ** 2 - (y + 3.0) ** -2 + x ** True
    out = out + (x * x + 1.0) ** 0.0 + (y * y + 1.0) ** 1.0
    out = out + (x * x + 0.5) ** 2.5 + (y * y + 1.0) ** (0.5 + 0.25j)
    out = out + (x * x + 1.0) ** y + 2.0 ** x + 3 ** y
    return out + dexp(x * y) - dlog(x * x + 1.0) * dexp(-y)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("k", range(1, 5))
def test_every_jet_operation_matches_nested_pass(kind, k, rng):
    for _ in range(10):
        if kind == "complex":
            args = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
                    for _ in range(k)]
        else:
            args = [rng.choice((-0.0, 0.0, rng.uniform(-2.0, 2.0)))
                    for _ in range(k)]
        assert repr(value_grad_hess(_every_operation, args)) == \
            repr(nested_value_grad_hess(_every_operation, args))


def _vgh_outcome(fn, args, hessian=True):
    try:
        return repr(value_grad_hess(fn, args, hessian))
    except (ArithmeticError, ValueError) as exc:
        return repr(exc)


@pytest.mark.parametrize("fn", [_every_operation, _non_polynomial,
                                _quotients_and_powers, _complex_valued,
                                _skips_arguments, lambda args: 2.5,
                                lambda args: args[0],
                                lambda args: -0.0 * args[-1]])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("k", range(1, 6))
def test_a_pass_without_hessian_pairs_keeps_value_and_gradient_bits(
        fn, kind, k, rng):
    for _ in range(5):
        if kind == "complex":
            args = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
                    for _ in range(k)]
        else:
            args = [rng.choice((-0.0, 0.0, rng.uniform(-2.0, 2.0)))
                    for _ in range(k)]
        want = _vgh_outcome(fn, args)
        if not want.startswith("("):  # the error both passes raise
            assert _vgh_outcome(fn, args, False) == want
            continue
        val, grad, hess = value_grad_hess(fn, args)
        assert len(hess) == k
        assert _vgh_outcome(fn, args, False) == repr((val, grad, None))


@pytest.mark.parametrize("hessian", [True, False])
def test_a_pass_reads_the_seeded_jets_it_is_handed(hessian):
    seen = []

    def fn(args):
        seen.append(args)
        return args[0] * args[1] / args[0]

    args = (0.5, 1.5)
    want = repr(value_grad_hess(fn, args, hessian))
    seeded = seed_jets(args, hessian)
    before = repr([(a.value, a.d) for a in seeded])
    for _ in range(2):
        assert repr(value_grad_hess(fn, args, hessian, seeded)) == want
    # the value passes get the numbers themselves; a pass with no seeded
    # jets makes its own, and the others read those handed in, unchanged
    assert all(a is b for s in seen[::2] for a, b in zip(s, args))
    assert all(s is not seeded and s == seeded for s in seen[3::2])
    assert not any(a is b for a, b in zip(seen[1], seeded))
    assert repr([(a.value, a.d) for a in seeded]) == before


def test_value_grad_hess_constructs_no_dual(monkeypatch):
    made = []
    init = Dual.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Dual, "__init__", counted)
    for fn in (_non_polynomial, _quotients_and_powers, _complex_valued):
        value_grad_hess(fn, [0.5, 1.0, 1.5, 2.0])
    assert made == []
    nested_value_grad_hess(_non_polynomial, [0.5, 1.0])
    assert made


def test_family_jacobian_constructs_no_dual(monkeypatch):
    from invforge.invcat import basis
    from invforge.liealg import AlgebraSpec
    from invforge.verify import family_jacobian

    made = []
    init = Dual.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Dual, "__init__", counted)
    for spec in (AlgebraSpec("AE", 3, m=2), AlgebraSpec("AC", 3, lam=0.4)):
        fam = basis(spec)
        point = fam.space.sampler(seed=0)(0)
        rows = family_jacobian(fam.members, point, fam.deps)
        assert len(rows) == len(fam.members)
    assert made == []


def _scalar_passes(fn, args, unseeded):
    """Value and one scalar pass per direction; ``unseeded`` values are
    read with derivative 0.0 in every pass."""
    consts = [Dual(c, 0.0) for c in unseeded]
    val = value_of(fn([Dual(a, 0.0) for a in args] + consts))
    grad = []
    for i in range(len(args)):
        out = fn([Dual(a, 1.0 if k == i else 0.0)
                  for k, a in enumerate(args)] + consts)
        grad.append(out.deriv if isinstance(out, Dual) else 0.0)
    return val, grad


def _vector_pass(fn, args, unseeded):
    """One :class:`Jet1` pass; ``unseeded`` values are read with one
    shared list of zeros, as ``gradient_view`` reads them."""
    k = len(args)
    zero = [0.0] * k
    seeded = [Jet1(a, [1.0 if i == j else 0.0 for i in range(k)])
              for j, a in enumerate(args)]
    out = fn(seeded + [Jet1(c, zero) for c in unseeded])
    return value_of(out), derivs(out, k)


def _reference_pass(fn, args, unseeded):
    """The vector-mode ``Dual(value, DerivVector)`` pass; ``unseeded``
    values are read with the scalar derivative 0.0."""
    seeded = [Dual(a, e) for a, e in zip(args, unit_derivs(len(args)))]
    out = fn(seeded + [Dual(c, 0.0) for c in unseeded])
    return value_of(out), vector_derivs(out, len(args))


def _division(a):
    return (a[0] / a[1] - 2.0 / a[2]) / 3.0 + a[3] / 0.7 - a[1] / a[3]


def _integer_powers(a):
    return a[0] ** 3 - a[1] ** -2 + a[2] ** 0 * a[3] + 0.0 * a[1] ** 0


def _fractional_powers(a):
    return a[0] ** 2.5 + a[1] ** a[2] + 2.0 ** a[3] - a[2] ** -0.5


def _exp_log(a):
    return dexp(a[0] * a[1]) - dlog(a[2] * a[3]) * dexp(-a[3]) + 1


def _mixed(a):
    # unseeded reads (a[4], a[5]) meet seeded ones; -0.0 arises from
    # products with a negative unseeded value
    out = -(a[4] * a[5]) + a[0] * a[5] - a[4] / a[1]
    return out - (1.0 - a[2]) * a[3] ** 2 / (a[4] - 2.0)


@pytest.mark.parametrize("fn", [_division, _integer_powers,
                                _fractional_powers, _exp_log, _mixed])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_vector_pass_equals_scalar_passes(fn, kind, rng):
    for _ in range(10):
        def draw():
            if kind == "complex":
                return complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
            return rng.uniform(0.5, 2.0)

        args = [draw() for _ in range(4)]
        unseeded = [draw(), -rng.uniform(0.5, 2.0)]
        assert repr(_vector_pass(fn, args, unseeded)) == \
            repr(_scalar_passes(fn, args, unseeded))


def test_scalar_derivative_broadcasts_like_a_zero_vector():
    vec = [1.5, -0.0, 2.0]
    x, y = Jet1(0.5, vec), Jet1(-2.0, [0.0, 0.0, 0.0])
    rx, ry = Dual(0.5, DerivVector(vec)), Dual(-2.0, 0.0)
    for op in (lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a - b,
               lambda a, b: b - a, lambda a, b: a * b, lambda a, b: b * a,
               lambda a, b: a / b, lambda a, b: b / a):
        got = op(x, y)
        assert repr(got.value) == repr(op(rx, ry).value)
        assert repr(got.d) == repr(vector_derivs(op(rx, ry), 3))
    assert repr(derivs(Jet1(1.0, [-0.0] * 3), 3)) == "[-0.0, -0.0, -0.0]"
    assert repr(derivs(2.0, 2)) == "[0.0, 0.0]"



_CONSTANT_FORMS = {
    "x + c": lambda x, c: x + c, "c + x": lambda x, c: c + x,
    "x - c": lambda x, c: x - c, "c - x": lambda x, c: c - x,
    "x * c": lambda x, c: x * c, "c * x": lambda x, c: c * x,
    "x / c": lambda x, c: x / c, "c / x": lambda x, c: c / x,
    "x ** c": lambda x, c: x ** c, "c ** x": lambda x, c: c ** x,
}


@pytest.mark.parametrize("form", _CONSTANT_FORMS)
@pytest.mark.parametrize("jet", ["Jet1", "Jet2"])
def test_a_jet_takes_any_non_jet_operand_as_a_constant(jet, form):
    # a Fraction acts as the float it equals, whatever side it is on
    if jet == "Jet1":
        x = Jet1(0.75, [0.5, -1.25, 0.0])
    else:
        x = Jet2(0.75, [0.5, -1.25, 0.5, -1.25, 2.0, -0.5, 3.0],
                 _jet_seeds(2, True)[0])
    op = _CONSTANT_FORMS[form]
    got, want = op(x, Fraction(1, 4)), op(x, 0.25)
    assert type(got) is type(want) is type(x)
    assert repr(got.value) == repr(want.value)
    assert repr(got.d) == repr(want.d)

def _jet_operations(a):
    # every Jet1 operation between seeded reads (a[0], a[1]), unseeded
    # reads (a[2], a[3]) and int, float and complex numbers
    x, y, c, e = a
    out = -x + 2 - (3.5 - y) * 2 + 0.5 * x - y * 1.5 + 1j * x - y / 4
    out = out + c - e + x * c + e * y - c * e + x / (y + 3.0) - c / x
    out = out + x / e - 2.5 / (x * x + 1.0) + 1 / (1.5 + y) + 3 / c
    out = out + x ** 0 + c ** 0 + y ** 1 + x ** 2 - (y + 3.0) ** -2
    out = out + e ** -3 + x ** True + (x * x + 1.0) ** 0.0
    out = out + (y * y + 1.0) ** 1.0 + (x * x + 0.5) ** 2.5
    out = out + (y * y + 1.0) ** (0.5 + 0.25j) + (c * c + 1.0) ** 1.5
    out = out + (x * x + 1.0) ** y + (c * c + 1.0) ** x
    out = out + (y * y + 1.0) ** c + 2.0 ** x + 3 ** y + 0.5 ** c
    return out + dexp(x * y) - dlog(x * x + 1.0) * dexp(-y) + dlog(c * c)


def _outcome(pass_, fn, args, unseeded):
    """Repr of a pass's value and gradient, or of the error it raised."""
    try:
        return repr(pass_(fn, args, unseeded))
    except (ArithmeticError, ValueError) as exc:
        return repr(exc)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_jet1_pass_matches_the_reference_pass(kind, rng):
    # each value and component bit for bit, signed zeros included
    def draw():
        if kind == "complex":
            return complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        if rng.random() < 0.1:
            return rng.choice((-0.0, 0.0))
        return rng.uniform(-2.0, 2.0)

    fns = (_jet_operations, _division, _integer_powers, _fractional_powers,
           _exp_log, _mixed)
    for _ in range(20):
        for fn in fns:
            args, unseeded = [draw(), draw()], [draw(), draw()]
            if fn is not _jet_operations:
                args, unseeded = args + unseeded, [draw(), draw()]
            assert _outcome(_vector_pass, fn, args, unseeded) == \
                _outcome(_reference_pass, fn, args, unseeded)


@pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan, -0.0,
                                     complex(math.inf, 1.0),
                                     complex(0.5, math.nan)])
def test_jet1_pass_matches_the_reference_pass_at_special_values(special):
    fns = (_jet_operations, _division, _integer_powers, _fractional_powers,
           _exp_log, _mixed)
    for fn in fns:
        width = 2 if fn is _jet_operations else 4
        for at in range(width + 2):
            vals = [0.75, -1.25, 1.5, 0.5, -0.5, 2.0]
            vals[at] = special
            args, unseeded = vals[:width], vals[width:width + 2]
            assert _outcome(_vector_pass, fn, args, unseeded) == \
                _outcome(_reference_pass, fn, args, unseeded)


@pytest.mark.parametrize("x", [0.0, -0.0, 0, 0j, Dual(0.0, 1.0),
                               Jet1(-0.0, [1.0]), seed_jets([0j])[0]],
                         ids=["0.0", "-0.0", "int", "0j", "dual", "jet1",
                              "jet2"])
def test_log_of_zero_is_an_evaluation_error(x):
    # cmath.log(0j) raised ValueError, which the CLI reported as a usage
    # error and verify's redraw did not catch
    with pytest.raises(EvaluationError, match="log of zero"):
        dlog(x)
