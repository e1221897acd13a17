"""The lane kernel of AP_inf's coefficients against the jet pass it
stands for.

``liealg.EikonalCoefficient.value_grad_hess`` builds a coefficient's
value, gradient and Hessian from one two-argument pass per function of u
(``liealg._alone``), replaying each term's ``Jet2`` product lane by lane.
Its result must be ``dual.value_grad_hess``'s on the same coefficient by
``repr``, signed zeros included, at sampled points and at points whose
entries are zeros of either sign, at both depths.  The bits rest on each
interpreter's signed-zero rules.  A kernel whose one pair lane adds its
operands in another order must fail the comparison.
"""

import inspect
import random
import textwrap

import pytest

from invforge import liealg
from invforge.dual import value_grad_hess
from invforge.exprlang import bind_scalar_function
from invforge.liealg import catalog, make_sampler, make_spec, prolong2
from references import reference_flow
from test_flow_identity import FUNCTION_SETS

# the flow fixture's two override sets, then constant overrides, whose
# functions return a number, not a jet
OVERRIDES = (((), False), *FUNCTION_SETS,
             ((("eta", "2"), ("b01", "0"), ("a0", "1")), False))
_IDS = ["sampled", "fixture-1", "fixture-2", "constant"]
SIGNED = (0.0, -0.0)


def _spec(n, extended, functions):
    return make_spec("AP_inf", n, extended=extended, functions=tuple(
        (name, bind_scalar_function(text)) for name, text in functions))


def _signed_point(point, rng, zeros_only):
    """``point`` with every x, u, du and ddu entry a zero of random sign,
    or with ``zeros_only`` false each a zero or its own value."""
    def pick(z):
        return rng.choice(SIGNED if zeros_only else (*SIGNED, z, z))
    n = point.n_base
    ddu = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ddu[i][j] = ddu[j][i] = pick(point.ddu[0][i][j])
    return point.copy_with(
        x=tuple(map(pick, point.x)), u=tuple(map(pick, point.u)),
        du=(tuple(map(pick, point.du[0])),), ddu=(tuple(map(tuple, ddu)),))


def _points(spec, positive):
    sampler = make_sampler(spec.n_base, 1, seed=spec.n,
                           positive_fields=positive)
    rng = random.Random(f"eikonal jets {spec.n} {spec.extended}")
    points = [sampler(idx) for idx in range(3)]
    return points + [_signed_point(p, rng, zeros) for p in points
                     for zeros in (True, False)]


def _outcome(run):
    try:
        return repr(run())
    except ArithmeticError as exc:
        return f"error {exc!r}"


def _mismatches(fns, points):
    """(coefficient, point, depth) of each kernel result among ``fns``
    that is not the jet pass's by repr; at each point and depth the
    coefficients share one dict of one-variable passes, as
    :func:`liealg._jets` shares them."""
    assert all(type(fn) is liealg.EikonalCoefficient for fn in fns)
    out = []
    for point in points:
        args = (*point.x, *point.u)
        n = len(point.x)
        for hessian in (True, False):
            passes = {}
            for fn in fns:
                want = _outcome(lambda: value_grad_hess(
                    lambda a: fn(a[:n], a[n:]), args, hessian))
                got = _outcome(lambda: fn.value_grad_hess(args, hessian,
                                                          passes))
                if got != want:
                    out.append((fn, point, hessian))
    return out


def _coefficients(spec):
    return [fn for field in catalog(spec) for fn in field.xi + field.eta]


@pytest.mark.parametrize("functions,positive", OVERRIDES, ids=_IDS)
@pytest.mark.parametrize("extended", (False, True),
                         ids=["plain", "extended"])
@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_the_kernel_gives_the_jet_pass_bits(n, extended, functions, positive):
    spec = _spec(n, extended, functions)
    assert not _mismatches(_coefficients(spec), _points(spec, positive))


def _polynomial_coefficients():
    """Coefficients on (x0..x3, u) of polynomials of degree -1 (no
    coefficient) to 4: AP_inf samples degree 2, where no Horner lane adds
    two terms that are not zeros."""
    rng = random.Random("eikonal polynomials")
    polys = [liealg.PolynomialOfU([rng.uniform(-2, 2) for _ in range(size)])
             for size in range(6)]
    return [liealg.EikonalCoefficient(a, [
        (b, nu, sign) for b, nu, sign in zip(polys[i:] + polys, range(4),
                                             (1.0, -1.0, None, 1.0))
    ][:terms]) for i, a in enumerate(polys) for terms in (0, 2, 4)]


def test_polynomials_of_any_degree_give_the_jet_pass_bits():
    spec = _spec(3, False, ())
    assert not _mismatches(_polynomial_coefficients(), _points(spec, False))


@pytest.mark.parametrize("functions,positive", OVERRIDES, ids=_IDS)
def test_flow_rows_at_signed_zero_points_are_the_references(functions,
                                                            positive):
    # whole rows at points whose entries are zeros of either sign
    spec = _spec(3, True, functions)
    ops = [prolong2(f) for f in catalog(spec)]
    for point in _points(spec, positive)[3:]:
        want = [_outcome(lambda: reference_flow(op, point)) for op in ops]
        assert [_outcome(lambda: op.flow_table(point)) for op in ops] == want


def test_a_swapped_pair_lane_fails_the_comparison(monkeypatch):
    # Horner's (u, u) lane adds the inner and outer gradients' terms in the
    # jet rule's order; from degree 3 on, adding the product term first
    # changes its rounding
    source = textwrap.dedent(inspect.getsource(liealg.PolynomialOfU.lanes))
    lane = "(z + i1 * 1.0) + (o1 * 1.0 + h11 * w)"
    assert source.count(lane) == 1
    scope = vars(liealg).copy()
    exec(source.replace(lane, "(z + h11 * w) + (o1 * 1.0 + i1 * 1.0)"),
         scope)
    monkeypatch.setattr(liealg.PolynomialOfU, "lanes", scope["lanes"])
    bad = _mismatches(_polynomial_coefficients(),
                      _points(_spec(3, False, ()), False))
    assert bad and all(hessian for _, _, hessian in bad)
