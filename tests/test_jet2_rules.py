"""The Jet2 rules over index triples.

Every rule of ``dual.Jet2`` must give, slot for slot, the bits of the rules
it replaced (``references.ReferenceJet2``), over float, complex,
signed-zero, inf/nan and int operands, and a jet with no Hessian pairs the
value and gradient bits of the jet with all of them.  A slot that a rule
gives no NaN part when an operand's value is NaN must be the same at
every value, the premise of ``liealg._probe``; that rests on each
interpreter's float and complex NaN rules, so CI runs this file on every
supported Python.
"""

import cmath
import math
import random

import pytest

from invforge.dual import Jet2, dexp, dlog, jet2_shape
from references import ReferenceJet2, reference_jet2_shape

INF, NAN = math.inf, math.nan
KINDS = ("float", "complex", "signed zeros", "inf and nan", "int")


def _draw(kind, rng):
    if kind == "float":
        return rng.uniform(-2.0, 2.0)
    if kind == "complex":
        return complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
    if kind == "signed zeros":
        return rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0)))
    if kind == "inf and nan":
        return rng.choice((INF, -INF, NAN, -0.0, rng.uniform(-2.0, 2.0)))
    return rng.randint(-3, 3)


# (label, operation on the jets x and y of one pass)
OPERATIONS = (
    ("x * y", lambda x, y: x * y),
    ("y * x", lambda x, y: y * x),
    ("x / y", lambda x, y: x / y),
    ("1.5 / x", lambda x, y: 1.5 / x),
    ("-2 / x", lambda x, y: -2 / x),
    ("2j / y", lambda x, y: 2j / y),
    ("x ** 0", lambda x, y: x ** 0),
    ("x ** 1", lambda x, y: x ** 1),
    ("y ** 2", lambda x, y: y ** 2),
    ("x ** -2", lambda x, y: x ** -2),
    ("x ** 2.5", lambda x, y: x ** 2.5),
    ("y ** 1.0", lambda x, y: y ** 1.0),
    ("x ** (0.5+0.25j)", lambda x, y: x ** (0.5 + 0.25j)),
    ("x ** y", lambda x, y: x ** y),
    ("2.0 ** x", lambda x, y: 2.0 ** x),
    ("exp", lambda x, y: dexp(x)),
    ("log", lambda x, y: dlog(y)),
    ("mixed", lambda x, y: (x - 0.5) * (y + 2) / (x * y - 1j) - x / 3),
)


def _outcome(op, x, y):
    """Value and every slot of ``op(x, y)`` by repr, or the error."""
    try:
        out = op(x, y)
    except (ArithmeticError, ValueError) as exc:
        return "raised", type(exc).__name__, str(exc)
    return repr(out.value), [repr(a) for a in out.d]


def _shapes():
    for k in (1, 2, 3, 5):
        yield k, [(i, j) for i in range(k) for j in range(i, k)]
        yield k, [(i, i) for i in range(k)]  # invcat.curvature_view's
    yield 3, [(0, 2), (1, 1)]


SHAPES = list(_shapes())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k,pairs", SHAPES)
def test_jet2_rules_keep_the_reference_bits(kind, k, pairs):
    rng = random.Random(f"{kind} {k} {pairs}")
    new, ref = jet2_shape(k, pairs), reference_jet2_shape(k, pairs)
    width = 2 * k + len(pairs)
    for _ in range(6):
        vals = [_draw(kind, rng) for _ in range(2)]
        slots = [[_draw(kind, rng) for _ in range(width)] for _ in vals]
        xs = [Jet2(v, d, new) for v, d in zip(vals, slots)]
        rs = [ReferenceJet2(v, d, ref) for v, d in zip(vals, slots)]
        for label, op in OPERATIONS:
            assert _outcome(op, *xs) == _outcome(op, *rs), label


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", (1, 2, 3, 5))
def test_a_jet_without_pairs_keeps_value_and_gradient_bits(kind, k):
    rng = random.Random(f"{kind} {k}")
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    full, bare = jet2_shape(k, pairs), jet2_shape(k, [])
    for _ in range(6):
        vals = [_draw(kind, rng) for _ in range(2)]
        slots = [[_draw(kind, rng) for _ in range(2 * k + len(pairs))]
                 for _ in vals]
        xs = [Jet2(v, d, full) for v, d in zip(vals, slots)]
        bs = [Jet2(v, d[:2 * k], bare) for v, d in zip(vals, slots)]
        for label, op in OPERATIONS:
            want = _outcome(op, *xs)
            if want[0] != "raised":
                want = want[0], want[1][:2 * k]
            assert _outcome(op, *bs) == want, label


# the rules a compiled coefficient text's jet pass applies, the ** rule
# with a number exponent left out: exprlang takes an integer power by
# products and any other by exp and log, and there v ** 0 is 1.0 at a
# float NaN but (1+0j) at a complex v
PROBED = [(label, op) for label, op in OPERATIONS
          if not label.startswith(("x **", "y **")) or label == "x ** y"] + [
    ("x + y", lambda x, y: x + y), ("0.5 - x", lambda x, y: 0.5 - x),
    ("-y", lambda x, y: -y), ("x * 2j", lambda x, y: x * 2j),
    ("y / 3", lambda x, y: y / 3)]


@pytest.mark.parametrize("kind", ("float", "complex"))
@pytest.mark.parametrize("k", (1, 3))
def test_a_slot_with_no_nan_at_a_nan_value_reads_no_value(kind, k):
    rng = random.Random(f"nan {kind} {k}")
    shape = jet2_shape(k, [(i, j) for i in range(k) for j in range(i, k)])
    width = len(shape[1])
    for _ in range(6):
        vals = [_draw(kind, rng) for _ in range(2)]
        slots = [[_draw("float", rng) for _ in range(width)] for _ in vals]
        for at in range(2):
            probe = [NAN if a == at else v for a, v in enumerate(vals)]
            xs, ps = ([Jet2(v, d, shape) for v, d in zip(vs, slots)]
                      for vs in (vals, probe))
            for label, op in PROBED:
                if _outcome(op, *xs)[0] == "raised":
                    continue
                for got, want in zip(op(*ps).d, op(*xs).d):
                    assert cmath.isnan(got) or repr(got) == repr(want), label
