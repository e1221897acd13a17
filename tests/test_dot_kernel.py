"""The Jet1 multiply-accumulate of invcat's dot products.

``sum_prod`` runs a dot of 3 to 5 terms whose factors are all
:class:`Jet1` through a fixed-size kernel, one jet per dot, and
``trace_prod`` sums such dots; every other list runs the
product-then-sum loop itself, and ``_dot`` with a metric's signs folds
each term of two Jet1 factors into the running sum in one step.  Every
value and slot must keep the bits of the product-then-sum loop (the
references in ``references.py``), and the work saved is pinned by
counting jets.
"""

import math
import random

import pytest

from invforge.dual import Jet1, Jet2, jet2_shape
from invforge.invcat import _dot, basis, mat_mul, mat_trace, \
    operator_view, sum_prod, trace_prod
from invforge.liealg import catalog, flow_positions, make_spec, prolong2
from references import reference_dot, reference_mat_mul, reference_sum_prod

INF, NAN = math.inf, math.nan


def _bits(x):
    """Type, value and every slot of ``x``, each by its repr."""
    if isinstance(x, (Jet1, Jet2)):
        return type(x).__name__, repr(x.value), [repr(a) for a in x.d]
    return type(x).__name__, repr(x)


def _jets(values, slots):
    return [Jet1(v, d) for v, d in zip(values, slots)]


def _random_jets(rng, count, k, scale=1.0):
    return [Jet1(rng.uniform(-scale, scale),
                 [rng.uniform(-scale, scale) for _ in range(k)])
            for _ in range(count)]


def _complex_jets(rng, count, k):
    def c():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return [Jet1(c(), [c() for _ in range(k)]) for _ in range(count)]


_JET2_SHAPE = jet2_shape(2, [(0, 0), (0, 1), (1, 1)])


def _jet2(value, d):
    return Jet2(value, d, _JET2_SHAPE)


def _flavoured_jets(rng, count):
    """``count`` jets of three slots, one of each flavour in turn: float,
    complex, signed-zero, inf or nan, and int slots and values.  Only slot
    0 of the inf-or-nan flavour is not finite, so the other slots of a
    result keep the rounding of every term."""
    flavours = [
        lambda: Jet1(rng.uniform(-2, 2), [rng.uniform(-2, 2)
                                          for _ in range(3)]),
        lambda: _complex_jets(rng, 1, 3)[0],
        lambda: Jet1(rng.choice((0.0, -0.0)),
                     [rng.choice((0.0, -0.0)) for _ in range(3)]),
        lambda: Jet1(rng.uniform(-2, 2), [rng.choice((INF, -INF, NAN)),
                                          rng.uniform(-2, 2), -0.0]),
        lambda: Jet1(rng.randint(-4, 4), [rng.randint(-4, 4)
                                          for _ in range(3)]),
    ]
    return [flavours[i % len(flavours)]() for i in range(count)]


_RNG = random.Random(31)
# (label, xs, ys): each operand list of one length, run through every
# kernel against its reference
CASES = [
    ("float slots", _random_jets(_RNG, 4, 5), _random_jets(_RNG, 4, 5)),
    ("rounding", _random_jets(_RNG, 5, 3, 1e16)
     + _random_jets(_RNG, 1, 3, 1e-3),
     _random_jets(_RNG, 3, 3, 1e-3) + _random_jets(_RNG, 3, 3, 1e16)),
    ("complex slots", _complex_jets(_RNG, 3, 4), _complex_jets(_RNG, 3, 4)),
    ("signed zeros",
     _jets([-0.0, 0.0, -0.0], [[-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]]),
     _jets([0.0, -0.0, -0.0], [[0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0]])),
    ("inf and nan",
     _jets([INF, 1.0, NAN], [[NAN, 1.0], [-INF, INF], [0.0, -0.0]]),
     _jets([2.0, -INF, 0.0], [[1.0, INF], [0.0, NAN], [INF, -1.0]])),
    ("int entries", _jets([2, -3], [[1, 0, 4], [0, 2, -1]]),
     _jets([5, 7], [[0, 3, 1], [2, -1, 0]])),
    ("mixed", [Jet1(1.5, [0.5, -0.0]), 2.0, 3, Jet1(-0.0, [1.0, 2.0]),
               -0.0, Jet1(2.5, [-1.0, 0.25])],
     [Jet1(-2.0, [1.0, 0.0]), Jet1(0.5, [-0.0, 3.0]), 4.5,
      Jet1(1.0, [0.0, -0.0]), 7, Jet1(3.0, [2.0, -4.0])]),
    ("floats first", [2.0, 1, Jet1(1.0, [0.5])], [3, -0.0, Jet1(2.0, [1.5])]),
    ("one term", _random_jets(_RNG, 1, 3), _random_jets(_RNG, 1, 3)),
    # the largest kernel's length, and past it (as "rounding", of six)
    ("five flavoured", _flavoured_jets(_RNG, 5), _flavoured_jets(_RNG, 5)),
    ("seven flavoured", _flavoured_jets(_RNG, 7), _flavoured_jets(_RNG, 7)),
    ("five floats", _random_jets(_RNG, 5, 4), _random_jets(_RNG, 5, 4)),
    # every term and slot term -0.0: the value's sum from 0.0 reads +0.0,
    # each slot's sum -0.0
    *[(f"minus-zero terms {n}", [Jet1(-0.0, [-0.0, -1.0])] * n,
       [Jet1(0.0, [0.0, 2.0])] * n) for n in (3, 4, 5)],
    # a kernel's length with one factor a number: the loop runs it
    ("mixed four", _random_jets(_RNG, 3, 2) + [2.5],
     _random_jets(_RNG, 2, 2) + [-0.0] + _random_jets(_RNG, 1, 2)),
    ("mixed five", _random_jets(_RNG, 2, 2) + [3] + _random_jets(_RNG, 2, 2),
     _random_jets(_RNG, 4, 2) + [1.5]),
    ("empty", [], []),
    ("jet2 factors",
     [_jet2(1.5, [1.0, 0.0, 1.0, 0.0, 0.5, -0.0, 2.0]), 2.0,
      _jet2(-0.5, [0.0, 1.0, 0.0, 1.0, 0.0, 1.5, -1.0])],
     [_jet2(2.0, [0.5, 1.0, 0.5, 1.0, -0.0, 0.25, 1.0]),
      _jet2(3.0, [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), 4.0]),
]
IDS = [c[0] for c in CASES]


@pytest.mark.parametrize("label,xs,ys", CASES, ids=IDS)
def test_sum_prod_keeps_every_bit(label, xs, ys):
    assert _bits(sum_prod(xs, ys)) == _bits(reference_sum_prod(xs, ys))


@pytest.mark.parametrize("label,xs,ys", CASES, ids=IDS)
def test_signed_dot_keeps_every_bit(label, xs, ys):
    rng = random.Random(label)
    for signs in (None, (1.0,) * len(xs), (-1.0,) * len(xs),
                  tuple(rng.choice((1.0, -1.0)) for _ in xs),
                  tuple(rng.choice((1, -1, 2.5j)) for _ in xs)):
        assert _bits(_dot(xs, ys, signs)) == \
            _bits(reference_dot(xs, ys, signs)), signs


@pytest.mark.parametrize("label,xs,ys", CASES, ids=IDS)
def test_mat_mul_and_trace_prod_keep_every_bit(label, xs, ys):
    """Square matrices from the case's entries: the rows of ``a`` read xs
    rotated, the columns of ``b`` read ys rotated."""
    n = len(xs)
    if n == 0:
        return
    a = [xs[i:] + xs[:i] for i in range(n)]
    b = [[ys[(i + j) % n] for j in range(n)] for i in range(n)]
    for got, want in zip(mat_mul(a, b), reference_mat_mul(a, b),
                         strict=True):
        assert [_bits(x) for x in got] == [_bits(x) for x in want]
    assert _bits(trace_prod(a, b)) == \
        _bits(mat_trace(reference_mat_mul(a, b)))


def test_mat_mul_keeps_rectangular_shapes():
    rng = random.Random(5)
    a = [_random_jets(rng, 3, 2) for _ in range(2)]
    b = [_random_jets(rng, 4, 2) for _ in range(3)]
    got = mat_mul(a, b)
    assert [[_bits(x) for x in row] for row in got] == \
        [[_bits(x) for x in row] for row in reference_mat_mul(a, b)]
    assert (len(got), len(got[0])) == (2, 4)


@pytest.mark.parametrize("call", [
    lambda: sum_prod([1.0, 2.0], [3.0]),
    lambda: sum_prod([Jet1(1.0, [0.0])], []),
    lambda: _dot([1.0, 2.0], [3.0, 4.0], (1.0, -1.0, -1.0)),
    lambda: _dot([Jet1(1.0, [0.0])], [Jet1(1.0, [1.0]), 2.0], (1.0,)),
    lambda: mat_mul([[1.0, 2.0]], [[1.0], [2.0], [3.0]]),
], ids=["sum_prod", "sum_prod jets", "dot", "dot jets", "mat_mul"])
def test_operands_of_different_lengths_raise(call):
    with pytest.raises(ValueError):
        call()


@pytest.fixture
def jets_made(monkeypatch):
    """Every Jet1 built while the test runs."""
    made = []
    init = Jet1.__init__

    def counted(self, value, d):
        made.append(self)
        init(self, value, d)

    monkeypatch.setattr(Jet1, "__init__", counted)
    return made


def test_a_jet_term_builds_one_jet(jets_made):
    """A 4 x 4 Jet1 product builds one jet per entry (the per-term fold
    built 4, 64 in all; the product-then-sum loop 128); the trace of a
    product builds one per diagonal entry and one per term of their sum
    (the per-term fold built 20).  The signed dot folds each term: one jet
    per term."""
    rng = random.Random(2)
    a = [_random_jets(rng, 4, 3) for _ in range(4)]
    b = [_random_jets(rng, 4, 3) for _ in range(4)]
    jets_made.clear()
    mat_mul(a, b)
    assert len(jets_made) == 16
    jets_made.clear()
    trace_prod(a, b)
    assert len(jets_made) == 4 + 4
    jets_made.clear()
    _dot(a[0], b[0], (1.0, -1.0, -1.0, -1.0))
    assert len(jets_made) == 4


def test_seeded_pass_of_a_basis_check(jets_made):
    """One seeded pass of the AE n = 3 basis, as a check makes it: every
    member evaluated on the view seeded with the operators' flow rows.
    The per-term fold built 96 jets for it, the product-then-sum loops
    177."""
    spec = make_spec("AE", 3)
    fam = basis(spec)
    ops = [prolong2(v) for v in catalog(spec)]
    point = fam.space.sampler(0)(0)
    at = flow_positions(point.n_base, point.n_fields, fam.deps)
    view = operator_view(point, fam.deps,
                         [op.flow_table(point, at) for op in ops])
    jets_made.clear()
    for m in fam.members:
        m.fn(view)
    assert len(jets_made) == 54
