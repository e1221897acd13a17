"""Second total derivatives of the prolongation's coefficients, and the
sparse plan's off-diagonal terms.

``liealg._jets`` reads D_j D_i g of a coefficient with held slopes or a
held Hessian whose field-slot gradient entries and field Hessian entries
are zeros and whose x-block has no -0.0 part as the x-block, a table of
the point's number type (``liealg._tables``), served only where
``liealg._plan_kind`` serves the point; the all-+0.0 table of an affine
coefficient is the case of held slopes.  With one field it forms D_i g
and D_j D_i g as one comprehension per row.  Both must give the bits of
the total-derivative loops (``references.total_d`` and
``references.total_dd``), which rest on the signed-zero and promotion
rules of ``test_signed_zero_rule.py``.  A planned field's eta_ij and
eta_ji keep, per pair, only the terms whose D xi^k factor is not 0.
"""

import math
import random

import pytest

from invforge import liealg
from invforge.dual import value_grad_hess
from invforge.jetspace import COMPLEX, d1_coord, d2_coord
from invforge.liealg import catalog, make_sampler, make_spec, prolong2
from references import reference_flow, total_d, total_dd
from test_flow_identity import CONFIGS, _PLANNED, _served_kind, _with, \
    sample_points

_HELD_CONFIGS = [c for c in CONFIGS if not c[0].startswith("AP_inf")]


def _loop(grad, hess, point):
    n = point.n_base
    return [[total_dd(grad, hess, point, i, j) for j in range(n)]
            for i in range(n)]


def _tables(held, n):
    """``liealg._tables`` of held slopes."""
    return liealg._tables(held[0][n:], held[1], n)


def _jets(held, point):
    """``liealg._jets`` of a coefficient given by its held slopes alone, at
    depth 2: a fresh function, so no memo answers for it."""
    return liealg._jets(lambda xs, us: 0.0, point, 2, held,
                        _tables(held, point.n_base))


@pytest.mark.parametrize("key,build,positive", _HELD_CONFIGS,
                         ids=[k for k, _, _ in _HELD_CONFIGS])
def test_held_zero_tables_are_the_loops(key, build, positive):
    # every held coefficient the predicate admits, at the grid's points:
    # the table the point's number type serves is the loops' D_j D_i g,
    # from the held slopes or from a pass there
    spec = build()
    n = spec.n_base
    for field in catalog(spec):
        held, _, tables = liealg._plan(field)
        assert tables == tuple(h and _tables(h, n) for h in held)
        for fn, h, t in zip(field.xi + field.eta, held, tables):
            # without held slopes, the tables of a held Hessian
            if h is None and type(fn) is not liealg.EikonalCoefficient:
                kind = complex if spec.field_kind is COMPLEX else float
                t = (liealg._hessians(fn, n, spec.m, (float,) * n
                                      + (kind,) * spec.m) or (None, None))[1]
            for point in sample_points(spec, positive) if t else ():
                kind = liealg._plan_kind(point)
                assert kind is _served_kind(spec)
                if kind is None:
                    continue
                table = t.get(kind)
                assert table is not None, key
                slopes = h or value_grad_hess(
                    lambda a: fn(a[:n], a[n:]), (*point.x, *point.u))[1:]
                assert repr(table) == repr(_loop(*slopes, point)), key
                assert liealg._jets(fn, point, 2, h, h and t)[2] is table


@pytest.mark.parametrize("spec,labels", [
    (make_spec("AE1", 3, lam=0.6), ("D",)),
    (make_spec("AG_II", 3), ("G1", "G2", "G3"))], ids=["AE1", "AG_II"])
def test_the_dense_fields_the_tables_serve(spec, labels):
    # the dilation's xi = x_a and the complex pair's boosts' xi = (0, t,
    # ...) take the table; their eta read u, so they and their fields are
    # dense
    fields = [f for f in catalog(spec) if f.label in labels]
    assert len(fields) == len(labels)
    for f in fields:
        _, sparse, tables = liealg._plan(f)
        assert sparse is None
        assert [bool(t) for t in tables] == \
            [True] * f.n_base + [False] * f.n_fields


_N = 3
_ZERO_ROW = [0.0] * (_N + 1)


def _slopes(grad_u=0.0, hess=None):
    """Held slopes of a coefficient of (x1, x2, x3; u): gradient (1.5, -2.0,
    0.5; grad_u), Hessian ``hess`` or all +0.0."""
    return [1.5, -2.0, 0.5, grad_u], \
        hess or [list(_ZERO_ROW) for _ in range(_N + 1)]


def _negative(point):
    """``point`` with every du and ddu entry negative."""
    return point.copy_with(
        du=tuple(tuple(-abs(z) for z in row) for row in point.du),
        ddu=tuple(tuple(tuple(-abs(z) for z in row) for row in mat)
                  for mat in point.ddu))


def _minus_zero_hessian():
    hess = [list(_ZERO_ROW) for _ in range(_N + 1)]
    hess[0][0] = hess[_N][_N] = -0.0
    return hess


def _complex_zero_hessian():
    hess = [list(_ZERO_ROW) for _ in range(_N + 1)]
    hess[1][2] = hess[2][1] = 0j
    return hess


_POINT = make_sampler(_N, 1, seed=5)(0)
# (id, held slopes, point, what the loops give that a +0.0 float table
# would not): each must run the loops
_CONTROLS = [
    ("minus-zero-hessian", _slopes(hess=_minus_zero_hessian()),
     _negative(_POINT), lambda dd: math.copysign(1.0, dd[0][0]) < 0),
    ("complex-zero-at-a-float-point", _slopes(hess=_complex_zero_hessian()),
     _POINT, lambda dd: type(dd[1][2]) is complex),
    ("field-slot-gradient", _slopes(grad_u=0.25), _POINT,
     lambda dd: dd[0][1] != 0),
    ("du-at-2**500", _slopes(), _with(_POINT, [(d1_coord(1, 1), 2.0 ** 500)]),
     None),
    ("du-overflows", _slopes(), _with(_POINT, [(d1_coord(1, 1), 2.0 ** 600)]),
     lambda dd: math.isnan(dd[1][1])),
    ("inf", _slopes(), _with(_POINT, [(d2_coord(1, 0, 2), math.inf)]),
     lambda dd: math.isnan(dd[0][2])),
]


@pytest.mark.parametrize("held,point,shows", [c[1:] for c in _CONTROLS],
                         ids=[c[0] for c in _CONTROLS])
def test_where_the_loops_still_run(held, point, shows):
    tables = _tables(held, _N)
    served = tables and tables.get(liealg._plan_kind(point))
    assert not served
    dd = _jets(held, point)[2]
    assert repr(dd) == repr(_loop(*held, point))
    assert shows is None or shows(dd)


def test_the_plain_slopes_are_served():
    # the controls' own slopes with a +0.0 Hessian and a 0 field slot
    # take the table at the sampled point, and at a complex one
    held = _slopes()
    tables = _tables(held, _N)
    assert set(tables) == {float, complex}
    assert liealg._jets(lambda xs, us: 0.0, _POINT, 2, held, tables)[2] \
        is tables[float]
    assert repr(tables[float]) == repr(_loop(*held, _POINT))
    spec = make_spec("AG_II", 3)
    point = sample_points(spec, False)[0]
    held = [1.5, -2.0, 0.5, 0.25, 0.0, -0.0], \
        [[0.0] * 6 for _ in range(6)]
    tables = _tables(held, 4)
    kind = liealg._plan_kind(point)
    assert (kind is complex) == liealg._PROMOTES
    if kind:
        assert liealg._jets(lambda xs, us: 0.0, point, 2, held, tables)[2] \
            is tables[kind]
        assert repr(tables[kind]) == repr(_loop(*held, point))


@pytest.mark.parametrize("kind", (float, complex))
def test_an_x_block_with_zero_field_entries_is_the_loop(kind):
    # the held-Hessian case of the table rule: an x-block of numbers and
    # +0.0, field-slot gradient and field Hessian entries zeros of either
    # sign and type, at points with -0.0 du and ddu entries; a -0.0 in the
    # x-block, or a field entry that is not a zero, takes no table
    rng = random.Random(f"x-block {kind.__name__}")
    block = [0.0, 2.0, -0.75, complex(0.0, 1.5), complex(-2.0, 0.0)]
    zeros = [0.0, -0.0, 0j, complex(-0.0, -0.0)]
    for _ in range(200):
        point = _signed_point(rng, kind)
        if liealg._plan_kind(point) is None:
            continue
        hess = [[rng.choice(block if max(i, j) < _N else zeros)
                 for j in range(_N + 1)] for i in range(_N + 1)]
        grad = [rng.uniform(-2, 2) for _ in range(_N)] + [rng.choice(zeros)]
        tables = liealg._tables(grad[_N:], hess, _N)
        assert tables is not None
        table = tables.get(liealg._plan_kind(point))
        if table is not None:
            assert repr(table) == repr(_loop(grad, hess, point))
        assert liealg._tables([1e-300], hess, _N) is None
        hess[rng.randrange(_N)][rng.randrange(_N)] = -0.0
        assert liealg._tables(grad[_N:], hess, _N) is None


def _signed_point(rng, kind, n=_N, m=1):
    """A point on n base coordinates and m fields whose du and ddu entries
    are drawn from signed zeros and small numbers, of the number type
    ``kind``."""
    point = make_sampler(n, m, seed=rng.randrange(100))(0)

    def entry():
        parts = [rng.choice([0.0, -0.0, rng.uniform(-2, 2)]) for _ in "ri"]
        return complex(*parts) if kind is complex else parts[0]
    ddu = []
    for _ in range(m):
        mat = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = entry()
        ddu.append(tuple(map(tuple, mat)))
    return point.copy_with(
        du=tuple(tuple(entry() for _ in range(n)) for _ in range(m)),
        ddu=tuple(ddu))


@pytest.mark.parametrize("kind", (float, complex))
def test_the_one_field_comprehension_is_the_loop(kind):
    # random slopes of signed zeros, floats and complexes, at points with
    # -0.0 entries: D_i g and D_j D_i g by repr
    rng = random.Random(f"comprehension {kind.__name__}")
    values = [0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1.25,
              -0.75, complex(0.5, -1.5)]
    for _ in range(300):
        point = _signed_point(rng, kind)
        grad = [rng.choice(values) for _ in range(_N + 1)]
        hess = [[rng.choice(values) for _ in range(_N + 1)]
                for _ in range(_N + 1)]
        jets = liealg._jets(lambda xs, us: 0.0, point, 2, (grad, hess))
        assert repr(jets[1]) == repr([total_d(grad, point, i)
                                      for i in range(_N)])
        assert repr(jets[2]) == repr(_loop(grad, hess, point))


@pytest.mark.parametrize("name,kw", [("AC", {"lam": 0.6}),
                                     ("AP_inf", {"extended": True})])
def test_unheld_coefficients_keep_the_loops_bits(name, kw):
    # AC's special conformal generators and AP_inf's closures make a pass
    # per point: at points with -0.0 entries
    spec = make_spec(name, 3, **kw)
    n = spec.n_base
    rng = random.Random(name)
    unheld = [fn for f in catalog(spec)
              for fn, h in zip(f.xi + f.eta, (f.plan or liealg._plan(f))[0])
              if h is None]
    assert unheld
    for _ in range(5):
        point = _signed_point(rng, float, n)
        args = (*point.x, *point.u)
        for fn in unheld:
            grad, hess = value_grad_hess(lambda a: fn(a[:n], a[n:]), args)[1:]
            jets = liealg._jets(fn, point, 2)
            assert repr(jets[1]) == repr([total_d(grad, point, i)
                                          for i in range(n)])
            assert repr(jets[2]) == repr(_loop(grad, hess, point))


@pytest.mark.parametrize("spec,planned", _PLANNED,
                         ids=["AO", "AE", "AE-n5", "AP", "AG_I-log", "AG_II",
                              "AG_II-log"])
def test_a_planned_pair_keeps_only_its_nonzero_terms(spec, planned):
    # per pair i < j: eta_ij's terms are u_jk D_i xi^k then u_ik D_j xi^k
    # per k, eta_ji's the other way round, each kept where its D xi^k is
    # not 0
    for field in catalog(spec):
        prolong2(field).flow_table(sample_points(spec, False)[0])
        if not field.plan[1]:
            continue
        ks, pairs, by_kind = field.plan[1]
        cols = by_kind[complex][0]
        n = field.n_base
        for i in range(n):
            assert len(pairs[i]) == n - 1 - i
            for j, (ij, ji) in enumerate(pairs[i], i + 1):
                want = {(j, i, k) for k in ks[i]} | {(i, j, k) for k in ks[j]}
                assert set(ij) == set(ji) == want
                assert all(cols[q][k] != 0 for _, q, k in ij)
                assert list(ij) == sorted(ij, key=lambda t: (t[2], t[0] != j))
                assert list(ji) == sorted(ji, key=lambda t: (t[2], t[0] != i))


def test_a_rotation_forms_half_its_off_diagonal_products():
    # J12 at n = 3: the union of i's and j's k gave 8 products per field,
    # 4 of them zeros; eta_ij and eta_ji take the same terms
    fields = {f.label: f for f in catalog(make_spec("AE", 3))}
    plan = liealg._plan(fields["J12"])[1]
    terms = [t for row in plan[1] for t in row]
    assert sum(len(ij) for ij, _ in terms) == 4
    assert all(ji == ij for ij, ji in terms)


def test_pairs_whose_term_lists_differ_keep_the_reference_bits():
    # xi^1 = x1 + x2 has D_1 xi^1 and D_2 xi^1 both 1, so eta_12 takes
    # u_21 D_1 xi^1 then u_11 D_2 xi^1, and eta_21 the other order
    spec = make_spec("AE", 3)
    fields = liealg.bind_generators(spec, [
        ("Zmix", ["x1 + x2", "x2 - 2.0 * x3", "3.0 * x1"], ["0.5 * x1"])])
    point = sample_points(spec, False)[0]
    prolong2(fields[0]).flow_table(point)
    pairs = fields[0].plan[1][1]
    assert any(ji != ij for row in pairs for ij, ji in row)
    rng = random.Random("pairs")
    for p in [point] + [_signed_point(rng, float) for _ in range(20)]:
        for f in fields:
            op = prolong2(f)
            assert repr(op.flow_table(p)) == repr(reference_flow(op, p))

