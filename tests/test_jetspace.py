import pytest

from invforge.jetspace import (
    COMPLEX,
    REAL,
    JetCoordinateId,
    JetPoint,
    base_coord,
    d1_coord,
    d2_coord,
    enumerate_coords,
    field_coord,
    sample_generic,
    to_log_jets,
)
from references import coord_count, from_log_jets


@pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (5, 3), (3, 2)])
def test_coordinate_count(n, m):
    coords = enumerate_coords(n, m)
    assert len(coords) == coord_count(n, m)
    assert len(coords) == n + m + m * n + m * n * (n + 1) // 2
    assert len(set(coords)) == len(coords)


def test_count_example():
    assert coord_count(3, 1) == 13


def test_symmetric_second_derivative_storage():
    p = sample_generic(3, 1, seed=0)
    p = p.replace(d2_coord(1, 1, 2), 5.0)
    assert p.value(d2_coord(1, 2, 1)) == 5.0
    assert p.value(d2_coord(1, 1, 2)) == 5.0


def test_symmetric_access_everywhere():
    p = sample_generic(4, 2, seed=3)
    for r in (1, 2):
        for i in range(4):
            for j in range(4):
                assert p.value(d2_coord(r, i, j)) == p.value(d2_coord(r, j, i))


def test_field_read():
    p = sample_generic(3, 1, seed=0).replace(field_coord(1), 7.0)
    assert p.value(field_coord(1)) == 7.0


def test_out_of_range_errors():
    p = sample_generic(3, 1, seed=0)
    with pytest.raises(ValueError):
        p.value(d1_coord(2, 2))
    with pytest.raises(ValueError):
        p.value(base_coord(3))
    with pytest.raises(ValueError):
        p.value(d2_coord(1, 0, 3))


def test_sampling_determinism():
    a = sample_generic(3, 1, seed=1)
    b = sample_generic(3, 1, seed=1)
    assert a == b
    c = sample_generic(3, 1, seed=2)
    assert any(a.value(cid) != c.value(cid) for cid in enumerate_coords(3, 1))


def test_sampling_magnitudes():
    for seed in range(10):
        p = sample_generic(3, 2, seed=seed)
        for cid in enumerate_coords(3, 2):
            assert 0.5 <= abs(p.value(cid)) <= 2.0 * 2**0.5


def test_positive_fields_flag():
    for seed in range(10):
        p = sample_generic(3, 2, seed=seed, positive_fields=True)
        assert all(0.5 <= u <= 2.0 for u in p.u)


def test_complex_sampling_conjugate_slots():
    p = sample_generic(3, 2, COMPLEX, seed=4)
    assert p.u[1] == p.u[0].conjugate()
    for i in range(3):
        assert p.du[1][i] == p.du[0][i].conjugate()
    assert abs(p.u[0]) >= 0.5
    assert p.conjugate_index(1) == 2
    assert p.conjugate_index(2) == 1


def test_real_conjugate_is_identity():
    p = sample_generic(3, 2, REAL, seed=4)
    assert p.conjugate_index(1) == 1


def test_diagonal_hessian_nondegeneracy():
    # generic points must keep the diagonal second derivatives apart
    for seed in range(100):
        p = sample_generic(3, 1, seed=seed)
        diag = [p.value(d2_coord(1, i, i)) for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(diag[i] - diag[j]) > 1e-6


def test_log_jet_round_trip():
    p = sample_generic(3, 1, seed=9, positive_fields=True)
    q = from_log_jets(to_log_jets(p))
    for cid in enumerate_coords(3, 1):
        assert abs(p.value(cid) - q.value(cid)) < 1e-12


def test_log_jet_chain_rule():
    import math

    p = sample_generic(2, 1, seed=5, positive_fields=True)
    lp = to_log_jets(p)
    u = p.u[0]
    assert abs(lp.u[0] - math.log(u)) < 1e-14
    assert abs(lp.du[0][0] - p.du[0][0] / u) < 1e-14
    got = lp.value(d2_coord(1, 0, 1))
    want = p.value(d2_coord(1, 0, 1)) / u - p.du[0][0] * p.du[0][1] / u**2
    assert abs(got - want) < 1e-14


def _with_ddu(p, ddu):
    return JetPoint(p.n_base, p.n_fields, p.field_kind, p.x, p.u, p.du, ddu)


def test_second_derivatives_are_a_full_symmetric_matrix():
    p = sample_generic(3, 1, seed=0)
    mat = p.ddu[0]
    assert len(mat) == 3 and all(len(row) == 3 for row in mat)
    assert _with_ddu(p, (mat,)) == p
    ragged = (mat[0], mat[1], mat[2][:2])
    asymmetric = (mat[0], (mat[1][0] + 1.0,) + mat[1][1:], mat[2])
    packed = tuple(mat[i][j] for i in range(3) for j in range(i, 3))
    for bad in ((ragged,), (asymmetric,), (packed,), (mat, mat), ()):
        with pytest.raises(ValueError):
            _with_ddu(p, bad)


@pytest.mark.parametrize("kind,plus,minus", [
    (REAL, 0.0, -0.0), (REAL, 0, -0.0),
    (COMPLEX, complex(0.0, 1.5), complex(-0.0, 1.5)),
    (COMPLEX, complex(2.0, 0.0), complex(2.0, -0.0)),
    (REAL, 2.0, 2 + 0j), (REAL, 2, 2.0)],
    ids=["float", "int", "complex-real-part", "complex-imaginary-part",
         "float-complex", "int-float"])
def test_a_pair_whose_zeros_differ_in_sign_is_refused(kind, plus, minus):
    # equal entries, but u_x1x2 and u_x2x1 would read apart
    for a, b in ((plus, minus), (minus, plus)):
        with pytest.raises(ValueError, match="symmetric"):
            JetPoint(2, 1, kind, (1.0, 2.0), (1.0,), ((0.5, 0.25),),
                     (((1.0, a), (b, 3.0)),))
    for a in (plus, minus):
        p = JetPoint(2, 1, kind, (1.0, 2.0), (1.0,), ((0.5, 0.25),),
                     (((1.0, a), (a, 3.0)),))
        assert repr(p.value(d2_coord(1, 0, 1))) == repr(a)
    # a pair of equal zeros of one sign, in two objects, is accepted
    JetPoint(2, 1, kind, (1.0, 2.0), (1.0,), ((0.5, 0.25),),
             (((1.0, -0.0), (float("-0"), 3.0)),))


def test_replace_writes_nan_into_both_slots_of_a_pair():
    # Newton's update may write a NaN; the point must still be accepted
    nan = float("nan")
    p = sample_generic(3, 2, seed=1).replace(d2_coord(2, 2, 0), nan)
    assert p.value(d2_coord(2, 0, 2)) is nan
    assert p.value(d2_coord(2, 2, 0)) is nan
    q = p.replace(d2_coord(1, 1, 1), 0.5)
    assert q.value(d2_coord(2, 0, 2)) is nan
    assert _with_ddu(p, p.ddu).ddu is p.ddu


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 1)])
def test_log_jets_are_symmetric_and_follow_the_scalar_formula(n, m):
    import math

    p = sample_generic(n, m, seed=11, positive_fields=True)
    lp, ep = to_log_jets(p), from_log_jets(p)
    for r in range(1, m + 1):
        u, du = p.u[r - 1], p.du[r - 1]
        eu = math.exp(u)
        for i in range(n):
            for j in range(i, n):
                uij = p.value(d2_coord(r, i, j))
                want_log = uij / u - du[i] * du[j] / (u * u)
                want_exp = eu * (uij + du[i] * du[j])
                for a, b in ((i, j), (j, i)):
                    assert repr(lp.ddu[r - 1][a][b]) == repr(want_log)
                    assert repr(ep.ddu[r - 1][a][b]) == repr(want_exp)


def _odd_point(kind):
    """A (3, 2) point of ``kind`` whose entries include -0.0 and NaN."""
    import math

    odd = (-0.0, math.nan) if kind is REAL else (
        complex(-0.0, math.nan), complex(math.nan, -0.0))
    p = sample_generic(3, 2, kind, seed=5)
    ddu = (p.ddu[0], tuple(tuple(odd[1] if {i, j} == {0, 2} else v
                                 for j, v in enumerate(row))
                           for i, row in enumerate(p.ddu[1])))
    return JetPoint(3, 2, kind, (odd[0],) + p.x[1:], (p.u[0], odd[1]),
                    (p.du[0][:2] + (odd[0],), p.du[1]), ddu)


def _slots(p):
    """Every stored entry of a point by its place, both triangles of each
    U_r included."""
    out = {("x", i): v for i, v in enumerate(p.x)}
    out.update({("u", r): v for r, v in enumerate(p.u)})
    out.update({("du", r, i): v for r, row in enumerate(p.du)
                for i, v in enumerate(row)})
    out.update({("ddu", r, i, j): v for r, mat in enumerate(p.ddu)
                for i, row in enumerate(mat) for j, v in enumerate(row)})
    return out


@pytest.mark.parametrize("kind", [REAL, COMPLEX])
@pytest.mark.parametrize("new", [2.5, -0.0, float("nan")])
def test_replace_sets_one_slot_and_its_partner_and_keeps_the_rest(kind, new):
    p = _odd_point(kind)
    before = _slots(p)
    for cid in p.coords():
        r, i, j = cid.r - 1, cid.i, cid.j
        changed = {"base": {("x", i)}, "field": {("u", r)},
                   "d1": {("du", r, i)},
                   "d2": {("ddu", r, i, j), ("ddu", r, j, i)}}[cid.kind]
        q = p.replace(cid, new)
        assert (q.n_base, q.n_fields, q.field_kind) == (3, 2, kind)
        assert repr(q.value(cid)) == repr(new)
        after = _slots(q)
        assert after.keys() == before.keys()
        for place, v in after.items():
            assert repr(v) == repr(new if place in changed else before[place])


@pytest.mark.parametrize("cid", [base_coord(3), field_coord(0),
                                 field_coord(3), d1_coord(1, 3),
                                 d1_coord(2, -1), d2_coord(2, 0, 3)])
def test_replace_refuses_an_id_out_of_range(cid):
    with pytest.raises(ValueError, match="out of range"):
        _odd_point(REAL).replace(cid, 1.0)
