import math
import random

import pytest

from conftest import (
    brute_mixed_trace,
    brute_power_form,
    brute_power_trace,
    finite_difference,
    random_symmetric,
)
from invforge.dual import Dual, EvaluationError, Jet1, Jet2, seed_jets, \
    value_of
from invforge.exprlang import bind
from invforge.invcat import (
    TENSORS,
    JetSpace,
    ScalarJetFunction,
    _power,
    basis,
    covariant_tensor,
    determinant,
    equation_function,
    gradient_view,
    mat_inverse,
    mat_mul,
    mat_trace,
    mixed_power_trace,
    operator_view,
    power_form,
    power_trace,
    seeded_view,
    solve_linear,
    trace_prod,
    two_matrix_trace_family,
)
from invforge.jetspace import (
    COMPLEX,
    REAL,
    d1_coord,
    d2_coord,
    enumerate_coords,
    euclidean,
    minkowski,
    sample_generic,
)
from invforge.liealg import make_spec, matrix_rank
from invforge.verify import family_jacobian
from references import coord_count, covariant_tensor_components, \
    equation_residual


def test_power_trace_diag_example():
    mat = [[1.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]]
    assert power_trace(mat, euclidean(3), 2) == 14


def test_power_trace_identity():
    eye = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    for k in range(1, 5):
        assert power_trace(eye, euclidean(3), k) == 3


@pytest.mark.parametrize("metric", [euclidean(3), minkowski(3)])
def test_power_trace_matches_index_sum(metric, rng):
    for _ in range(5):
        mat = random_symmetric(3, rng)
        for k in (1, 2, 3, 4):
            got = power_trace(mat, metric, k)
            want = brute_power_trace(mat, metric.signs, k)
            assert abs(got - want) < 1e-10 * (1.0 + abs(want))


def test_power_form_k1():
    assert power_form([1.0, 2.0], [[0, 0], [0, 0]], euclidean(2), 1) == 5


def test_power_form_k2_picks_matrix_entry():
    mat = [[4.0, 0, 0], [0, 1.0, 0], [0, 0, 2.0]]
    assert power_form([1.0, 0, 0], mat, euclidean(3), 2) == 4


@pytest.mark.parametrize("metric", [euclidean(3), minkowski(3)])
def test_power_form_matches_index_sum(metric, rng):
    for _ in range(5):
        mat = random_symmetric(3, rng)
        vec = [rng.uniform(-2, 2) for _ in range(3)]
        for k in (1, 2, 3, 4):
            got = power_form(vec, mat, metric, k)
            want = brute_power_form(vec, mat, metric.signs, k)
            assert abs(got - want) < 1e-10 * (1.0 + abs(want))


def test_mixed_trace_degenerate_cases(rng):
    u = random_symmetric(3, rng)
    v = random_symmetric(3, rng)
    met = euclidean(3)
    for k in (1, 2, 3):
        assert mixed_power_trace(u, v, met, k, k) == power_trace(u, met, k)
        assert mixed_power_trace(u, v, met, 0, k) == power_trace(v, met, k)


def test_mixed_trace_12_is_entry_sum(rng):
    u = random_symmetric(3, rng)
    v = random_symmetric(3, rng)
    want = sum(u[a][b] * v[b][a] for a in range(3) for b in range(3))
    assert abs(mixed_power_trace(u, v, euclidean(3), 1, 2) - want) < 1e-12


@pytest.mark.parametrize("metric", [euclidean(3), minkowski(3)])
def test_mixed_trace_matches_index_sum(metric, rng):
    u = random_symmetric(3, rng)
    v = random_symmetric(3, rng)
    for k in (1, 2, 3):
        for j in range(k + 1):
            got = mixed_power_trace(u, v, metric, j, k)
            want = brute_mixed_trace(u, v, metric.signs, j, k)
            assert abs(got - want) < 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("metric", [euclidean, minkowski])
def test_public_traces_are_the_language_kernels(metric, n):
    # one kernel per trace: the public functions and the language's S and
    # Sjk agree to the last bit
    met = metric(n)
    points = [sample_generic(n, 2, seed=seed) for seed in range(10)]
    for k in range(1, n + 1):
        pairs = [(f"S({k})", lambda u, v: power_trace(u, met, k))]
        pairs += [(f"Sjk({j}, {k}; 1, 2)",
                   lambda u, v, j=j: mixed_power_trace(u, v, met, j, k))
                  for j in range(k + 1)]
        for text, public in pairs:
            fn = bind(text, n, 2, metric=met)
            for point in points:
                assert repr(public(*point.ddu)) == repr(fn.eval(point)), text


def test_mixed_trace_cyclic_symmetry(rng):
    met = minkowski(4)
    for _ in range(20):
        u = random_symmetric(4, rng)
        v = random_symmetric(4, rng)
        k = rng.randint(1, 4)
        j = rng.randint(0, k)
        a = mixed_power_trace(u, v, met, j, k)
        b = mixed_power_trace(v, u, met, k - j, k)
        assert abs(a - b) < 1e-12 * (1.0 + abs(a))


def test_trace_prod_is_the_trace_of_the_product_bit_for_bit(rng):
    # real, complex and jet entries, signed zeros among them; a is n x q
    draws = (lambda: rng.uniform(-2, 2),
             lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
             lambda: Jet1(rng.uniform(-2, 2), [rng.uniform(-2, 2), -0.0]))
    for draw in draws:
        for n, q in ((1, 1), (2, 3), (3, 2), (4, 4)):
            a = [[rng.choice((draw(), -0.0)) for _ in range(q)]
                 for _ in range(n)]
            b = [[draw() for _ in range(n)] for _ in range(q)]
            assert repr(trace_prod(a, b)) == repr(mat_trace(mat_mul(a, b)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_power_trace_satisfies_characteristic_recursion(n, rng):
    # S_{n+1} follows from S_1..S_n through the characteristic polynomial
    met = euclidean(n)
    for _ in range(5):
        mat = random_symmetric(n, rng)
        p = [power_trace(mat, met, k) for k in range(1, n + 2)]
        e = [1.0]
        for k in range(1, n + 1):
            acc = 0.0
            for i in range(1, k + 1):
                acc += (-1) ** (i - 1) * e[k - i] * p[i - 1]
            e.append(acc / k)
        want = sum((-1) ** (i - 1) * e[i] * p[n - i] for i in range(1, n + 1))
        assert abs(p[n] - want) < 1e-8 * (1.0 + abs(p[n]))


def test_theta_reduces_at_unit_weight():
    tb = covariant_tensor("theta", 3, lam=1.0)
    p = sample_generic(3, 1, seed=4, positive_fields=True)
    got = tb.build(p)
    grad = p.du[0]
    gg = sum(g * g for g in grad)
    for i in range(3):
        for j in range(3):
            want = p.value(d2_coord(1, i, j))
            if i == j:
                want -= gg / (2.0 * p.u[0])
            assert abs(got[i][j] - want) < 1e-12


def test_minkowski_w_trace_identity():
    # metric trace of the catalog tensor equals the quasilinear combination
    tb = covariant_tensor("w_minkowski", 3)
    met = minkowski(4)
    n = 3
    for seed in range(20):
        p = sample_generic(4, 1, seed=seed)
        w = tb.build(p)
        tr = sum(met.sign(i) * w[i][i] for i in range(4))
        du = p.du[0]
        sq = sum(met.sign(i) * du[i] ** 2 for i in range(4))
        lap = sum(met.sign(i) * p.value(d2_coord(1, i, i)) for i in range(4))
        form = sum(met.sign(i) * met.sign(j) * du[i] * du[j]
                   * p.value(d2_coord(1, i, j))
                   for i in range(4) for j in range(4))
        want = sq * lap / (1.0 - n) - form
        assert abs(tr - want) < 1e-12 * (1.0 + abs(want))


def test_implicit_theta_diagonal_solve():
    p = sample_generic(4, 1, seed=1)
    # zero the off-diagonal spatial Hessian entries
    for a in range(1, 4):
        for b in range(a + 1, 4):
            p = p.replace(d2_coord(1, a, b), 0.0)
    theta = covariant_tensor("implicit_theta", 3).build(p)
    for ai, a in enumerate(range(1, 4)):
        want = p.value(d2_coord(1, a, 0)) / p.value(d2_coord(1, a, a))
        assert abs(theta[ai] - want) < 1e-12


def test_implicit_theta_satisfies_linear_system():
    tb = covariant_tensor("implicit_theta", 3)
    for seed in range(5):
        p = sample_generic(4, 1, seed=seed)
        theta = tb.build(p)
        for b in range(1, 4):
            acc = sum(p.value(d2_coord(1, a, b)) * theta[a - 1]
                      for a in range(1, 4))
            assert abs(acc - p.value(d2_coord(1, b, 0))) < 1e-10


def test_implicit_theta_degenerate_hessian():
    p = sample_generic(4, 1, seed=1)
    for a in range(1, 4):
        for b in range(a, 4):
            p = p.replace(d2_coord(1, a, b), 0.0)
    with pytest.raises(EvaluationError, match="degenerate"):
        covariant_tensor("implicit_theta", 3).build(p)


def test_unknown_tensor_name():
    with pytest.raises(ValueError):
        covariant_tensor("not-a-tensor", 3)


@pytest.mark.parametrize("name", TENSORS)
def test_every_listed_tensor_builds(name):
    tensor = covariant_tensor(name, 3)
    out = tensor.build(tensor.space.sampler(0)(0))
    assert len(out) == tensor.size
    if tensor.kind == "matrix":
        assert all(len(row) == tensor.size for row in out)


# basis catalog --------------------------------------------------------------


def test_euclid_scalar_count():
    fam = basis(make_spec("AE", 3))
    assert fam.expected_count == 7
    assert len(fam.members) == 7


def test_euclid_two_field_count():
    fam = basis(make_spec("AE", 3, m=2))
    assert fam.expected_count == 17


def test_poincare_two_field_count():
    fam = basis(make_spec("AP", 3, m=2))
    assert fam.expected_count == 24


def test_conformal_scalar_count():
    assert len(basis(make_spec("AC", 3, lam=1.0)).members) == 3
    assert len(basis(make_spec("AC", 3, lam=0.0)).members) == 3


def test_extended_euclid_counts():
    assert len(basis(make_spec("AE1", 3, lam=1.0)).members) == 6
    assert len(basis(make_spec("AE1", 3, lam=0.0)).members) == 6


def test_extended_poincare_branch_counts():
    assert len(basis(make_spec("APtilde", 3, m=2, lam=0.0)).members) == 23
    assert len(basis(make_spec("APtilde", 3, m=2, lam=1.0)).members) == 23


def test_galilei_counts():
    assert len(basis(make_spec("AG_I", 3, rep="log")).members) == 8
    assert len(basis(make_spec("AG1_I", 3, rep="log")).members) == 7
    assert len(basis(make_spec("AG2_I", 3, rep="log")).members) == 6
    assert len(basis(make_spec("AG_I", 3, mu=0.0, rep="log")).members) == 8
    assert len(basis(make_spec("AG_II", 3, rep="log")).members) == 23
    assert len(basis(make_spec("AG1_II", 3, lam=0.5, rep="log")).members) == 22
    assert len(basis(make_spec("AG2_II", 3, rep="log")).members) == 22


def test_galilei_basis_requires_log_rep():
    with pytest.raises(ValueError, match="log"):
        basis(make_spec("AG_I", 3, rep="u"))


def test_massless_complex_needs_projective_family():
    with pytest.raises(ValueError):
        basis(make_spec("AG_II", 3, mass=0.0, rep="log"))


def test_rotation_count():
    fam = basis(make_spec("AO", 3))
    assert len(fam.members) == 10  # u, three traces, three forms, three x-forms


def test_two_matrix_trace_family_count():
    fam = two_matrix_trace_family(3)
    assert len(fam.members) == 9


def test_family_gradients_match_finite_differences():
    cases = [
        basis(make_spec("AE", 3)),
        basis(make_spec("AC", 3, lam=1.0)),
        basis(make_spec("AG_I", 3, rep="log")),
    ]
    for fam in cases:
        point = fam.space.sampler(6)(0)
        for member in fam.members[:4]:
            for cid in member.deps[:6]:
                fd = finite_difference(member, point, cid)
                grad = member.grad(point, (cid,))[0]
                assert abs(grad - fd) <= 1e-6 * (1.0 + abs(fd))


def test_degenerate_point_rank_drop():
    # unit Hessian collapses the Jacobian of the scalar euclid family
    fam = basis(make_spec("AE", 3))
    point = sample_generic(3, 1, seed=2)
    for i in range(3):
        for j in range(i, 3):
            point = point.replace(d2_coord(1, i, j), 1.0 if i == j else 0.0)
    rows = family_jacobian(list(fam.members), point, fam.deps)
    rank, _ = matrix_rank(rows)
    assert rank < 2 * 3


# equation residuals ----------------------------------------------------------


def test_born_infeld_zero_hessian_solution():
    p = sample_generic(4, 1, seed=3)
    for i in range(4):
        for j in range(i, 4):
            p = p.replace(d2_coord(1, i, j), 0.0)
    assert equation_residual("born-infeld", p) == 0.0


def test_eikonal_null_gradient():
    p = sample_generic(4, 1, seed=3)
    for i, val in enumerate((1.0, 1.0, 0.0, 0.0)):
        p = p.replace(d1_coord(1, i), val)
    assert equation_residual("eikonal", p) == 0.0


def test_heat_on_manifold_construction():
    mu = 1.3
    p = sample_generic(4, 1, seed=5)
    lap = sum(p.value(d2_coord(1, a, a)) for a in range(1, 4))
    p = p.replace(d1_coord(1, 0), -lap / (2.0 * mu))
    assert abs(equation_residual("heat", p, mu=mu)) < 1e-14


def test_schrodinger_residual_is_complex():
    p = sample_generic(4, 2, COMPLEX, seed=5)
    val = equation_residual("schrodinger", p, mass=1.0)
    assert isinstance(val, complex)


def test_unknown_equation():
    with pytest.raises(ValueError):
        equation_function("not-an-equation", 3)


def test_galilei_tensor_builders_shape():
    p = sample_generic(4, 1, seed=6)
    vec = covariant_tensor("galilei_theta", 3, mu=1.0).build(p)
    assert len(vec) == 3
    mat = covariant_tensor("galilei_theta2", 3, mu=1.0).build(p)
    assert len(mat) == 3 and all(len(row) == 3 for row in mat)
    for i in range(3):
        for j in range(3):
            assert abs(mat[i][j] - mat[j][i]) < 1e-14
    h = covariant_tensor("galilei_h", 3, mu=1.0).build(p)
    assert len(h) == 3
    hh = covariant_tensor("galilei_hhat_mu0", 3).build(p)
    assert len(hh) == 3


def test_symmetric_tensor_outputs():
    p = sample_generic(4, 1, seed=7, positive_fields=True)
    for name in ("theta_minkowski", "w_minkowski", "eikonal_theta"):
        mat = covariant_tensor(name, 3, lam=1.0).build(p)
        for i in range(4):
            for j in range(4):
                assert abs(mat[i][j] - mat[j][i]) < 1e-12


def test_every_family_member_gradient_matches_finite_differences():
    # full-family sweep at a generic point, a representative family per
    # geometry
    cases = [
        basis(make_spec("AE", 3, m=2)),
        basis(make_spec("AC", 3, lam=2.0)),
        basis(make_spec("AP", 3, m=2)),
        basis(make_spec("AG2_I", 3, rep="log")),
    ]
    for fam in cases:
        for s in range(2):
            point = fam.space.sampler(31)(s)
            for member in fam.members:
                for cid in member.deps[::4]:
                    fd = finite_difference(member, point, cid)
                    grad = member.grad(point, (cid,))[0]
                    assert abs(grad - fd) <= 1e-6 * (1.0 + abs(fd)), (
                        fam.label, member.label, str(cid))


def test_rotation_dilation_family_invariance():
    from invforge.invcat import rotation_dilation_family
    from invforge.liealg import catalog, prolong2
    from invforge.verify import check_absolute

    for lam in (1.0, 0.0):
        fam = rotation_dilation_family(3, 1, lam)
        assert len(fam.members) == 9
        ops = [prolong2(f) for f in catalog(make_spec("AE1", 3, lam=lam))
               if not f.label.startswith("P")]
        rep = check_absolute(ops, fam, n_samples=5, seed=2)
        assert rep.verdict == "PASS"


def test_covariant_tensor_components_convenience():
    p = sample_generic(3, 1, seed=3, positive_fields=True)
    mat = covariant_tensor_components("theta", p, lam=1.0)
    assert len(mat) == 3 and len(mat[0]) == 3
    p4 = sample_generic(4, 1, seed=3)
    vec = covariant_tensor_components("implicit_theta", p4)
    assert len(vec) == 3


# --------------------------------------------------------------------------
# jet views: every read is the point's own slot


def _slot_reads(view, point):
    """(coordinate, read) for every jet slot; second derivatives in both
    index orders."""
    for c in enumerate_coords(point.n_base, point.n_fields):
        if c.kind == "base":
            yield c, view.x(c.i)
        elif c.kind == "field":
            yield c, view.u(c.r)
        elif c.kind == "d1":
            yield c, view.du(c.r, c.i)
        else:
            yield c, view.ddu(c.r, c.i, c.j)
            yield c, view.ddu(c.r, c.j, c.i)


_VIEW_POINTS = ((3, 1, REAL), (4, 2, REAL), (4, 2, COMPLEX))


@pytest.mark.parametrize("n,m,kind", _VIEW_POINTS)
def test_plain_view_reads_every_slot(n, m, kind):
    point = sample_generic(n, m, kind, seed=6)
    seen = []

    def probe(view):
        seen.extend(_slot_reads(view, point))
        return 0.0

    ScalarJetFunction("probe", probe, (), JetSpace(n, m, kind)).eval(point)
    assert len(seen) == coord_count(n, m) + m * n * (n + 1) // 2
    for c, read in seen:
        assert not isinstance(read, (Dual, Jet1))
        assert repr(read) == repr(point.value(c)), str(c)


@pytest.mark.parametrize("n,m,kind", _VIEW_POINTS)
def test_seeded_view_differentiates_its_coordinate_alone(n, m, kind):
    point = sample_generic(n, m, kind, seed=7)
    for seed_c in enumerate_coords(n, m):
        for c, read in _slot_reads(seeded_view(point, seed_c), point):
            assert repr(read.value) == repr(point.value(c)), str(c)
            assert read.deriv == (1.0 if c == seed_c else 0.0), \
                (str(seed_c), str(c))


@pytest.mark.parametrize("n,m,kind", _VIEW_POINTS)
def test_gradient_view_seeds_sit_only_at_their_positions(n, m, kind):
    point = sample_generic(n, m, kind, seed=8)
    coords = enumerate_coords(n, m)
    # every third coordinate, in reverse order, one of them twice
    seeded = coords[::-3] + coords[-1:]
    k = len(seeded)
    zeros = []
    for c, read in _slot_reads(gradient_view(point, seeded), point):
        assert isinstance(read, Jet1)
        assert repr(read.value) == repr(point.value(c)), str(c)
        if c not in seeded:
            # every unseeded read carries the one shared list of zeros
            assert read.d == [0.0] * k
            assert all(read.d is z for z in zeros)
            zeros.append(read.d)
            continue
        assert read.d == [1.0 if s == c else 0.0 for s in seeded]
        assert not any(read.d is z for z in zeros)


@pytest.mark.parametrize("n,m,kind", _VIEW_POINTS)
def test_operator_view_on_unit_rows_is_the_gradient_view(n, m, kind):
    """Seeded with the unit rows, the operator view reads as the gradient
    view bit for bit, at every slot and through every member of a basis:
    the two are one builder with different seeds."""
    point = sample_generic(n, m, kind, seed=8)
    coords = enumerate_coords(n, m)
    seeded = coords[::-3] + coords[-1:]
    k = len(seeded)
    units = [[float(p == j) for p in range(k)] for j in range(k)]
    for (c, got), (_, want) in zip(
            _slot_reads(operator_view(point, seeded, units), point),
            _slot_reads(gradient_view(point, seeded), point), strict=True):
        assert repr(got) == repr(want), str(c)
    fam = basis(make_spec("AE", 3))
    point = fam.space.sampler(2)(0)
    k = len(fam.deps)
    units = [[float(p == j) for p in range(k)] for j in range(k)]
    for mem in fam.members:
        assert repr(mem.fn(operator_view(point, fam.deps, units))) == \
            repr(mem.fn(gradient_view(point, fam.deps)))


def test_gradient_view_shares_one_dual_per_second_derivative_pair():
    point = sample_generic(3, 1, seed=9)
    view = gradient_view(point, enumerate_coords(3, 1))
    for i in range(3):
        for j in range(3):
            assert view.ddu(1, i, j) is view.ddu(1, j, i)


def test_galilei_mu0_determinant_family_passes():
    # the one library path that sends duals through ``determinant``
    from invforge import galilei_mu0_determinant_family
    from invforge.liealg import catalog, prolong2
    from invforge.verify import check_absolute, independence_rank

    fam = galilei_mu0_determinant_family(3)
    assert fam.labels()[:2] == ["Mhat1", "Mhat2"]
    ops = [prolong2(f)
           for f in catalog(make_spec("AG_I", 3, mu=0.0, rep="log"))]
    rep = check_absolute(ops, fam, n_samples=4, seed=1)
    assert rep.verdict == "PASS"
    ind = independence_rank(fam, n_samples=4, seed=1)
    assert ind.rank == 8
    assert ind.verdict == "PASS"


def _reference_determinant(a):
    """Textbook partial-pivot elimination, negating at each row swap."""
    m = [list(row) for row in a]
    n, det = len(m), 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: (abs(value_of(m[r][col])), -r))
        if abs(value_of(m[piv][col])) == 0.0:
            return 0.0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * (1.0 / m[col][col])
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return det


def test_determinant_of_duals_matches_elimination_bit_for_bit():
    # an unseeded direction (component 1) cancels to signed zeros, whose
    # signs depend on where the row swaps negate the product
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(20):
            a = [[Jet1(rng.uniform(-2, 2), [rng.uniform(-2, 2), 0.0])
                  for _ in range(n)] for _ in range(n)]
            assert repr(determinant(a)) == repr(_reference_determinant(a))
    assert determinant([[1.0, 2.0], [2.0, 4.0]]) == 0.0
    assert determinant([[0.0, 1.0], [1.0, 0.0]]) == -1.0


def test_mat_inverse_equals_its_column_solves_bit_for_bit():
    # one elimination carries every column of the identity along, each
    # with the arithmetic of its own solve
    rng = random.Random(11)
    draws = (lambda: rng.uniform(-2, 2),
             lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
             lambda: Jet1(rng.uniform(-2, 2), [rng.uniform(-2, 2), 0.0]))
    for draw in draws:
        for n in range(1, 6):
            a = [[draw() for _ in range(n)] for _ in range(n)]
            cols = [solve_linear(a, [1.0 if i == j else 0.0
                                     for i in range(n)], "matrix")
                    for j in range(n)]
            assert repr(mat_inverse(a)) == \
                repr([[cols[j][i] for j in range(n)] for i in range(n)])
    singular = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(EvaluationError) as inverse:
        mat_inverse(singular)
    with pytest.raises(EvaluationError) as solve:
        solve_linear(singular, [1.0, 0.0], "matrix")
    assert str(inverse.value) == str(solve.value) == "degenerate matrix"


def test_mixed_traces_are_computed_once_per_gradient_view(monkeypatch):
    """The AG2_II hatted sums ask for the same S_{j,k} many times on one
    view; each mixed one (0 < j < k), and each power trace S_k with
    k >= 2, costs one ``trace_prod``."""
    from invforge import exprlang, invcat

    fam = basis(make_spec("AG2_II", 3, rep="log"))
    calls, keys = [], set()
    sjk, s, tprod = invcat._Sjk, invcat._S, invcat.trace_prod

    def counted_sjk(view, first, second, signs, j, k):
        keys.add((first[0], second[0], j, k))
        return sjk(view, first, second, signs, j, k)

    def counted_s(view, mat, signs, k):
        keys.add((mat[0], k))
        return s(view, mat, signs, k)

    def counted_trace_prod(a, b):
        calls.append(1)
        return tprod(a, b)

    # the member texts call exprlang's imports of _S and _Sjk
    monkeypatch.setattr(exprlang, "_Sjk", counted_sjk)
    monkeypatch.setattr(exprlang, "_S", counted_s)
    monkeypatch.setattr(invcat, "_S", counted_s)
    monkeypatch.setattr(invcat, "trace_prod", counted_trace_prod)
    view = gradient_view(fam.space.sampler(0)(0), fam.deps)
    for member in fam.members:
        member.fn(view)
    mixed = {key for key in keys if len(key) == 4 and 0 < key[2] < key[3]}
    powers = {key for key in keys if len(key) == 2 and key[1] >= 2}
    assert len(mixed) == 3
    assert len(powers) == 3
    assert len(calls) == len(mixed) + len(powers)


def _bits(x):
    """repr of a number, or of a jet's value and slots."""
    return repr((x.value, x.d)) if isinstance(x, (Jet1, Jet2)) else repr(x)


def _jet2_base():
    a, b = seed_jets([1.3, -0.6])
    return a * b + 0.5


@pytest.mark.parametrize("base", [
    1.7, -0.3, complex(1.2, -0.7), Jet1(1.3, [0.5, -0.0, 2.0]),
    _jet2_base()], ids=["float", "negative", "complex", "Jet1", "Jet2"])
def test_power_is_a_repeated_product(base):
    for e in range(-3, 4):
        want, step = 1.0, base if e >= 0 else 1.0 / base
        for _ in range(abs(e)):
            want = want * step
        assert _bits(_power(base, e)) == _bits(want)
