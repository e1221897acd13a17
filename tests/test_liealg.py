import itertools

import pytest

from invforge.dual import value_grad_hess
from invforge.exprlang import bind_coefficient
from invforge.invcat import ScalarJetFunction, _S, _hessian, basis
from invforge.jetspace import (
    base_coord,
    d1_coord,
    d2_coord,
    enumerate_coords,
    euclidean,
    field_coord,
    sample_generic,
)
from invforge.liealg import (
    _FAMILIES,
    AlgebraSpec,
    VectorField,
    bind_generators,
    catalog,
    flow_positions,
    generator_rows,
    generic_rank,
    make_sampler,
    make_spec,
    matrix_rank,
    prolong2,
)
from references import apply_operator


def _rotation_op(n, a, b, m=1):
    spec = make_spec("AE", n, m=m)
    field = [f for f in catalog(spec) if f.label == f"J{a + 1}{b + 1}"][0]
    return prolong2(field)


def rotation_closed_form(point, a, b, r=1):
    """Coefficient table of the rotation prolongation written out directly:
    first derivatives mix pairwise, second-derivative pairs carry the
    doubled unordered-pair coefficients."""
    n = point.n_base
    table = {base_coord(b): point.x[a], base_coord(a): -point.x[b]}
    du = point.du[r - 1]

    def dd(i, j):
        return point.value(d2_coord(r, i, j))

    table[d1_coord(r, b)] = du[a]
    table[d1_coord(r, a)] = -du[b]
    for c in range(n):
        if c in (a, b):
            continue
        table[d2_coord(r, b, c)] = 2.0 * dd(a, c)
        table[d2_coord(r, a, c)] = -2.0 * dd(b, c)
    table[d2_coord(r, a, b)] = 2.0 * (dd(a, a) - dd(b, b))
    table[d2_coord(r, b, b)] = 2.0 * dd(a, b)
    table[d2_coord(r, a, a)] = -2.0 * dd(a, b)
    return table


@pytest.mark.parametrize("n", [3, 4])
def test_rotation_prolongation_matches_closed_form(n):
    spec = make_spec("AE", n)
    rotations = [f for f in catalog(spec) if f.label.startswith("J")]
    for point_seed in range(20):
        point = sample_generic(n, 1, seed=point_seed)
        for field in rotations:
            a = int(field.label[1]) - 1
            b = int(field.label[2]) - 1
            table = prolong2(field).coefficient_table(point)
            want = rotation_closed_form(point, a, b)
            for cid in enumerate_coords(n, 1):
                assert abs(table[cid] - want.get(cid, 0.0)) < 1e-12


def test_translation_has_no_jet_coefficients():
    spec = make_spec("AE", 3)
    trans = [f for f in catalog(spec) if f.label == "P1"][0]
    point = sample_generic(3, 1, seed=2)
    table = prolong2(trans).coefficient_table(point)
    for cid in enumerate_coords(3, 1):
        if cid.kind == "base":
            continue
        assert table[cid] == 0.0


def test_dilation_coefficients():
    lam = 0.37
    spec = make_spec("AE1", 3, lam=lam)
    dil = [f for f in catalog(spec) if f.label == "D"][0]
    point = sample_generic(3, 1, seed=5)
    table = prolong2(dil).coefficient_table(point)
    for i in range(3):
        want = (lam - 1.0) * point.du[0][i]
        assert abs(table[d1_coord(1, i)] - want) < 1e-12
        diag = (lam - 2.0) * point.value(d2_coord(1, i, i))
        assert abs(table[d2_coord(1, i, i)] - diag) < 1e-12
        for j in range(i + 1, 3):
            off = 2.0 * (lam - 2.0) * point.value(d2_coord(1, i, j))
            assert abs(table[d2_coord(1, i, j)] - off) < 1e-12
    assert abs(table[field_coord(1)] - lam * point.u[0]) < 1e-12


def test_prolongation_is_linear():
    spec = make_spec("AC", 3, lam=1.0)
    fields, rows = catalog(spec), generator_rows(spec)
    x, y = fields[4], fields[-1]
    assert (x.label, y.label) == ("J13", "K3")
    (_, xi_x, eta_x), (_, xi_y, eta_y) = rows[4], rows[-1]

    def combined(a, b):
        return bind_coefficient(f"1.75 * ({a}) - 0.5 * ({b})", 3)[0]

    # 1.75 J13 - 0.5 K3, written as one row of texts
    combo = VectorField(3, 1, list(map(combined, xi_x, xi_y)),
                        list(map(combined, eta_x, eta_y)), "1.75*J13-0.5*K3")
    for s in range(10):
        point = sample_generic(3, 1, seed=100 + s)
        tx = prolong2(x).coefficient_table(point)
        ty = prolong2(y).coefficient_table(point)
        tc = prolong2(combo).coefficient_table(point)
        for cid in enumerate_coords(3, 1):
            assert abs(tc[cid] - (1.75 * tx[cid] - 0.5 * ty[cid])) < 1e-12


def _jet_fn(label, fn, deps, n, m=1):
    from invforge.invcat import JetSpace

    return ScalarJetFunction(label, fn, deps, JetSpace(n, m))


def test_apply_on_plain_field_value():
    op = _rotation_op(3, 0, 1)
    fn = _jet_fn("u", lambda v: v.u(1), (field_coord(1),), 3)
    for s in range(5):
        point = sample_generic(3, 1, seed=s)
        assert apply_operator(op, fn, point) == 0.0


def test_apply_on_hessian_trace():
    op = _rotation_op(3, 0, 1)
    deps = tuple(d2_coord(1, i, j) for i in range(3) for j in range(i, 3))
    fn = _jet_fn("S1", lambda v: _S(v, _hessian(1, (0, 1, 2)), (1, 1, 1), 1),
                 deps, 3)
    point = sample_generic(3, 1, seed=8)
    assert abs(apply_operator(op, fn, point)) < 1e-13


def test_apply_dilation_on_laplacian():
    spec = make_spec("AE1", 3, lam=0.0)
    dil = [f for f in catalog(spec) if f.label == "D"][0]
    deps = tuple(d2_coord(1, i, i) for i in range(3))
    fn = _jet_fn("tr", lambda v: v.ddu(1, 0, 0) + v.ddu(1, 1, 1) + v.ddu(1, 2, 2),
                 deps, 3)
    point = sample_generic(3, 1, seed=3)
    got = apply_operator(prolong2(dil), fn, point)
    want = -2.0 * fn.eval(point)
    assert abs(got - want) < 1e-12


def test_apply_matches_flow_finite_difference():
    # moving the point along the flow-derivative vector reproduces apply()
    spec = make_spec("AC", 3, lam=1.0)
    fam = basis(spec)
    member = fam.members[1]
    ops = [prolong2(f) for f in catalog(make_spec("AE", 3))]
    h = 1e-5
    for s in range(3):
        point = fam.space.sampler(17)(s)
        for op in ops[3:]:
            flow = op.flow_table(point)
            up = point
            down = point
            for cid, c in flow.items():
                up = up.replace(cid, up.value(cid) + h * c)
                down = down.replace(cid, down.value(cid) - h * c)
            fd = (member.eval(up) - member.eval(down)) / (2.0 * h)
            got = apply_operator(op, member, point)
            assert abs(got - fd) <= 1e-6 * (1.0 + abs(fd))


@pytest.mark.parametrize("name,n,count", [
    ("AE", 3, 6),
    ("AE", 4, 10),
    ("AC", 3, 10),
    ("AC", 4, 15),
    ("AP", 3, 10),
    ("APtilde", 3, 11),
    ("AC1n", 3, 15),
    ("AG_I", 3, 11),
    ("AG1_I", 3, 12),
    ("AG2_I", 3, 13),
    ("AG_II", 3, 11),
    ("AG2_II", 3, 13),
    ("AP_BornInfeld", 3, 15),
])
def test_catalog_counts(name, n, count):
    assert len(catalog(make_spec(name, n))) == count


def test_conformal_count_formula():
    for n in (3, 4, 5):
        assert len(catalog(make_spec("AC", n))) == n * (n + 3) // 2 + 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rotation_algebra_generic_rank(n):
    spec = make_spec("AO", n)
    ops = [prolong2(f) for f in catalog(spec)]
    rank = generic_rank(ops, make_sampler(n, 1, seed=1), trials=3)
    assert rank == n * (n - 1) // 2


def test_conformal_generic_rank():
    spec = make_spec("AC", 3, lam=1.0)
    ops = [prolong2(f) for f in catalog(spec)]
    rank = generic_rank(ops, make_sampler(3, 1, seed=1, positive_fields=True),
                        trials=3)
    assert rank == 10


def test_generic_rank_monotone_and_bounded():
    spec = make_spec("AE", 3)
    ops = [prolong2(f) for f in catalog(spec)]
    sampler = make_sampler(3, 1, seed=2)
    ranks = [generic_rank(ops[:k], sampler, trials=2)
             for k in range(1, len(ops) + 1)]
    assert all(ranks[i] <= ranks[i + 1] for i in range(len(ranks) - 1))
    assert ranks[-1] <= min(len(ops), 13)


def test_matrix_rank_pivot_rule():
    # rows are scaled first, so a small but independent row still counts
    rank, _ = matrix_rank([[1.0, 0.0], [0.0, 1e-12]])
    assert rank == 2
    # dependent rows collapse regardless of magnitude
    rank, _ = matrix_rank([[1.0, 2.0], [2.0, 4.0]])
    assert rank == 1
    rank, _ = matrix_rank([[1.0, 2.0], [1e-9, 2e-9 + 1e-22]])
    assert rank == 1
    assert matrix_rank([[0.0, 0.0]])[0] == 0


def test_algebra_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec("nope", 3)
    with pytest.raises(ValueError):
        make_spec("AE", 2)
    with pytest.raises(ValueError):
        make_spec("AG2_I", 3, lam=1.0)  # projective family pins lambda
    with pytest.raises(ValueError):
        make_spec("AG_II", 3, m=1)
    # a generator text prints its parameters, which must be numbers
    for kw in ({"lam": float("inf")}, {"mu": float("nan")}):
        with pytest.raises(ValueError, match="finite"):
            make_spec("AG1_I", 3, **kw)
    # the massless branch leaves lambda free
    make_spec("AG2_I", 3, mu=0.0, lam=0.3, rep="log")
    # each projective family pins lambda on its own boost weight
    for name, boost, other in (("AG2_I", "mu", "mass"),
                               ("AG2_II", "mass", "mu")):
        assert make_spec(name, 4).lam == -2.0
        assert make_spec(name, 3, **{boost: 0.0}).lam == 1.0
        for kw in ({"lam": 1.0}, {other: 0.0, "lam": 1.0}):
            with pytest.raises(ValueError, match=rf"^{name} fixes lambda = "
                               r"-n/2 = -1\.5$"):
                make_spec(name, 3, **kw)


def test_born_infeld_catalog_mixes_field_into_base():
    spec = make_spec("AP_BornInfeld", 3)
    mix = [f for f in catalog(spec) if f.label == "J0u"][0]
    point = sample_generic(4, 1, seed=1)
    table = prolong2(mix).coefficient_table(point)
    assert abs(table[base_coord(0)] + point.u[0]) < 1e-12
    assert abs(table[field_coord(1)] + point.x[0]) < 1e-12


def test_eikonal_algebra_sampling():
    spec = make_spec("AP_inf", 3, seed=5, instances=4)
    fields = catalog(spec)
    assert len(fields) == 4
    # deterministic draw
    again = catalog(make_spec("AP_inf", 3, seed=5, instances=4))
    point = sample_generic(4, 1, seed=0)
    for f, g in zip(fields, again):
        tf = prolong2(f).coefficient_table(point)
        tg = prolong2(g).coefficient_table(point)
        assert tf == tg
    extended = catalog(make_spec("AP_inf", 3, seed=5, instances=2,
                                 extended=True))
    assert all(f.label.endswith("+d") for f in extended)


def test_eikonal_user_functions_override():
    from invforge.exprlang import bind_scalar_function

    eta = bind_scalar_function("u ^ 2")
    spec = make_spec("AP_inf", 3, seed=2, instances=1,
                     functions=(("eta", eta), ("a0", bind_scalar_function("1 + u"))))
    field = catalog(spec)[0]
    point = sample_generic(4, 1, seed=0)
    table = prolong2(field).coefficient_table(point)
    u = point.u[0]
    assert abs(table[field_coord(1)] - u * u) < 1e-12
    with pytest.raises(ValueError, match="extended"):
        catalog(make_spec("AP_inf", 3, instances=1,
                          functions=(("d", eta),)))
    with pytest.raises(ValueError, match="unknown coefficient"):
        catalog(make_spec("AP_inf", 3, instances=1,
                          functions=(("q", eta),)))


def test_catalog_returns_a_new_list_of_the_same_fields():
    spec = make_spec("AE", 3)
    first, again = catalog(spec), catalog(make_spec("AE", 3))
    assert first is not again
    assert all(a is b for a, b in zip(first, again, strict=True))
    first.pop()
    assert len(catalog(spec)) == len(again)


def test_catalog_tells_apart_specs_that_compare_equal():
    # lam -0.0 and 0.0, or 1 and 1.0, compare equal but print apart into
    # the row texts; AP_inf's functions compare=False
    from invforge.exprlang import bind_scalar_function

    for a, b in ((0.0, -0.0), (1.0, 1)):
        sa, sb = make_spec("AE1", 3, lam=a), make_spec("AE1", 3, lam=b)
        assert sa == sb
        eta = [f.eta[0] for f in catalog(sa)][-1], \
            [f.eta[0] for f in catalog(sb)][-1]
        assert eta[0] is not eta[1]
    point = sample_generic(4, 1, seed=3)
    plain = make_spec("AP_inf", 3, instances=1)
    override = make_spec("AP_inf", 3, instances=1,
                         functions=(("eta", bind_scalar_function("u ^ 2")),))
    assert plain == override
    u = point.u[0]
    tables = [prolong2(catalog(s)[0]).flow_table(point)[field_coord(1)]
              for s in (plain, override, plain)]
    assert tables[1] == u ** 2 != tables[0] == tables[2]


def test_eikonal_invariance_survives_user_functions():
    from invforge.exprlang import bind_scalar_function
    from invforge.invcat import equation_function
    from invforge.verify import check_on_manifold

    fns = (("eta", bind_scalar_function("u ^ 2 - u")),
           ("b01", bind_scalar_function("exp(u / 4)")),
           ("a2", bind_scalar_function("1 / (2 + u)")))
    spec = make_spec("AP_inf", 3, seed=6, instances=2, functions=fns)
    ops = [prolong2(f) for f in catalog(spec)]
    E = equation_function("eikonal", 3)
    rep = check_on_manifold(ops, E, solve_for=d1_coord(1, 0), n_samples=4,
                            seed=5)
    assert rep.verdict == "PASS"


@pytest.mark.parametrize("name", _FAMILIES)
def test_coefficient_table_doubles_off_diagonal_flow(name):
    spec = make_spec(name, 3)
    point = make_sampler(spec.n_base, spec.n_fields, spec.field_kind,
                         seed=4)(0)
    coords = set(enumerate_coords(spec.n_base, spec.n_fields))
    for field in catalog(spec):
        op = prolong2(field)
        flow = op.flow_table(point)
        table = op.coefficient_table(point)
        assert set(table) == set(flow) == coords
        for cid, c in flow.items():
            if cid.kind == "d2" and cid.i != cid.j:
                assert table[cid] == 2.0 * c
            else:
                assert table[cid] == c


def characteristic_flow(field, point):
    """Flow table of the prolonged ``field`` by the characteristic form
    (Olver, Applications of Lie Groups to Differential Equations, §2.3).

    With f_r the quadratic Taylor polynomial of the point and
    Q_r(y) = eta_r(y, f(y)) - xi^i(y, f(y)) d_i f_r(y), the prolonged
    coefficients are phi_r = Q_r + xi^i u_r,i, phi_r,j = d_j Q_r +
    xi^i u_r,ij and phi_r,jk = d_j d_k Q_r, since f has no third
    derivatives.  The partials of Q come from one ``value_grad_hess`` call
    over the base coordinates; nothing goes through ``_flow``'s
    total-derivative expansion.
    """
    n, m = field.n_base, field.n_fields
    x, u, du, ddu = point.x, point.u, point.du, point.ddu

    def q(r):
        def fn(ys):
            h = [y - c for y, c in zip(ys, x)]
            f, df = [], []
            for s in range(m):
                val = u[s]
                for i in range(n):
                    val = val + du[s][i] * h[i]
                    for j in range(n):
                        val = val + 0.5 * ddu[s][i][j] * h[i] * h[j]
                f.append(val)
                row = []
                for i in range(n):
                    d = du[s][i]
                    for j in range(n):
                        d = d + ddu[s][i][j] * h[j]
                    row.append(d)
                df.append(row)
            out = field.eta[r](ys, f)
            for i in range(n):
                out = out - field.xi[i](ys, f) * df[r][i]
            return out
        return fn

    xi = [fn(list(x), list(u)) for fn in field.xi]
    table = {base_coord(i): xi[i] for i in range(n)}
    for r in range(m):
        val, grad, hess = value_grad_hess(q(r), list(x))
        table[field_coord(r + 1)] = val + sum(
            xi[i] * du[r][i] for i in range(n))
        for j in range(n):
            table[d1_coord(r + 1, j)] = grad[j] + sum(
                xi[i] * ddu[r][i][j] for i in range(n))
            for k in range(j, n):
                table[d2_coord(r + 1, j, k)] = hess[j][k]
    return table


ORACLE_CASES = [(name, rep) for name in _FAMILIES
                for rep in (("u", "log") if name.startswith("AG") else ("u",))]


@pytest.mark.parametrize("name,rep", ORACLE_CASES,
                         ids=[f"{n}-{r}" for n, r in ORACLE_CASES])
def test_flow_table_matches_characteristic_form(name, rep):
    spec = make_spec(name, 3, rep=rep)
    sampler = make_sampler(spec.n_base, spec.n_fields, spec.field_kind,
                           seed=11)
    for idx in range(3):
        point = sampler(idx)
        for field in catalog(spec):
            flow = prolong2(field).flow_table(point)
            want = characteristic_flow(field, point)
            assert set(flow) == set(want)
            scale = max(abs(c) for c in want.values())
            for cid, c in want.items():
                assert abs(flow[cid] - c) <= 1e-12 * scale, (field.label,
                                                             cid)


POSITION_CASES = [(name, rep, 1) for name, rep in ORACLE_CASES] \
    + [("AE", "u", 2)]


def _row_order(n, m):
    """The flow row's order, written out: x_i; per field u_r and its d1
    row; per field the d2 upper triangle."""
    order = [base_coord(i) for i in range(n)]
    for r in range(1, m + 1):
        order.append(field_coord(r))
        order += [d1_coord(r, i) for i in range(n)]
    for r in range(1, m + 1):
        order += [d2_coord(r, i, j) for i in range(n) for j in range(i, n)]
    return order


@pytest.mark.parametrize("name,rep,m", POSITION_CASES,
                         ids=[f"{n}-{r}-m{m}" for n, r, m in POSITION_CASES])
def test_tables_read_by_position_match_the_keyed_tables(name, rep, m):
    spec = make_spec(name, 3, rep=rep, **({"m": m} if m != 1 else {}))
    nb, nf = spec.n_base, spec.n_fields
    orders = [enumerate_coords(nb, nf)]
    try:
        orders.append(tuple(reversed(basis(spec).deps)))
    except ValueError:
        pass  # no basis for this algebra and representation
    sampler = make_sampler(nb, nf, spec.field_kind, seed=7)
    for idx in range(3):
        point = sampler(idx)
        for field in catalog(spec):
            op = prolong2(field)
            flow = op.flow_table(point)
            table = op.coefficient_table(point)
            assert list(flow) == list(table) == _row_order(nb, nf)
            for coords in orders:
                at = flow_positions(nb, nf, coords)
                assert repr(op.flow_table(point, at)) == \
                    repr([flow[c] for c in coords])
                assert repr(op.coefficient_table(point, at)) == \
                    repr([table[c] for c in coords])


@pytest.mark.parametrize("outside", [d1_coord(1, 3), field_coord(2),
                                     d2_coord(1, 0, 3), base_coord(3)])
def test_flow_positions_reject_a_coordinate_of_another_space(outside):
    inside = enumerate_coords(3, 1)
    assert flow_positions(3, 1, inside) == tuple(range(len(inside)))
    with pytest.raises(ValueError):
        flow_positions(3, 1, inside[:2] + [outside])


# [X_a, X_b] of every pair of generators lies in the constant-coefficient
# span of the catalog (the algebra closes), checked on coefficient values
# stacked over CLOSURE_POINTS points: the generators' independence rank
# may not grow when a bracket is appended.  A bracket below
# CLOSURE_ZERO of the largest generator entry is zero; rounding noise such
# as [G1, G2] = 0 in the u-rep would otherwise read as new rank.
CLOSURE_POINTS = 8
CLOSURE_ZERO = 1e-12
CLOSURE_CONFIGS = (
    [(name, {}) for name in _FAMILIES
     if name != "AP_inf" and not name.startswith("AG")]
    + [(name, {"rep": rep}) for name in ("AG_I", "AG1_I", "AG2_I", "AG_II",
                                         "AG1_II", "AG2_II")
       for rep in ("u", "log")]
    + [("AG2_I", {"mu": 0.0, "rep": "u"})])


def non_closing_brackets(spec, rows):
    """How many brackets of pairs of the bound ``rows`` leave their span.

    [X_a, X_b]^c = sum_k (X_a^k d_k X_b^c - X_b^k d_k X_a^c), with k and c
    running over the base coordinates and the fields."""
    fields = bind_generators(spec, rows)
    nb, dim = spec.n_base, spec.n_base + spec.n_fields
    sampler = make_sampler(nb, spec.n_fields, spec.field_kind, seed=3)
    vals = [[] for _ in fields]
    grads = [[] for _ in fields]
    for idx in range(CLOSURE_POINTS):
        point = sampler(idx)
        args = list(point.x) + list(point.u)
        for field, val, grad in zip(fields, vals, grads):
            for f in field.xi + field.eta:
                v, g, _ = value_grad_hess(lambda a, f=f: f(a[:nb], a[nb:]),
                                          args)
                val.append(v)
                grad.append(g)

    def bracket(a, b):
        return [sum(vals[a][p + k] * grads[b][p + c][k]
                    - vals[b][p + k] * grads[a][p + c][k] for k in range(dim))
                for p in range(0, len(vals[a]), dim) for c in range(dim)]

    rank, _ = matrix_rank(vals)
    assert rank == len(fields)
    zero = CLOSURE_ZERO * max(abs(v) for row in vals for v in row)
    count = 0
    for a, b in itertools.combinations(range(len(fields)), 2):
        br = bracket(a, b)
        if max(map(abs, br)) >= zero and matrix_rank(vals + [br])[0] > rank:
            count += 1
    return count


@pytest.mark.parametrize("name,kw", CLOSURE_CONFIGS,
                         ids=[f"{name}-{kw}" for name, kw in CLOSURE_CONFIGS])
def test_catalog_closes_under_brackets(name, kw):
    spec = make_spec(name, 3, **kw)
    assert non_closing_brackets(spec, generator_rows(spec)) == 0


def _edited(rows, label, side, index, old, new):
    """``rows`` with text ``index`` of the xi (side 1) or eta (side 2)
    texts of generator ``label`` changed from ``old`` to ``new``."""
    rows = [(lab, list(xi), list(eta)) for lab, xi, eta in rows]
    texts = next(row[side] for row in rows if row[0] == label)
    assert texts[index] == old
    texts[index] = new
    return rows


@pytest.mark.parametrize("name,kw,edit,count", [
    # lambda read as 1.1 in K1's eta
    ("AC", {"lam": 1.0}, ("K1", 2, 0, "2.0 * 1.0 * x1 * u1",
                          "2.0 * 1.1 * x1 * u1"), 7),
    # the sign of i flipped in G3's eta on psi*
    ("AG_II", {"rep": "u"}, ("G3", 2, 1, "-(i * 1.0) * x3 * u2",
                             "-(-i * 1.0) * x3 * u2"), 5),
], ids=["AC-K1-lambda", "AG_II-G3-conjugate"])
def test_closure_fails_on_an_edited_row(name, kw, edit, count):
    spec = make_spec(name, 3, **kw)
    rows = _edited(generator_rows(spec), *edit)
    assert non_closing_brackets(spec, rows) == count


def _counting_coefficient_tables(monkeypatch):
    from invforge.liealg import ProlongedOperator

    calls = []
    table = ProlongedOperator.coefficient_table

    def counted(self, point, at=None):
        calls.append(point)
        return table(self, point, at)

    monkeypatch.setattr(ProlongedOperator, "coefficient_table", counted)
    return calls


def test_generic_rank_stops_at_its_bound(monkeypatch):
    # AE at n = 3 has 6 operators on 13 coordinates, full rank at the
    # first point: the later trials could not raise the maximum
    ops = [prolong2(f) for f in catalog(make_spec("AE", 3))]
    calls = _counting_coefficient_tables(monkeypatch)
    assert generic_rank(ops, make_sampler(3, 1, seed=0), trials=3) == 6
    assert len(calls) == 6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generic_rank_below_its_bound_runs_every_trial(seed, monkeypatch):
    # each operator twice: rank 6 of 12 rows never reaches min(12, 13)
    ops = [prolong2(f) for f in catalog(make_spec("AE", 3))] * 2
    sampler = make_sampler(3, 1, seed=seed)
    every = max(matrix_rank([list(op.coefficient_table(sampler(t)).values())
                             for op in ops])[0] for t in range(4))
    calls = _counting_coefficient_tables(monkeypatch)
    assert generic_rank(ops, sampler, trials=4) == every == 6
    assert len(calls) == 4 * len(ops)
    assert len({id(p) for p in calls}) == 4
