import io
import json

import pytest

from invforge.dual import EvaluationError, value_grad_hess
from invforge.exprlang import (
    Bin,
    BindError,
    Call,
    Num,
    ParseError,
    bind,
    bind_coefficient,
    compiler,
    needs_positive_u,
    parse,
    to_text,
)
from invforge.invcat import equation_function
from invforge.jetspace import (
    COMPLEX,
    d2_coord,
    enumerate_coords,
    euclidean,
    field_coord,
    minkowski,
    sample_generic,
)
from references import power_form, power_trace

CORPUS = [
    "u_x1x2 ^ 2 + S(2)",
    "(1 - R(1)) * S(1) + R(2)",
    "R(2) - R(1) * S(1)",
    "2 + 3 * 4 ^ 2",
    "-x1 * (u + 3) / u_x2",
    "Sjk(1, 2; 1, 2)",
    "exp(u) - log(u1_x1x1)",
    "2 - 3 - 4",
    "2 / 3 / 4",
    "-2 ^ 2",
    "2 ^ 3 ^ 2",
    "contract(du1, du1) + tr(ddu1)",
    "u ^ (1 / 3)",
    "0.1234567 * u",
    "u ^ -4.666666666666667",
]


def test_parse_builds_expected_shapes():
    ast = parse("u_x1x2 ^ 2 + S(2)")
    assert isinstance(ast, Bin) and ast.op == "+"
    assert isinstance(ast.left, Bin) and ast.left.op == "^"
    assert isinstance(ast.right, Call) and ast.right.name == "S"


def test_precedence_example():
    fn = bind("2+3*4^2", 3)
    point = sample_generic(3, 1, seed=0)
    assert fn.eval(point) == 50


def test_power_is_right_associative():
    fn = bind("2^3^2", 3)
    point = sample_generic(3, 1, seed=0)
    assert abs(fn.eval(point) - 512) < 1e-9


def test_unary_minus_binds_below_power():
    point = sample_generic(3, 1, seed=0)
    assert bind("-2 ^ 2", 3).eval(point) == -4


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip(text):
    ast = parse(text)
    assert ast == parse(to_text(ast))


def test_parse_error_span_inside_input():
    text = "2 +* 3"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert 0 <= err.value.span.start <= err.value.span.end <= len(text)


@pytest.mark.parametrize("text,span", [
    ("1e999 * u", (0, 5)), ("2 * 1E400", (4, 9)), ("u ^ .5e309", (4, 10))])
def test_an_overflowing_literal_is_a_parse_error(text, span):
    # 1e999 parsed as Num(inf), which to_text printed as the symbol inf
    with pytest.raises(ParseError, match="is not finite") as err:
        parse(text)
    assert (err.value.span.start, err.value.span.end) == span


@pytest.mark.parametrize("kw,message", [
    ({"lam": float("nan")}, "lam must be finite, got nan"),
    ({"lam": float("inf")}, "lam must be finite, got inf"),
    ({"mu": float("-inf")}, "mu must be finite, got -inf")])
def test_a_non_finite_lam_or_mu_is_refused_before_a_compiler_is_made(
        kw, message):
    from invforge.exprlang import _compiler
    from invforge.invcat import covariant_tensor

    made = _compiler.cache_info().currsize
    with pytest.raises(BindError, match=f"^{message}$"):
        bind("S(1; theta1)", 3, **kw)
    with pytest.raises(BindError, match=f"^{message}$"):
        covariant_tensor("theta", 3, **kw)
    assert _compiler.cache_info().currsize == made


def test_unknown_symbol_is_bind_time():
    ast = parse("q + 1")  # parses fine
    with pytest.raises(BindError):
        bind(ast, 3)


def test_index_out_of_range():
    with pytest.raises(BindError, match="out of range"):
        bind("u1_x9", 3)
    with pytest.raises(BindError, match="out of range"):
        bind("u2", 3, n_fields=1)


def test_time_symbols_need_time_mode():
    with pytest.raises(BindError):
        bind("u_t", 3)
    fn = bind("u_t + u_x1t + u_tt", 4, time_mode=True)
    point = sample_generic(4, 1, seed=1)
    want = point.du[0][0] + point.value(d2_coord(1, 1, 0)) \
        + point.value(d2_coord(1, 0, 0))
    assert abs(fn.eval(point) - want) < 1e-14



def _expr_binding(text, spec):
    """``text`` bound as ``verify --expr`` binds it under ``spec``."""
    from invforge.liealg import algebra_space

    return bind(text, **algebra_space(spec))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_time_binding_trace_is_the_spatial_basis_member(k):
    # S(k) contracted over t, x1..xn: S(2) failed G1-G3 under AG_I
    from invforge.invcat import basis
    from invforge.liealg import make_spec

    spec = make_spec("AG_I", 3, rep="log")
    member = next(m for m in basis(spec).members if m.label == f"S{k}")
    fn = _expr_binding(f"S({k})", spec)
    for seed in range(4):
        point = member.space.sampler(seed)(0)
        assert repr(fn.eval(point)) == repr(member.eval(point))
        assert repr(fn.grad(point, member.deps)) == repr(
            member.grad(point, member.deps))


def _expression_checks(expr, tmp_path, algebra="AG_I", *args):
    from invforge import cli

    out = tmp_path / "report.json"
    code = cli.main(["verify", "--algebra", algebra, "--n", "3", "--expr",
                     expr, "--samples", "5", "--seed", "0", "--out",
                     str(out), *args], stream=io.StringIO())
    checks = json.loads(out.read_text())["checks"]
    return code, [(c["name"].split(":")[1], c["verdict"], c["residual_max"])
                  for c in checks]


_AG_I_OPERATORS = ("G1", "G2", "G3", "I", "J12", "J13", "J23", "P1", "P2",
                   "P3", "Pt")


def test_time_binding_trace_reads_no_time_index(tmp_path):
    # S(1) gives the records ``S(1) - u_tt`` gave when S(1) read u_tt, and
    # ``S(1) - u_tt`` the records S(1) gave then
    assert _expression_checks("S(1)", tmp_path) == (
        0, [(op, "PASS", 0.0) for op in _AG_I_OPERATORS])
    code, checks = _expression_checks("S(1) - u_tt", tmp_path)
    assert code == 1
    assert checks[:3] == [("G1", "FAIL", 3.986114192907158),
                          ("G2", "FAIL", 3.4489603221924416),
                          ("G3", "FAIL", 3.232932877472104)]
    assert checks[3:] == [(op, "PASS", 0.0) for op in _AG_I_OPERATORS[3:]]


def _galilei_row_texts(name, **kw):
    from invforge.invcat import _galilei_rows
    from invforge.liealg import make_spec

    return dict(_galilei_rows(make_spec(name, 3, rep="log", **kw),
                              "printed")[1])


def test_galilei_row_texts_check_as_expressions(tmp_path):
    """The M1 and M2 rows of AG_I PASS under AG_I as texts, and M1 plus a
    non-invariant FAILs; under AG1_I, M2 FAILs the dilation and M2/M1^2
    PASSes."""
    m1 = "2*u_t + contract(du1, du1)"
    m2 = _galilei_row_texts("AG_I")["M2"]
    for text in (m1, m2):
        code, checks = _expression_checks(text, tmp_path)
        assert code == 0
        assert [(op, verdict) for op, verdict, _ in checks] == [
            (op, "PASS") for op in _AG_I_OPERATORS]
    code, checks = _expression_checks(m1 + " + 1e-3*u_x1", tmp_path)
    assert code == 1 and "FAIL" in {verdict for _, verdict, _ in checks}
    code, checks = _expression_checks(m2, tmp_path, "AG1_I")
    assert code == 1
    assert {op for op, verdict, _ in checks if verdict == "FAIL"} == {"D"}
    code, checks = _expression_checks(
        _galilei_row_texts("AG1_I")["M2/M1^2"], tmp_path, "AG1_I")
    assert code == 0 and {verdict for _, verdict, _ in checks} == {"PASS"}


def test_boost_theta_text_reads_the_spec_mass(tmp_path):
    """``R(2; bth1, 1)`` under AG_II with mass 0.5 gives the records of the
    member R2^1 of that family, so the text takes its boost weight from
    the spec."""
    from invforge.invcat import basis
    from invforge.liealg import catalog, make_spec, prolong2
    from invforge.verify import check_absolute

    code, checks = _expression_checks("R(2; bth1, 1)", tmp_path, "AG_II",
                                      "--mass", "0.5")
    spec = make_spec("AG_II", 3, rep="log", mass=0.5)
    fam = basis(spec)
    member = next(m for m in fam.members if m.label == "R2^1")
    report = check_absolute([prolong2(f) for f in catalog(spec)], [member],
                            n_samples=5, seed=0,
                            sampler=fam.space.sampler(0))
    assert checks == [(r.operator, r.verdict, r.max_residual)
                      for r in report.records]
    assert code == (0 if report.verdict == "PASS" else 1)


def test_builtin_matches_catalog_trace():
    met = minkowski(4)
    fn = bind("S(2)", 4, metric=met)
    for seed in range(20):
        point = sample_generic(4, 1, seed=seed)
        mat = [[point.value(d2_coord(1, i, j)) for j in range(4)]
               for i in range(4)]
        assert abs(fn.eval(point) - power_trace(mat, met, 2)) < 1e-12


def test_builtin_matches_catalog_form():
    met = minkowski(4)
    fn = bind("R(3)", 4, metric=met)
    for seed in range(20):
        point = sample_generic(4, 1, seed=seed)
        mat = [[point.value(d2_coord(1, i, j)) for j in range(4)]
               for i in range(4)]
        want = power_form(list(point.du[0]), mat, met, 3)
        assert abs(fn.eval(point) - want) < 1e-12 * (1.0 + abs(want))


def test_born_infeld_expression_matches_catalog():
    fn = bind("(1 - R(1)) * S(1) + R(2)", 4, metric=minkowski(4))
    E = equation_function("born-infeld", 3)
    for seed in range(20):
        point = sample_generic(4, 1, seed=seed)
        assert abs(fn.eval(point) - E.eval(point)) < 1e-12


def test_quasilinear_expression_matches_catalog():
    fn = bind("R(2) - R(1) * S(1)", 4, metric=minkowski(4))
    E = equation_function("eikonal-quasilinear", 3)
    for seed in range(20):
        point = sample_generic(4, 1, seed=seed)
        assert abs(fn.eval(point) - E.eval(point)) < 1e-12


def test_plain_field_gradient_is_unit_vector():
    fn = bind("u", 3)
    point = sample_generic(3, 1, seed=1)
    grad = fn.grad(point)
    coords = enumerate_coords(3, 1)
    for cid, g in zip(coords, grad):
        assert g == (1.0 if str(cid) == "u1" else 0.0)


def test_conj_requires_complex_binding():
    with pytest.raises(BindError):
        bind("conj(u)", 3)


def test_imaginary_unit_needs_a_complex_binding():
    with pytest.raises(BindError, match="complex"):
        bind("i * u1", 3)
    with pytest.raises(BindError, match="complex"):
        bind_coefficient("i * x1", 3)
    fn = bind("i * u1", 3, n_fields=2, field_kind=COMPLEX)
    point = sample_generic(3, 2, COMPLEX, seed=2)
    assert fn.eval(point) == 1j * point.u[0]
    coefficient, deps = bind_coefficient("i * u1", 3, 2, field_kind=COMPLEX)
    assert coefficient([0.5, 1.0, 2.0], [3.0, 4.0]) == 3j
    assert deps == {field_coord(1)}
    assert to_text(parse("i * u1")) == "i * u1"
    assert parse(to_text(parse("-(i * 2) * x1"))) == parse("-(i * 2) * x1")


def test_coefficients_read_only_coordinates_and_fields():
    # a coefficient text is bound over the base coordinates its space
    # names: x1.., x0.. under a Minkowski metric, t, x1.. in time mode
    assert bind_coefficient("x1 * x3", 3)[0]([2.0, 5.0, 3.0], [1.0]) == 6.0
    assert bind_coefficient("x0 - x3", 4, 1, minkowski(4))[0](
        [2.0, 5.0, 3.0, 7.0], [1.0]) == -5.0
    assert bind_coefficient("t * u1", 4, 1, time_mode=True)[0](
        [2.0, 5.0, 3.0, 7.0], [1.5]) == 3.0
    for text in ("u_x1", "S(2)", "x0"):
        with pytest.raises(BindError):
            bind_coefficient(text, 3)
    # compiled once per (text, space)
    assert bind_coefficient("x1 * x3", 3) is bind_coefficient("x1 * x3", 3)


def test_conj_swaps_slots():
    fn = bind("conj(u1)", 3, n_fields=2, field_kind=COMPLEX)
    point = sample_generic(3, 2, COMPLEX, seed=2)
    assert fn.eval(point) == point.u[1]
    fn2 = bind("conj(2 * u1 + u1_x1)", 3, n_fields=2, field_kind=COMPLEX)
    want = 2 * point.u[1] + point.du[1][0]
    assert fn2.eval(point) == want


@pytest.mark.parametrize("text", [
    "S(2)", "S(2; 1)", "R(2)", "R(2; 1, 1)", "Sjk(1, 2)", "Sjk(1, 2; 1, 2)",
    "Sjk(1, 3)", "tr(ddu1)", "det(ddu2)", "contract(du1, du2)",
    "contract(du1, du1)", "u1_x1x2", "exp(u1)", "S(2; theta1)",
    "R(2; thvec2, 2)", "conj(S(2)) * R(2; 2, 2)",
])
def test_conj_is_the_conjugate_at_complex_points(text):
    fn = bind(text, 3, n_fields=2, field_kind=COMPLEX)
    conj = bind(f"conj({text})", 3, n_fields=2, field_kind=COMPLEX)
    for seed in range(3):
        point = sample_generic(3, 2, COMPLEX, seed=seed)
        want = fn.eval(point).conjugate()
        assert abs(conj.eval(point) - want) <= 1e-12 * abs(want)


def test_nested_conj_cancels():
    for text in ("S(2)", "R(2; thvec2, 1)"):
        fn = bind(text, 3, n_fields=2, field_kind=COMPLEX)
        twice = bind(f"conj(conj({text}))", 3, n_fields=2,
                     field_kind=COMPLEX)
        point = sample_generic(3, 2, COMPLEX, seed=4)
        assert twice.eval(point) == fn.eval(point)
        assert twice.deps == fn.deps


def test_fractional_power_needs_positive_base():
    fn = bind("u ^ 0.5", 3)
    point = sample_generic(3, 1, seed=1).replace(
        __import__("invforge.jetspace", fromlist=["field_coord"]).field_coord(1),
        -1.0)
    with pytest.raises(EvaluationError):
        fn.eval(point)


def test_arity_errors():
    with pytest.raises(BindError):
        bind("S(1, 2)", 3)
    with pytest.raises(BindError):
        bind("Sjk(1)", 3)
    with pytest.raises(BindError):
        bind("exp(1, 2)", 3)
    with pytest.raises(BindError):
        bind("S(u)", 3)


def test_evaluation_is_pure():
    fn = bind("S(2) * u + R(1)", 3)
    point = sample_generic(3, 1, seed=5)
    assert fn.eval(point) == fn.eval(point)


def test_field_selected_builtins():
    point = sample_generic(3, 2, seed=4)
    fn = bind("S(2; 2)", 3, n_fields=2)
    mat = [[point.value(d2_coord(2, i, j)) for j in range(3)]
           for i in range(3)]
    assert abs(fn.eval(point) - power_trace(mat, euclidean(3), 2)) < 1e-12
    fn2 = bind("R(2; 2, 1)", 3, n_fields=2)
    mat1 = [[point.value(d2_coord(1, i, j)) for j in range(3)]
            for i in range(3)]
    want = power_form(list(point.du[1]), mat1, euclidean(3), 2)
    assert abs(fn2.eval(point) - want) < 1e-12


def test_tensor_calls():
    point = sample_generic(3, 1, seed=4, positive_fields=True)
    tr_theta = bind("tr(theta)", 3, lam=1.0)
    assert abs(tr_theta.eval(point)) > 0
    det_h = bind("det(ddu1)", 3)
    from invforge.invcat import determinant

    mat = [[point.value(d2_coord(1, i, j)) for j in range(3)]
           for i in range(3)]
    assert abs(det_h.eval(point) - determinant(mat)) < 1e-12
    contracted = bind("contract(du1, du1)", 3)
    want = sum(v * v for v in point.du[0])
    assert abs(contracted.eval(point) - want) < 1e-12


def test_scalar_function_binding():
    from invforge.exprlang import bind_scalar_function

    f = bind_scalar_function("2 * u ^ 2 - 1 / u")
    assert abs(f(2.0) - (8.0 - 0.5)) < 1e-14
    with pytest.raises(BindError):
        bind_scalar_function("x1 + u")
    with pytest.raises(BindError):
        bind_scalar_function("S(2)")


def test_scalar_function_follows_the_expression_rules():
    from invforge.exprlang import bind_scalar_function

    assert bind_scalar_function("u1 ^ 2 + exp(u1)")(1.5) == \
        bind_scalar_function("u ^ 2 + exp(u)")(1.5)
    with pytest.raises(EvaluationError):
        bind_scalar_function("u ^ 0.5")(-2.0)
    # the positive-base check reads through second-order jets
    root = bind_scalar_function("u ^ 0.5")
    val, grad, hess = value_grad_hess(lambda a: root(a[0]), [4.0])
    assert (val, grad, hess) == (2.0, [0.25], [[-1.0 / 32.0]])
    # an exponent that evaluates to an integer takes the integer power
    assert bind_scalar_function("u ^ -2")(-2.0) == 0.25
    with pytest.raises(BindError):
        bind_scalar_function("u2")


def _galilei_member_rows():
    """(name, kw, label, text) of every row of the Galilei families at
    n = 3, over boost weights, masses, the massless AG2_II's lam and both
    hat variants; a row the uniform variant leaves as printed appears
    once."""
    from invforge.invcat import _galilei_rows
    from invforge.liealg import make_spec

    configs = ([(name, {"mu": mu}) for name in ("AG_I", "AG1_I", "AG2_I")
                for mu in (1.0, 0.5, 0.0)]
               + [(name, {"mass": mass})
                  for name in ("AG_II", "AG1_II", "AG2_II")
                  for mass in (1.0, 0.5)]
               + [("AG2_II", {"mass": 0.0, "lam": lam})
                  for lam in (0.0, 0.4, 1.0)])
    out, seen = [], set()
    for name, kw in configs:
        for hat in ("printed", "uniform"):
            rows = _galilei_rows(make_spec(name, 3, rep="log", **kw), hat)[1]
            for label, text in rows:
                if (name, str(kw), label, text) in seen:
                    continue
                seen.add((name, str(kw), label, text))
                out.append(pytest.param(
                    name, dict(kw, rep="log", hat_variant=hat), label, text,
                    id=f"{name}-{kw}-{hat}-{label}"))
    return out


@pytest.mark.parametrize("name,kw,label,text", [
    ("AC", {"m": 2}, "S2(theta1)*u1^2", "S(2; theta1) * u1 ^ 2.0"),
    ("AC", {"m": 2, "lam": 0.6}, "R2(thvec2,theta1)*u1^3.66667",
     "R(2; thvec2, theta1) * u1 ^ 3.666666666666667"),
    ("AC1n", {"m": 2, "lam": 0.0}, "S1,2(w2,w1)/(du.du)^4",
     "Sjk(1, 2; w2, w1) / contract(du1, du1) ^ 4"),
    ("AO", {}, "R3(x,U1)", "R(3; x, 1)"),
] + _galilei_member_rows())
def test_catalog_member_text_binds_to_the_member(name, kw, label, text):
    from invforge.invcat import basis
    from invforge.liealg import make_spec

    kw = dict(kw)
    hat = kw.pop("hat_variant", "printed")
    spec = make_spec(name, 3, **kw)
    fam = basis(spec, hat)
    member = next(m for m in fam.members if m.label == label)
    fn = _expr_binding(text, spec)
    # the member's gradient over the coordinates the text reads, and zero
    # over the others
    others = [c for c in fam.space.coords() if c not in fn.deps]
    for seed in range(2):
        point = fam.space.sampler(3)(seed)
        assert repr(fn.eval(point)) == repr(member.eval(point))
        assert repr(fn.grad(point, fn.deps)) == repr(
            member.grad(point, fn.deps))
        assert not any(member.grad(point, others))


@pytest.mark.parametrize("text", ["S(2; v)", "S(1; 1, 2)", "R(1; theta1, 1)",
                                  "R(1; 1, x)", "Sjk(1, 2; 1, w3)",
                                  "R(1; bth1, 1)", "contract(du1, dut1)",
                                  "contract(ith1, du1)", "S(1; inv1)",
                                  "quad(du1, inv1)", "R(1; bth3, 1)",
                                  "contract(tau1(0.4), du1)",
                                  "R(1; r4vec1, 1)", "R(1; du1 - dut1, 1)"])
def test_selector_errors(text):
    with pytest.raises(BindError):
        bind(text, 3, n_fields=2)


@pytest.mark.parametrize("text,kw", [
    # r4vec reads a field and its conjugate partner
    ("R(1; r4vec1, 1)", {"n_fields": 2}),
    ("R(1; r4vec1, 1)", {"n_fields": 1, "field_kind": COMPLEX}),
    # tau takes its lam as one number literal
    ("contract(tau1(u1), du1)", {"n_fields": 2}),
    ("contract(tau1(0.4, 1.0), du1)", {"n_fields": 2}),
    ("contract(tau1(0.4; 1), du1)", {"n_fields": 2}),
    ("contract(tau1, du1)", {"n_fields": 2}),
    ("contract(bth1(0.4), du1)", {"n_fields": 2}),
])
def test_time_selector_errors(text, kw):
    with pytest.raises(BindError):
        bind(text, 4, time_mode=True, **kw)


def test_tensor_selectors_need_a_spatial_binding():
    with pytest.raises(BindError):
        bind("S(2; theta1)", 4, time_mode=True)


def _dual_operations(monkeypatch, fn, view):
    """Repr of ``fn(view)`` and how many jets it built, one per jet
    operation."""
    from invforge.dual import Jet1

    made = []
    init = Jet1.__init__

    def counted(self, *args):
        made.append(type(self))
        init(self, *args)

    monkeypatch.setattr(Jet1, "__init__", counted)
    out = repr(fn(view))
    monkeypatch.undo()
    return out, len(made)


@pytest.mark.parametrize("r1,r2", [(1, 2), (1, 1), (2, 1)])
def test_euclidean_contract_is_the_hand_written_sum(r1, r2, monkeypatch):
    from invforge.invcat import gradient_view, sum_prod

    fn = bind(f"contract(du{r1}, du{r2})", 3, 2)
    point = fn.space.sampler(0)(0)
    view = gradient_view(point, fn.deps)

    def hand(view):
        return sum_prod([view.du(r1, i) for i in range(3)],
                        [view.du(r2, i) for i in range(3)])

    assert _dual_operations(monkeypatch, fn.fn, view) == \
        _dual_operations(monkeypatch, hand, view)


def test_minkowski_contract_weighs_by_the_signs():
    fn = bind("contract(du1, du2)", 4, 2, metric=minkowski(4))
    point = fn.space.sampler(0)(0)
    d1, d2 = point.du
    want = d1[0] * d2[0] - d1[1] * d2[1] - d1[2] * d2[2] - d1[3] * d2[3]
    assert abs(fn.eval(point) - want) < 1e-12


def test_time_binding_weighs_each_spatial_index_by_its_own_sign():
    """A time binding contracts over x1..xn only, so each of those indices
    carries its own metric sign and t's is never read, under any metric."""
    point = sample_generic(4, 2, seed=3)
    signs = minkowski(4).signs[1:]
    d1, d2 = (row[1:] for row in point.du)
    u = [row[1:] for row in point.ddu[0][1:]]
    ud1 = [sum(u[i][j] * signs[j] * d1[j] for j in range(3))
           for i in range(3)]
    for text, want in [
            ("S(1)", sum(s * u[i][i] for i, s in enumerate(signs))),
            ("R(1)", sum(s * a * a for s, a in zip(signs, d1))),
            ("R(2)", sum(s * a * b for s, a, b in zip(signs, d1, ud1))),
            ("contract(du1, du2)",
             sum(s * a * b for s, a, b in zip(signs, d1, d2)))]:
        fn = bind(text, 4, 2, metric=minkowski(4), time_mode=True)
        assert abs(fn.eval(point) - want) <= 1e-12 * (1 + abs(want)), text


@pytest.mark.parametrize("text,positive", [
    ("u^2", False), ("u ^ -2", False), ("-u^2 + 3/u", False),
    ("exp(u)/(2+u)", False), ("2^0.5 * u", False), ("2^u", False),
    ("log(2) + u", False),
    ("u^0.5", True), ("u ^ -0.5", True), ("u^u", True), ("(1+u)^(1/2)", True),
    ("log(u)", True), ("1 + exp(log(1 + u^2))", True), ("u^0.5 - 3/u", True),
])
def test_needs_positive_u_reads_the_parsed_text(text, positive):
    """Positive u is needed where a log, or a power other than an integer
    literal, is taken of a part that reads u."""
    assert needs_positive_u(text) is positive


@pytest.mark.parametrize("text,positive", [
    ("u1^0.5 * u2^0.5", True), ("log(u2)", True), ("(u1 * u_x1)^0.5", True),
    ("S(1; theta1)^0.5", True),
    ("log(u_x1 - u_x1)", False), ("u_x2^0.5", False), ("x1^0.5 * u1", False),
    ("S(2)^0.5", False), ("u2^2 + log(2)", False),
])
def test_needs_positive_u_reads_field_values_under_a_compiler(text,
                                                              positive):
    """Under a binding's compiler only parts that read a field value need
    u > 0; a log or root of derivatives or coordinates does not."""
    assert needs_positive_u(text, compiler(3, 2)) is positive
