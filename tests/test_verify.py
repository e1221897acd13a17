import io
import json
import dataclasses
import math

import pytest

from invforge import cli, verify
from invforge.dual import Dual, EvaluationError, derivs, dexp
from invforge.invcat import (
    EQUATIONS,
    TENSORS,
    JetSpace,
    ScalarJetFunction,
    basis,
    covariant_tensor,
    equation_function,
    operator_view,
    seeded_view,
    sum_prod,
    two_matrix_trace_family,
)
from invforge.jetspace import (
    JetPoint,
    d1_coord,
    d2_coord,
    field_coord,
    sample_generic,
)
from invforge.liealg import (
    ProlongedOperator,
    VectorField,
    catalog,
    generic_rank,
    make_spec,
    prolong2,
)
from invforge.verify import (
    CompletenessReport,
    _draw,
    check_absolute,
    check_covariance,
    check_on_manifold,
    completeness,
    family_jacobian,
    independence_rank,
    newton_project,
)
from references import mgs_lstsq, reference_covariance, \
    reference_independence_rank
from test_report_identity import FIXTURE
import verdict_digest
from verdict_digest import EXPRESSIONS, MASSLESS_LAMBDAS


def _ops(name, n, **kw):
    return [prolong2(f) for f in catalog(make_spec(name, n, **kw))]


def test_absolute_euclid_family_passes():
    fam = basis(make_spec("AE", 3))
    report = check_absolute(_ops("AE", 3), fam, n_samples=10, seed=1)
    assert report.verdict == "PASS"
    assert report.max_residual() < 1e-9


def test_absolute_rejects_plain_derivative():
    fam = basis(make_spec("AE", 3))
    raw = ScalarJetFunction("u_x1", lambda v: v.du(1, 0),
                            (d1_coord(1, 0),), fam.space)
    report = check_absolute(_ops("AE", 3), [raw], n_samples=5, seed=1)
    assert report.verdict == "FAIL"


def test_absolute_conformal_branch_passes():
    spec = make_spec("AC", 3, lam=1.0)
    fam = basis(spec)
    report = check_absolute(_ops("AC", 3, lam=1.0), fam, n_samples=8, seed=2)
    assert report.verdict == "PASS"


def test_reports_are_deterministic():
    fam = basis(make_spec("AE", 3))
    ops = _ops("AE", 3)
    a = check_absolute(ops, fam, n_samples=6, seed=42)
    b = check_absolute(ops, fam, n_samples=6, seed=42)
    assert a == b
    c = check_absolute(ops, fam, n_samples=6, seed=43)
    assert a != c


def test_tolerance_scales_with_point_magnitude():
    # doubling every jet value must not flip the verdict of homogeneous
    # invariants
    fam = basis(make_spec("AE", 3))
    ops = _ops("AE", 3)
    base_sampler = fam.space.sampler(7)

    def doubled(idx):
        point = base_sampler(idx)
        for cid in point.coords():
            point = point.replace(cid, 2.0 * point.value(cid))
        return point

    report = check_absolute(ops, fam, n_samples=6, seed=7, sampler=doubled)
    assert report.verdict == "PASS"


def test_sensitivity_to_perturbed_member():
    fam = basis(make_spec("AE", 3))
    member = fam.members[1]
    broken = ScalarJetFunction(
        member.label + "+u_x1",
        lambda v: member.fn(v) + v.du(1, 0),
        tuple(set(member.deps) | {d1_coord(1, 0)}), fam.space)
    report = check_absolute(_ops("AE", 3), [broken], n_samples=5, seed=3)
    assert report.verdict == "FAIL"


def test_independence_rank_full_for_euclid():
    fam = basis(make_spec("AE", 3))
    rep = independence_rank(fam, n_samples=4, seed=1)
    assert rep.rank == 7
    assert rep.verdict == "PASS"


def test_independence_detects_functional_dependence():
    space = JetSpace(3, 1)
    deps = tuple(d2_coord(1, i, j) for i in range(3) for j in range(i, 3))

    def s1(v):
        return v.ddu(1, 0, 0) + v.ddu(1, 1, 1) + v.ddu(1, 2, 2)

    fam = [ScalarJetFunction("S1", s1, deps, space),
           ScalarJetFunction("S1^2", lambda v: s1(v) * s1(v), deps, space)]
    rep = independence_rank(fam, n_samples=3, seed=1)
    assert rep.rank == 1
    assert rep.verdict == "FAIL"


def test_two_matrix_traces_are_independent():
    rep = independence_rank(two_matrix_trace_family(3), n_samples=4, seed=2)
    assert rep.rank == 9


def test_two_matrix_traces_degenerate_at_identity():
    fam = two_matrix_trace_family(3)
    point = sample_generic(3, 2, seed=1)
    for i in range(3):
        for j in range(i, 3):
            point = point.replace(d2_coord(1, i, j), 1.0 if i == j else 0.0)
    from invforge.liealg import matrix_rank
    from invforge.verify import family_jacobian

    rows = family_jacobian(list(fam.members), point, fam.deps)
    rank, _ = matrix_rank(rows)
    assert rank < 9


def test_completeness_euclid():
    spec = make_spec("AE", 3)
    rep = completeness(spec, basis(spec), n_samples=8, seed=1)
    assert (rep.n_jet_vars, rep.algebra_rank, rep.expected) == (10, 3, 7)
    assert rep.verdict == "PASS"


def test_completeness_rotation_pairs():
    from invforge.invcat import rotation_pair_family

    spec = make_spec("AO", 3, m=2)
    rep = completeness(spec, rotation_pair_family(3), n_samples=6, seed=1)
    assert rep.expected == 15  # n(n+7)/2
    assert rep.verdict == "PASS"


def test_completeness_conformal_expected_count():
    spec = make_spec("AC", 3, lam=1.0)
    rep = completeness(spec, basis(spec), n_samples=8, seed=1)
    assert rep.expected == 3
    assert rep.verdict == "PASS"


def test_completeness_fails_for_truncated_family():
    spec = make_spec("AE", 3)
    fam = basis(spec)
    truncated = type(fam)(fam.label + " truncated", fam.algebra,
                          fam.members[:5], 5, fam.space, fam.deps)
    rep = completeness(spec, truncated, n_samples=6, seed=1)
    assert rep.verdict == "FAIL"
    assert rep.expected != rep.family_size


def reference_completeness(spec, family, n_samples, seed):
    """``completeness`` from the three public calls it counts with: the
    generic rank at the family's points, the independence rank and the
    invariance check, each drawing its own points."""
    ops = [prolong2(f) for f in catalog(spec)]
    trials = max(3, n_samples // 2)
    alg_rank = generic_rank(ops, family.space.sampler(seed), trials=trials,
                            coords=list(family.deps))
    rank = independence_rank(family, n_samples=trials, seed=seed).rank
    invariance = check_absolute(ops, family, n_samples=n_samples,
                                seed=seed).verdict
    size = len(family.members)
    expected = len(family.deps) - alg_rank
    ok = expected == size and rank == size and invariance == "PASS"
    return CompletenessReport(family.label, len(family.deps), alg_rank,
                              expected, size, rank, invariance,
                              "PASS" if ok else "FAIL")


def _with_members(fam, label, members):
    return type(fam)(label, fam.algebra, tuple(members), len(members),
                     fam.space, fam.deps)


def _completeness_cases():
    from invforge.invcat import rotation_pair_family

    cases = {name: (make_spec(name, 3), None)
             for name in ("AO", "AE", "AE1", "AC", "AP", "APtilde", "AC1n")}
    cases["rotation-pairs"] = (make_spec("AO", 3, m=2),
                               rotation_pair_family(3))
    ae = make_spec("AE", 3)
    fam = basis(ae)
    raw = ScalarJetFunction("u_x1", lambda v: v.du(1, 0),
                            (d1_coord(1, 0),), fam.space)
    # a FAIL on each count: one member short, one non-invariant extra
    cases["AE-truncated"] = (ae, _with_members(fam, "truncated",
                                               fam.members[:5]))
    cases["AE-plus-u_x1"] = (ae, _with_members(fam, "plus u_x1",
                                               fam.members + (raw,)))
    return cases


COMPLETENESS_CASES = _completeness_cases()


@pytest.mark.parametrize("n_samples", [2, 4, 10])
@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("name", sorted(COMPLETENESS_CASES))
def test_completeness_equals_its_three_counts(name, seed, n_samples):
    # n_samples = 2 reads three rank points but scores only two
    spec, fam = COMPLETENESS_CASES[name]
    fam = fam or basis(spec)
    assert completeness(spec, fam, n_samples=n_samples, seed=seed) == \
        reference_completeness(spec, fam, n_samples, seed)


class _NonFiniteAt(ScalarJetFunction):
    """A member whose plain value is NaN at one point (by equality)."""

    __slots__ = ("bad",)

    def eval(self, point, view=None):
        return math.nan if point == self.bad else super().eval(point, view)


def test_completeness_generic_rank_reads_the_point_before_a_redraw(
        monkeypatch):
    spec = make_spec("AE", 3)
    fam = basis(spec)
    sampler = fam.space.sampler(1)
    first = fam.members[0]
    poisoned = _NonFiniteAt(first.label, first.fn, first.deps, first.space)
    poisoned.bad = sampler(0)
    fam = _with_members(fam, fam.label, (poisoned,) + fam.members[1:])
    point, _, tried = _draw(sampler, fam.members, 0)
    assert point != tried == sampler(0)

    seen = []
    flow = ProlongedOperator.flow_table

    def recorded(self, at_point, at=None):
        seen.append(at_point)
        return flow(self, at_point, at)

    monkeypatch.setattr(ProlongedOperator, "flow_table", recorded)
    for n_samples in (2, 4, 10):
        seen.clear()
        assert completeness(spec, fam, n_samples=n_samples, seed=1) == \
            reference_completeness(spec, fam, n_samples, 1)
        assert tried in seen and point in seen


@pytest.mark.parametrize("n_samples", [0, -3])
def test_checks_refuse_fewer_than_one_sample(n_samples):
    spec = make_spec("AE", 3)
    fam = basis(spec)
    ops = _ops("AE", 3)
    heat = equation_function("heat", 3, mu=1.0)
    for check in (
            lambda: check_absolute(ops, fam, n_samples=n_samples),
            lambda: check_on_manifold(_ops("AP", 3), heat,
                                      n_samples=n_samples),
            lambda: independence_rank(fam, n_samples=n_samples),
            lambda: completeness(spec, fam, n_samples=n_samples),
            lambda: check_covariance(covariant_tensor("hessian", 3), ops,
                                     n_samples=n_samples)):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            check()


def test_on_manifold_heat_full_projective_algebra():
    E = equation_function("heat", 3, mu=1.0)
    report = check_on_manifold(_ops("AG2_I", 3, mu=1.0, rep="u"), E,
                               solve_for=d1_coord(1, 0), n_samples=8, seed=2)
    assert report.verdict == "PASS"
    assert report.max_residual() < 1e-8


def test_on_manifold_born_infeld():
    E = equation_function("born-infeld", 3)
    report = check_on_manifold(_ops("AP_BornInfeld", 3), E,
                               solve_for=d2_coord(1, 0, 0), n_samples=8,
                               seed=2)
    assert report.verdict == "PASS"


def test_on_manifold_quasilinear_eikonal():
    E = equation_function("eikonal-quasilinear", 3)
    ops = _ops("AP_inf", 3, seed=11, instances=3, extended=True)
    report = check_on_manifold(ops, E, n_samples=6, seed=4)
    assert report.verdict == "PASS"


def _nan_translation(n_base):
    """x0 * nan along x0: every prolonged coefficient it has is NaN."""
    zero = lambda xs, us: 0.0
    return prolong2(VectorField(
        n_base, 1, [lambda xs, us: xs[0] * math.nan] + [zero] * (n_base - 1),
        [zero], "nan"))


def test_on_manifold_rejects_a_non_finite_residual():
    E = equation_function("heat", 3, mu=1.0)
    with pytest.raises(EvaluationError, match="non-finite residual"):
        check_on_manifold([_nan_translation(E.space.n_base)], E,
                          solve_for=d1_coord(1, 0), n_samples=2, seed=2)


def test_covariance_rejects_a_non_finite_residual():
    with pytest.raises(EvaluationError, match="non-finite fit residual"):
        check_covariance(covariant_tensor("hessian", 3), [_nan_translation(3)],
                         n_samples=2, seed=1)


def test_newton_projection_converges():
    E = equation_function("heat", 3, mu=1.0)
    point = E.space.sampler(3)(0)
    projected = newton_project(E, point, d1_coord(1, 0))
    assert abs(E.eval(projected)) < 1e-12


def test_newton_projection_needs_a_slope():
    space = JetSpace(3, 1)
    flat = ScalarJetFunction("const", lambda v: 1.0 + 0.0 * v.u(1),
                             (field_coord(1),), space)
    with pytest.raises(EvaluationError):
        newton_project(flat, sample_generic(3, 1, seed=1), field_coord(1))


@pytest.fixture
def no_dual(monkeypatch):
    """Make building a ``Dual`` an error: the equation path needs none."""
    def refuse(self, *args):
        raise AssertionError("a Dual was built")
    monkeypatch.setattr(Dual, "__init__", refuse)


with open(FIXTURE, encoding="utf-8") as _fh:
    EQUATION_REPORTS = {argv: entry["exit"]
                        for argv, entry in json.load(_fh).items()
                        if argv.startswith("verify --equation ")}


def test_equation_reports_cover_every_equation():
    named = {argv.split()[2] for argv in EQUATION_REPORTS}
    assert named == set(EQUATIONS)


@pytest.mark.parametrize("argv", sorted(EQUATION_REPORTS))
def test_equation_reports_build_no_dual(argv, no_dual):
    code = cli.main(argv.split() + ["--seed", "0"], stream=io.StringIO())
    assert code == EQUATION_REPORTS[argv]


def test_projection_first_slope_is_exact(no_dual, monkeypatch):
    """heat is linear in u_t: an exact first slope lands in one step."""
    replaced = []
    original = JetPoint.replace

    def counted(self, cid, value):
        replaced.append(cid)
        return original(self, cid, value)
    monkeypatch.setattr(JetPoint, "replace", counted)
    E = equation_function("heat", 3, mu=1.0)
    projected = newton_project(E, E.space.sampler(3)(0), d1_coord(1, 0))
    assert replaced == [d1_coord(1, 0)]
    assert abs(E.eval(projected)) < 1e-12


@pytest.mark.parametrize("name, mass", [
    ("schrodinger", 1.0), ("schrodinger-projective", 1.0),
    ("schrodinger-projective", 0.0)])
def test_projected_points_stay_on_the_conjugate_section(name, mass):
    """A projection moves one slot of the complex pair; its partner slot
    holds the conjugate of the solved value, as at a sampled point."""
    E = equation_function(name, 3, mass=mass)
    draw = verify._projecting_draw(E, EQUATIONS[name].solve_for, 4)
    sampler = E.space.sampler(0)
    cid = EQUATIONS[name].solve_for or verify.affine_coordinate(
        E, sampler(0))
    for s in range(4):
        point, _, _ = draw(sampler, [E], s)
        partner = point.conjugate_index(cid.r)
        assert partner != cid.r
        assert point.value(dataclasses.replace(cid, r=partner)) == \
            point.value(cid).conjugate()
        assert abs(E.eval(point)) < 1e-12


def test_projection_raises_when_a_step_cannot_move(monkeypatch):
    """At u = 1e17 the step u - 1 rounds back to u: the second evaluation
    sees the same coordinate and raises instead of dividing 0 by 0."""
    evals = []
    original = ScalarJetFunction.eval

    def counted(self, point):
        evals.append(point)
        return original(self, point)
    monkeypatch.setattr(ScalarJetFunction, "eval", counted)
    offset = ScalarJetFunction("offset", lambda v: v.u(1) - 1e17 + 1.0,
                               (field_coord(1),), JetSpace(3, 1))
    point = sample_generic(3, 1, seed=1).replace(field_coord(1), 1e17)
    with pytest.raises(EvaluationError, match="did not move"):
        newton_project(offset, point, field_coord(1))
    assert len(evals) <= 2


def test_covariance_theta_and_w():
    ops = _ops("AC", 3, lam=1.0)
    rep = check_covariance(covariant_tensor("theta", 3, lam=1.0), ops,
                           n_samples=5, seed=1)
    assert rep.verdict == "PASS"
    ops0 = _ops("AC", 3, lam=0.0)
    rep_w = check_covariance(covariant_tensor("w", 3), ops0, n_samples=5,
                             seed=1)
    assert rep_w.verdict == "PASS"


def test_covariance_position_vector():
    ops = _ops("AC", 3, lam=1.0)
    rep = check_covariance(covariant_tensor("position", 3), ops,
                           n_samples=4, seed=1)
    assert rep.verdict == "PASS"


def test_covariance_hessian_under_dilation_fit():
    lam = 0.6
    ops = [op for op in _ops("AE1", 3, lam=lam) if op.label == "D"]
    rep = check_covariance(covariant_tensor("hessian", 3), ops,
                           n_samples=3, seed=1)
    assert rep.verdict == "PASS"
    fit = rep.records[0].fit
    # three skew entries then the scalar multiplier
    assert all(abs(v) < 1e-9 for v in fit[:3])
    assert abs(fit[3] - (lam - 2.0)) < 1e-9


def test_on_manifold_eikonal_and_conformal_power():
    E = equation_function("eikonal", 3)
    ops = _ops("AP_inf", 3, seed=13, instances=3)
    rep = check_on_manifold(ops, E, solve_for=d1_coord(1, 0), n_samples=5,
                            seed=9)
    assert rep.verdict == "PASS"
    E2 = equation_function("conformal-power", 3)
    ops2 = _ops("AC1n", 3, lam=0.0)
    rep2 = check_on_manifold(ops2, E2, n_samples=5, seed=9)
    assert rep2.verdict == "PASS"


def test_projective_flow_equations_fail_only_under_projective_generator():
    # the printed trace-square coefficient breaks exactly the projective
    # direction; every other generator still annihilates the residual
    for name, kw in (("galilei-projective", {"mu": 1.0}),
                     ("schrodinger-projective", {"mass": 1.0})):
        E = equation_function(name, 3, **kw)
        from invforge.invcat import EQUATIONS

        spec = EQUATIONS[name].default_algebra(3, kw)
        ops = [prolong2(f) for f in catalog(spec)]
        rep = check_on_manifold(ops, E, n_samples=4, seed=9)
        failed = {r.operator for r in rep.records if r.verdict == "FAIL"}
        assert failed == {"A"}


def test_schrodinger_on_manifold():
    E = equation_function("schrodinger", 3, mass=1.0)
    ops = _ops("AG2_II", 3, mass=1.0, rep="u")
    rep = check_on_manifold(ops, E, solve_for=d1_coord(1, 0), n_samples=5,
                            seed=3)
    assert rep.verdict == "PASS"
    assert rep.max_residual() < 1e-8


def reference_family_jacobian(members, point, coords):
    """Scalar forward mode: one seeded pass per coordinate shared by the
    members that depend on it."""
    rows = [[0.0] * len(coords) for _ in members]
    dep_sets = [set(m.deps) for m in members]
    for ci, c in enumerate(coords):
        view = None
        for mi, m in enumerate(members):
            if c not in dep_sets[mi]:
                continue
            if view is None:
                view = seeded_view(point, c)
            out = m.fn(view)
            rows[mi][ci] = out.deriv if isinstance(out, Dual) else 0.0
    return rows


def reference_grad(fn, point, coords):
    """Scalar forward mode: one seeded pass per dependency coordinate."""
    deps = set(fn.deps)
    out = []
    for c in coords:
        if c not in deps:
            out.append(0.0)
            continue
        res = fn.fn(seeded_view(point, c))
        out.append(res.deriv if isinstance(res, Dual) else 0.0)
    return out


_BASES_N3 = ("AO", "AE", "AE1", "AC", "AP", "APtilde", "AC1n", "AG_I",
             "AG1_I", "AG2_I", "AG_II", "AG1_II", "AG2_II")
_TENSORS = (("theta", {"lam": 1.0}), ("w", {}),
            ("theta_minkowski", {"lam": 1.0}), ("w_minkowski", {}),
            ("implicit_theta", {}), ("hessian", {}))


def _jacobian_cases():
    for name in _BASES_N3:
        for hat in ("printed", "uniform"):
            yield f"{name}:{hat}", (name, 3, hat)
    for n in (4, 5):
        yield f"AE:n={n}", ("AE", n, "printed")
    for tname, kw in _TENSORS:
        yield f"tensor:{tname}", (tname, kw)


@pytest.mark.parametrize("case", [c for _, c in _jacobian_cases()],
                         ids=[i for i, _ in _jacobian_cases()])
def test_family_jacobian_equals_scalar_passes(case):
    # vector mode must reproduce every entry bit for bit (repr keeps
    # signed zeros and complex parts)
    if isinstance(case[1], dict):
        tensor = covariant_tensor(case[0], 3, **case[1])
        members, coords, space = tensor.components(), tensor.deps, \
            tensor.space
    else:
        name, n, hat = case
        spec = make_spec(name, n, **({"rep": "log"}
                                     if name.startswith("AG") else {}))
        fam = basis(spec, hat_variant=hat)
        members, coords, space = list(fam.members), fam.deps, fam.space
    sampler = space.sampler(5)
    for s in range(3):
        point = sampler(s)
        assert repr(family_jacobian(members, point, coords)) == \
            repr(reference_family_jacobian(members, point, coords))


@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_residual_grad_equals_scalar_passes(name):
    E = equation_function(name, 3)
    sampler = E.space.sampler(5)
    for s in range(3):
        point = sampler(s)
        for coords in (E.deps, point.coords()):
            assert repr(E.grad(point, coords)) == \
                repr(reference_grad(E, point, coords))


# every cataloged basis at n = 3, the massless AG2_II family, every
# equation row and the benchmark's expressions, as the CLI checks them
_SEEDED_CALLS = (
    [["--algebra", name, "--n", "3"] for name in _BASES_N3]
    + [["--algebra", "AG2_II", "--mass", "0", "--lambda", lam, "--n", "3"]
       for lam in MASSLESS_LAMBDAS]
    + [["--equation", name, "--n", "3"] for name in EQUATIONS]
    + [["--algebra", name, "--n", n, *extra, "--expr", expr]
       for name, n, extra, expr in EXPRESSIONS])


@pytest.mark.parametrize("argv", _SEEDED_CALLS, ids=" ".join)
def test_seeded_residuals_match_the_jacobian_dot_products(argv, monkeypatch):
    """At the points a check draws, the pass seeded with the flow rows
    gives each X_j(F) as the flow row's dot product with F's gradient,
    within 2e-11 (1 + |X_j(F)|) and the rounding of the dot product's
    terms: the massless AG2_II member N1*e^(4/lambda)(phi+phi*) has terms
    near 1e17 that cancel, and both passes give rounding noise there."""
    seen = []
    original = verify._points

    def points(ops, members, coords, *args):
        for item in original(ops, members, coords, *args):
            seen.append((ops, members, coords, item[0], item[3]))
            yield item
    monkeypatch.setattr(verify, "_points", points)
    cli.main(["verify", *argv, "--samples", "2", "--seed", "0"],
             stream=io.StringIO())
    assert len(seen) == 2
    for ops, members, coords, point, rows in seen:
        view = operator_view(point, coords, rows)
        for m, grad in zip(members, family_jacobian(members, point, coords)):
            seeded = derivs(m.fn(view), len(ops))
            for row, got in zip(rows, seeded, strict=True):
                want = sum_prod(row, grad)
                terms = sum(abs(c * g) for c, g in zip(row, grad))
                assert abs(got - want) <= \
                    2e-11 * (1 + abs(want)) + 1e-14 * terms, \
                    (m.label, got, want)


def test_verdict_digest_expect_exits_1_on_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(verdict_digest, "calls", lambda: iter(()))
    monkeypatch.setattr(verdict_digest, "covariance_calls", lambda: iter(()))
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert verdict_digest.main([]) == 0
    assert verdict_digest.main(["--expect", empty]) == 0
    assert verdict_digest.main(["--expect", "faef9521"]) == 1
    err = capsys.readouterr().err
    assert "expected faef9521" in err and f"got {empty}" in err


@pytest.fixture
def jacobian_calls(monkeypatch):
    """Count ``verify.family_jacobian`` calls."""
    calls = []
    original = verify.family_jacobian

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(verify, "family_jacobian", counted)
    return calls


def test_invariance_checks_build_no_jacobian(jacobian_calls):
    fam = basis(make_spec("AE", 3))
    check_absolute(_ops("AE", 3), fam, n_samples=5, seed=1)
    E = equation_function("heat", 3, mu=1.0)
    check_on_manifold(_ops("AG2_I", 3, rep="u"), E, solve_for=d1_coord(1, 0),
                      n_samples=5, seed=1)
    assert jacobian_calls == []


def test_ranks_build_the_jacobian_where_they_read_it(jacobian_calls):
    spec = make_spec("AE", 3)
    completeness(spec, basis(spec), n_samples=20, seed=1)
    assert len(jacobian_calls) == max(3, 20 // 2) == 10
    jacobian_calls.clear()
    independence_rank(basis(spec), n_samples=4, seed=1)
    assert len(jacobian_calls) == 4
    jacobian_calls.clear()
    check_covariance(covariant_tensor("hessian", 3), _ops("AE1", 3, lam=0.6),
                     n_samples=3, seed=1)
    assert len(jacobian_calls) == 3


# every cataloged tensor, with an algebra over its jet space
_COVARIANCE_PAIRS = (
    ("theta", {"lam": 1.0}, "AC", {"lam": 1.0}),
    ("theta", {"lam": 0.5}, "AC", {"lam": 0.5}),
    ("w", {}, "AC", {"lam": 0.0}),
    ("theta_minkowski", {"lam": 1.0}, "AC1n", {"lam": 1.0}),
    ("w_minkowski", {}, "AC1n", {"lam": 0.0}),
    ("theta_vector_minkowski", {}, "AP", {}),
    ("theta_vector_minkowski", {"r": 2, "m": 2}, "AP", {"m": 2}),
    ("eikonal_theta", {}, "AP", {}),
    ("galilei_theta", {}, "AG_I", {"rep": "u"}),
    ("galilei_theta2", {}, "AG_I", {"rep": "u"}),
    ("galilei_h", {}, "AG_I", {"rep": "u"}),
    ("galilei_hhat_mu0", {"mu": 0.0}, "AG2_I", {"mu": 0.0, "rep": "u"}),
    ("implicit_theta", {}, "AG2_I", {"mu": 0.0, "rep": "u"}),
    ("hessian", {}, "AE1", {"lam": 0.6}),
    ("position", {}, "AO", {}),
)


def test_covariance_pairs_cover_every_tensor():
    assert {pair[0] for pair in _COVARIANCE_PAIRS} == set(TENSORS)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("pair", _COVARIANCE_PAIRS,
                         ids=[f"{t}{kw}-{a}" for t, kw, a, _ in
                              _COVARIANCE_PAIRS])
def test_covariance_equals_its_own_loop_reference(pair, n):
    # repr keeps the fits (compared by nothing else) and signed zeros
    tname, tkw, aname, akw = pair
    tensor = covariant_tensor(tname, n, **tkw)
    ops = _ops(aname, n, **akw)
    for seed in range(6):
        assert repr(check_covariance(tensor, ops, n_samples=3, seed=seed)) \
            == repr(reference_covariance(tensor, ops, n_samples=3, seed=seed))


# tensors that are not covariant under the special conformal generators
# K1..Kn of the algebra, and are under every other generator
_COVARIANCE_CONTROLS = (
    ("hessian", {}, "AC", {"lam": 1.0}),
    ("theta", {"lam": 0.6}, "AC", {"lam": 1.0}),
)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("pair", _COVARIANCE_CONTROLS,
                         ids=[f"{t}{kw}-{a}" for t, kw, a, _ in
                              _COVARIANCE_CONTROLS])
def test_covariance_controls_fail_exactly_the_special_conformal_generators(
        pair, n):
    tname, tkw, aname, akw = pair
    tensor = covariant_tensor(tname, n, **tkw)
    ops = _ops(aname, n, **akw)
    special = {f"K{i}" for i in range(1, n + 1)}
    assert special < {op.label for op in ops}
    for seed in range(6):
        rep = check_covariance(tensor, ops, n_samples=4, seed=seed)
        assert {r.operator for r in rep.records if r.verdict == "FAIL"} \
            == special


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("rep,extra", [("u", {"I"}), ("log", set())])
def test_galilei_theta2_fails_the_boosts(rep, extra, n):
    # pinned as found, unexplained: the printed theta2 is not covariant
    # under the boosts G1..Gn, and under the field scaling I on u-jets
    tensor = covariant_tensor("galilei_theta2", n)
    ops = _ops("AG_I", n, rep=rep)
    boosts = {f"G{i}" for i in range(1, n + 1)}
    for seed in range(6):
        report = check_covariance(tensor, ops, n_samples=4, seed=seed)
        assert {r.operator for r in report.records if r.verdict == "FAIL"} \
            == boosts | extra


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("pair", _COVARIANCE_PAIRS + _COVARIANCE_CONTROLS,
                         ids=[f"{t}{kw}-{a}" for t, kw, a, _ in
                              _COVARIANCE_PAIRS + _COVARIANCE_CONTROLS])
def test_covariance_fit_agrees_with_gram_schmidt(pair, n, monkeypatch):
    # the pivot fit against the least-squares fit it replaced: the same
    # verdicts, and on a matrix tensor's PASS the same fit; a vector
    # tensor has more unknowns than equations, so its zeroed coefficients
    # may differ
    tname, tkw, aname, akw = pair
    tensor = covariant_tensor(tname, n, **tkw)
    ops = _ops(aname, n, **akw)
    for seed in range(6):
        rep = check_covariance(tensor, ops, n_samples=3, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(verify, "_lstsq",
                      lambda a, bs: [mgs_lstsq(a, b) for b in bs])
            ref = check_covariance(tensor, ops, n_samples=3, seed=seed)
        for rec, mgs in zip(rep.records, ref.records, strict=True):
            assert rec.verdict == mgs.verdict, rec.operator
            if rec.verdict == "PASS":
                assert rec.residual <= 1e-12 * (1.0 + rec.scale)
                if tensor.kind == "matrix":
                    assert max(abs(x - y) for x, y in
                               zip(rec.fit, mgs.fit, strict=True)) <= 1e-9


@pytest.mark.parametrize("name", _BASES_N3)
def test_independence_rank_equals_its_own_loop_reference(name):
    spec = make_spec(name, 3, **({"rep": "log"} if name.startswith("AG")
                                 else {}))
    fam = basis(spec)
    for seed in (0, 3):
        for n_samples in (1, 4):
            assert repr(independence_rank(fam, n_samples, seed)) == repr(
                reference_independence_rank(fam, n_samples, seed))


@pytest.mark.parametrize("n_samples", [1, 3])
def test_on_manifold_tries_20_n_plus_101_samples(n_samples):
    # a residual constant in its solve coordinate never projects
    flat = ScalarJetFunction("flat", lambda v: v.u(1) * 0.0 + 1.0,
                             (field_coord(1),), JetSpace(3, 1))
    sampler = flat.space.sampler(1)
    calls = []

    def counted(idx):
        calls.append(idx)
        return sampler(idx)

    with pytest.raises(EvaluationError,
                       match="persistent Newton projection failure"):
        check_on_manifold(_ops("AE", 3), flat, solve_for=field_coord(1),
                          n_samples=n_samples, sampler=counted)
    assert calls == list(range(20 * n_samples + 101))


# the rows that name no solve coordinate, with the parameters that zero the
# coefficient of u_tt in the projective rows
_AFFINE_ROWS = (("eikonal-quasilinear", {}), ("eikonal-trace", {}),
                ("conformal-power", {}), ("galilei-projective", {}),
                ("schrodinger-projective", {}),
                ("galilei-projective", {"mu": 0.0}),
                ("schrodinger-projective", {"mass": 0.0}))


def _counted_sampler(residual, seed):
    base = residual.space.sampler(seed)
    calls = []

    def sampler(idx):
        calls.append(idx)
        return base(idx)
    return sampler, calls


@pytest.mark.parametrize("name,params", _AFFINE_ROWS,
                         ids=[f"{n}{p}" for n, p in _AFFINE_ROWS])
def test_rows_without_a_coordinate_project_every_sample(name, params):
    # a rejected projection costs one more sampler call
    assert EQUATIONS[name].solve_for is None
    for n in (3, 4):
        E = EQUATIONS[name].build(n, **params)
        for seed in range(5):
            sampler, calls = _counted_sampler(E, seed)
            check_on_manifold([], E, n_samples=5, sampler=sampler)
            assert calls == list(range(5)), (n, seed)


@pytest.mark.parametrize("name,params", _AFFINE_ROWS,
                         ids=[f"{n}{p}" for n, p in _AFFINE_ROWS])
def test_rows_without_a_coordinate_land_in_one_step(name, params,
                                                    monkeypatch):
    """Along the picked coordinate the residual is affine, so the secant's
    first step, on the exact slope, lands on the zero set.  On a complex
    pair the landed point then takes the conjugate into the partner slot."""
    from invforge import verify

    steps = []
    original_replace = JetPoint.replace
    original_project = verify.newton_project

    def replace(self, cid, value):
        steps[-1].append(cid)
        return original_replace(self, cid, value)

    def project(*args):
        steps.append([])
        return original_project(*args)
    monkeypatch.setattr(JetPoint, "replace", replace)
    monkeypatch.setattr(verify, "newton_project", project)
    for n in (3, 4):
        E = EQUATIONS[name].build(n, **params)
        picked = verify.affine_coordinate(E, E.space.sampler(0)(0))
        partner = E.space.sampler(0)(0).conjugate_index(picked.r)
        step = [picked] + ([dataclasses.replace(picked, r=partner)]
                           if partner != picked.r else [])
        steps.clear()
        check_on_manifold([], E, n_samples=5, seed=0)
        assert steps == [step] * 5, n


def test_picked_coordinates():
    from invforge.verify import affine_coordinate

    for name, params, want in (
            ("eikonal-quasilinear", {}, d2_coord(1, 0, 0)),
            ("conformal-power", {}, d2_coord(1, 0, 0)),
            ("galilei-projective", {}, d2_coord(1, 0, 0)),
            ("galilei-projective", {"mu": 0.0}, d2_coord(1, 1, 2)),
            ("schrodinger-projective", {"mass": 0.0}, d2_coord(1, 1, 2)),
            ("eikonal-trace", {"k": 2}, None)):
        E = equation_function(name, 3, **params)
        assert affine_coordinate(E, E.space.sampler(0)(0)) == want, name


def test_eikonal_trace_k2_keeps_the_largest_derivative(monkeypatch):
    """The k = 2 trace is quadratic in U and has no affine coordinate: every
    projection moves its sample's largest-derivative coordinate, and the
    rejections per (n, seed) are the ones before the rule."""
    from invforge import verify

    solve_fors = []
    original = verify.newton_project

    def project(residual, point, solve_for=None):
        solve_fors.append(solve_for)
        return original(residual, point, solve_for)
    monkeypatch.setattr(verify, "newton_project", project)
    info = EQUATIONS["eikonal-trace"]
    rejected = []
    for n in (3, 4):
        E = info.build(n, k=2)
        for seed in range(5):
            sampler, calls = _counted_sampler(E, seed)
            ops = [prolong2(f) for f in catalog(
                info.default_algebra(n, {"seed": seed}))]
            rep = check_on_manifold(ops, E, n_samples=5, sampler=sampler)
            assert rep.verdict == "PASS"
            rejected.append(len(calls) - 5)
    assert rejected == [0, 2, 1, 1, 2, 3, 3, 8, 0, 1]
    assert set(solve_fors) == {None}


@pytest.mark.parametrize("name,params,passes", [
    ("eikonal-trace", {"k": 2}, 1), ("galilei-projective", {}, 1),
    ("heat", {}, 0), ("born-infeld", {}, 0)])
def test_the_rule_makes_one_pass_per_check(name, params, passes,
                                           monkeypatch):
    """One diagonal Jet2 pass at the first sample of a check whose row names
    no coordinate, none per draw, none when the row names one."""
    from invforge import verify

    views = []
    original = verify.curvature_view

    def counted(point, coords):
        views.append(point)
        return original(point, coords)
    monkeypatch.setattr(verify, "curvature_view", counted)
    E = equation_function(name, 3, **params)
    solve_for = EQUATIONS[name].solve_for
    check_on_manifold([], E, solve_for=solve_for, n_samples=8, seed=1)
    assert len(views) == passes
    assert views == [E.space.sampler(1)(0)] * passes


def test_affine_coordinate_on_ad_hoc_residuals():
    from invforge.verify import affine_coordinate

    space = JetSpace(3, 1)
    point = sample_generic(3, 1, seed=2)
    d1s = tuple(d1_coord(1, i) for i in range(3))
    d2s = (d2_coord(1, 0, 0), d2_coord(1, 1, 2))

    def residual(fn):
        return ScalarJetFunction("r", fn, d1s + d2s, space)

    # a d2 coordinate wins over an earlier-listed affine d1 one
    assert affine_coordinate(residual(
        lambda v: v.du(1, 0) + v.ddu(1, 0, 0) * v.du(1, 1)), point) \
        == d2_coord(1, 0, 0)
    # no d2 coordinate is affine: the first affine d1 one
    assert affine_coordinate(residual(
        lambda v: v.du(1, 0) ** 2 * v.du(1, 2) + v.ddu(1, 0, 0) ** 2
        + v.ddu(1, 1, 2) ** 3), point) == d1_coord(1, 2)
    # a coordinate with a zero first derivative is not picked
    assert affine_coordinate(residual(
        lambda v: 0.0 * v.ddu(1, 0, 0) + v.du(1, 1)), point) \
        == d1_coord(1, 1)
    # no coordinate is affine, or none is read
    assert affine_coordinate(residual(
        lambda v: v.du(1, 0) ** 2 + v.du(1, 1) ** 2 * v.du(1, 2) ** 2
        + dexp(v.ddu(1, 0, 0)) + v.ddu(1, 1, 2) ** 2), point) is None
    assert affine_coordinate(residual(lambda v: 1.0 + v.u(1)), point) is None

    # a residual that cannot be evaluated at the first sample picks none,
    # so the check skips that sample as before
    def undefined(v):
        raise EvaluationError("outside the domain")
    assert affine_coordinate(residual(undefined), point) is None


def _unmarked(spec):
    """The algebra's generators rebuilt from the same coefficient
    functions with no constant mark, so every sweep takes the full path."""
    return [VectorField(f.n_base, f.n_fields, f.xi, f.eta, f.label)
            for f in catalog(spec)]


def _has_basis(name, n):
    try:
        basis(make_spec(name, n, **({"rep": "log"} if name.startswith("AG")
                                    else {})))
    except ValueError:
        return False
    return True


# the cataloged bases at n = 3 and 4, the massless AG2_II family, every
# equation row and the completeness algebras, as the CLI checks them
_LEFT_OUT_CALLS = (
    [["verify", "--algebra", name, "--n", str(n)]
     for n in (3, 4) for name in _BASES_N3 if _has_basis(name, n)]
    + [["verify", "--algebra", "AG2_II", "--mass", "0", "--lambda", lam,
        "--n", "3"] for lam in MASSLESS_LAMBDAS]
    + [["verify", "--equation", name, "--n", "3"] for name in EQUATIONS]
    + [["completeness", "--algebra", name, "--n", "3"]
       for name in verdict_digest.COMPLETENESS_ALGEBRAS])


@pytest.mark.parametrize("argv", _LEFT_OUT_CALLS, ids=" ".join)
def test_left_out_operators_keep_every_record(argv, monkeypatch):
    """Leaving out the operators that move none of a check's coordinates
    changes no record (operator, member, residual, scale, verdict) and no
    completeness count: at seeds 0-3, each sweep's result, in ``repr``,
    is that of the same check on unmarked generators."""
    def sweeps(unmarked):
        """Per seed, the repr of each record and rank, then the exit code
        and output."""
        got = []
        original = verify._sweep

        def recorded(*args, **kw):
            records, *ranks = out = original(*args, **kw)
            got.extend(map(repr, [*records, ranks]))
            return out
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_sweep", recorded)
            if unmarked:
                patch.setattr(cli, "catalog", _unmarked)
                patch.setattr(verify, "catalog", _unmarked)
            for seed in range(4):
                out = io.StringIO()
                code = cli.main([*argv, "--samples", "3", "--seed",
                                 str(seed)], stream=out)
                got.append(f"exit={code}\n{out.getvalue()}")
        return got
    got, want = sweeps(False), sweeps(True)
    assert any(line.startswith("InvarianceRecord(") for line in got)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b


def test_a_translation_is_left_out_where_no_base_coordinate_is_read(
        monkeypatch):
    built = []
    original = ProlongedOperator.flow_table

    def flow_table(self, *args):
        built.append(self.label)
        return original(self, *args)
    monkeypatch.setattr(ProlongedOperator, "flow_table", flow_table)
    fam = basis(make_spec("AE", 3))
    assert not any(c.kind == "base" for c in fam.deps)
    report = check_absolute(_ops("AE", 3), fam, n_samples=3, seed=0)
    assert built and not {"P1", "P2", "P3"} & set(built)
    left_out = [r for r in report.records if r.operator.startswith("P")]
    assert len(left_out) == 3 * len(fam.members)
    assert all(repr((r.max_residual, r.scale, r.verdict)) ==
               "(0.0, 0.0, 'PASS')" for r in left_out)


def test_a_translation_is_kept_where_its_base_coordinate_is_read():
    out = io.StringIO()
    assert cli.main(["verify", "--algebra", "AE", "--n", "3", "--expr",
                     "x1 * u_x1", "--seed", "0"], stream=out) == 1
    lines = out.getvalue().splitlines()
    assert "FAIL expression:P1 residual=1.994e+00" in lines
    assert "PASS expression:P2 residual=0.000e+00" in lines
