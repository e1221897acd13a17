"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here, not tuned at runtime."""

import json
import subprocess
import sys

import pytest

from invforge.exprlang import bind
from invforge.invcat import (
    basis,
    covariant_tensor,
    equation_function,
    two_matrix_trace_family,
)
from invforge.jetspace import (
    d1_coord,
    d2_coord,
    enumerate_coords,
    minkowski,
    sample_generic,
)
from invforge.liealg import (
    catalog,
    generic_rank,
    make_sampler,
    make_spec,
    matrix_rank,
    prolong2,
)
from invforge.verify import (
    check_absolute,
    check_covariance,
    check_on_manifold,
    completeness,
    family_jacobian,
    independence_rank,
)
from references import power_form, power_trace


def _note(criterion, ok, detail=""):
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _ops(name, n, **kw):
    return [prolong2(f) for f in catalog(make_spec(name, n, **kw))]


def test_01_rotation_prolongation_fidelity():
    from test_liealg import rotation_closed_form

    worst = 0.0
    for n in (3, 4):
        spec = make_spec("AE", n)
        rotations = [f for f in catalog(spec) if f.label.startswith("J")]
        for seed in range(20):
            point = sample_generic(n, 1, seed=seed)
            for fld in rotations:
                a, b = int(fld.label[1]) - 1, int(fld.label[2]) - 1
                table = prolong2(fld).coefficient_table(point)
                want = rotation_closed_form(point, a, b)
                for cid in enumerate_coords(n, 1):
                    worst = max(worst,
                                abs(table[cid] - want.get(cid, 0.0)))
    _note(1, worst <= 1e-12, f"max deviation {worst:.2e}")


def test_02_rotation_algebra_rank():
    ok = True
    detail = []
    for n in (3, 4, 5):
        rank = generic_rank(_ops("AO", n), make_sampler(n, 1, seed=1),
                            trials=3)
        detail.append(f"n={n}: {rank}")
        ok = ok and rank == n * (n - 1) // 2
    _note(2, ok, ", ".join(detail))


@pytest.mark.parametrize("n", [3, 4])
def test_03_euclid_scalar_basis(n):
    spec = make_spec("AE", n)
    fam = basis(spec)
    ops = _ops("AE", n)
    inv = check_absolute(ops, fam, n_samples=10, seed=1)
    rank = independence_rank(fam, n_samples=4, seed=1)
    comp = completeness(spec, fam, n_samples=10, seed=1)
    ok = (len(fam.members) == 2 * n + 1 and inv.verdict == "PASS"
          and rank.rank == 2 * n + 1 and comp.verdict == "PASS"
          and comp.expected == 2 * n + 1)
    _note(3, ok, f"n={n}: invariance {inv.verdict}, rank {rank.rank}, "
                 f"completeness {comp.expected}")


def test_04_euclid_two_field_basis():
    spec = make_spec("AE", 3, m=2)
    fam = basis(spec)
    inv = check_absolute(_ops("AE", 3, m=2), fam, n_samples=8, seed=2)
    rank = independence_rank(fam, n_samples=4, seed=2)
    ok = (len(fam.members) == 17 and inv.verdict == "PASS"
          and rank.rank == 17)
    _note(4, ok, f"size {len(fam.members)}, invariance {inv.verdict}, "
                 f"rank {rank.rank}")


def test_05_two_matrix_traces():
    ok = True
    detail = []
    for n in (3, 4):
        fam = two_matrix_trace_family(n)
        rep = independence_rank(fam, n_samples=4, seed=3)
        detail.append(f"n={n}: rank {rep.rank}")
        ok = ok and rep.rank == n * (n + 3) // 2
    # degeneracy at the identity first matrix
    fam = two_matrix_trace_family(3)
    point = sample_generic(3, 2, seed=1)
    for i in range(3):
        for j in range(i, 3):
            point = point.replace(d2_coord(1, i, j), 1.0 if i == j else 0.0)
    rank, _ = matrix_rank(family_jacobian(list(fam.members), point, fam.deps))
    ok = ok and rank < 9
    _note(5, ok, ", ".join(detail) + f", identity rank {rank}")


def test_06_dilation_and_conformal_branches():
    ok = True
    details = []
    for lam in (1.0, 0.0):
        fam = basis(make_spec("AE1", 3, lam=lam))
        rep = check_absolute(_ops("AE1", 3, lam=lam), fam, n_samples=8,
                             seed=4)
        ok = ok and rep.verdict == "PASS"
        details.append(f"dilation lam={lam:g}: {rep.verdict}")
    for lam in (1.0, 2.0, 0.0):
        fam = basis(make_spec("AC", 3, lam=lam))
        rep = check_absolute(_ops("AC", 3, lam=lam), fam, n_samples=8,
                             seed=4)
        ok = ok and rep.verdict == "PASS" and len(fam.members) == 3
        details.append(f"conformal lam={lam:g}: {rep.verdict}")
    cov_t = check_covariance(covariant_tensor("theta", 3, lam=1.0),
                             _ops("AC", 3, lam=1.0), n_samples=5, seed=4)
    cov_w = check_covariance(covariant_tensor("w", 3),
                             _ops("AC", 3, lam=0.0), n_samples=5, seed=4)
    ok = ok and cov_t.verdict == "PASS" and cov_w.verdict == "PASS"
    details.append(f"covariance theta {cov_t.verdict}, w {cov_w.verdict}")
    _note(6, ok, "; ".join(details))


def test_07_poincare_families_and_trace_identity():
    details = []
    fam = basis(make_spec("AP", 3, m=2))
    rep = check_absolute(_ops("AP", 3, m=2), fam, n_samples=6, seed=5)
    ok = len(fam.members) == 24 and rep.verdict == "PASS"
    details.append(f"24-member family {rep.verdict}")
    for lam in (0.0, 1.0):
        famx = basis(make_spec("APtilde", 3, m=2, lam=lam))
        repx = check_absolute(_ops("APtilde", 3, m=2, lam=lam), famx,
                              n_samples=5, seed=5)
        ok = ok and repx.verdict == "PASS"
        details.append(f"dilation branch lam={lam:g}: {repx.verdict}")
    # metric trace of the w tensor equals the quasilinear combination
    tb = covariant_tensor("w_minkowski", 3)
    met = minkowski(4)
    worst = 0.0
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
        want = sq * lap / (1.0 - 3) - form
        worst = max(worst, abs(tr - want) / (1.0 + abs(want)))
    ok = ok and worst <= 1e-12
    details.append(f"trace identity {worst:.1e}")
    _note(7, ok, "; ".join(details))


def test_08_equations_on_solution_manifolds():
    details = []
    ok = True

    def run(label, eq_name, algebra_ops, solve_for=None, **params):
        nonlocal ok
        residual = equation_function(eq_name, 3, **params)
        rep = check_on_manifold(algebra_ops, residual, solve_for=solve_for,
                                n_samples=6, seed=6)
        ok = ok and rep.verdict == "PASS" and rep.max_residual() < 1e-8
        details.append(f"{label} {rep.verdict}")

    run("heat", "heat", _ops("AG2_I", 3, mu=1.0, rep="u"),
        solve_for=d1_coord(1, 0), mu=1.0)
    run("schrodinger", "schrodinger", _ops("AG2_II", 3, mass=1.0, rep="u"),
        solve_for=d1_coord(1, 0), mass=1.0)
    run("born-infeld", "born-infeld", _ops("AP_BornInfeld", 3),
        solve_for=d2_coord(1, 0, 0))
    run("quasilinear eikonal", "eikonal-quasilinear",
        _ops("AP_inf", 3, seed=21, instances=3, extended=True))
    for k in (1, 2):
        run(f"trace equation k={k}", "eikonal-trace",
            _ops("AP_inf", 3, seed=23, instances=3), k=k)
    _note(8, ok, "; ".join(details))


def test_09_galilei_families_with_per_member_reports():
    details = []
    fam = basis(make_spec("AG_I", 3, mu=1.0, rep="log"))
    rep = check_absolute(_ops("AG_I", 3, mu=1.0, rep="log"), fam,
                         n_samples=8, seed=7)
    ok = len(fam.members) == 8 and rep.verdict == "PASS"
    details.append(f"boost family {rep.verdict}")
    fam1 = basis(make_spec("AG1_I", 3, mu=1.0, lam=0.7, rep="log"))
    rep1 = check_absolute(_ops("AG1_I", 3, mu=1.0, lam=0.7, rep="log"), fam1,
                          n_samples=8, seed=7)
    ok = ok and rep1.verdict == "PASS"
    details.append(f"dilation family {rep1.verdict}")
    # projective family: per-member verdicts, no abort; the printed hatted
    # sums surface as individual FAILs while the plain members hold
    fam2 = basis(make_spec("AG2_I", 3, mu=1.0, rep="log"))
    rep2 = check_absolute(_ops("AG2_I", 3, mu=1.0, rep="log"), fam2,
                          n_samples=8, seed=7)
    by_member = rep2.by_invariant()
    ok = ok and set(by_member) == {m.label for m in fam2.members}
    ok = ok and by_member["Rhat1/N1^3"].verdict == "PASS"
    n_fail = sum(1 for rec in by_member.values() if rec.verdict == "FAIL")
    details.append(f"projective family: {len(by_member) - n_fail} PASS / "
                   f"{n_fail} FAIL members reported")
    _note(9, ok, "; ".join(details))


def test_10_implicit_theta_families_reported():
    details = []
    ok = True
    for name in ("AG_I", "AG1_I", "AG2_I"):
        spec = make_spec(name, 3, mu=0.0, lam=0.4, rep="log")
        fam = basis(spec)
        rep = check_absolute(_ops(name, 3, mu=0.0, lam=0.4, rep="log"), fam,
                             n_samples=6, seed=8)
        by_member = rep.by_invariant()
        ok = ok and len(by_member) == len(fam.members)
        details.append(f"{fam.label}: "
                       f"{sum(1 for r in by_member.values() if r.verdict == 'PASS')}"
                       f"/{len(by_member)} PASS")
    for name, kw in (("AG_II", {}), ("AG1_II", {"lam": 0.5}),
                     ("AG2_II", {}), ("AG2_II", {"mass": 0.0, "lam": 0.0}),
                     ("AG2_II", {"mass": 0.0, "lam": 0.9})):
        spec = make_spec(name, 3, rep="log", **kw)
        fam = basis(spec)
        rep = check_absolute(_ops(name, 3, rep="log", **kw), fam,
                             n_samples=4, seed=8)
        by_member = rep.by_invariant()
        ok = ok and len(by_member) == len(fam.members)
        details.append(f"{fam.label}: "
                       f"{sum(1 for r in by_member.values() if r.verdict == 'PASS')}"
                       f"/{len(by_member)} PASS")
    # the implicit solve must satisfy its defining linear system
    tb = covariant_tensor("implicit_theta", 3)
    worst = 0.0
    for seed in range(10):
        p = sample_generic(4, 1, seed=seed)
        theta = tb.build(p)
        for b in range(1, 4):
            acc = sum(p.value(d2_coord(1, a, b)) * theta[a - 1]
                      for a in range(1, 4))
            worst = max(worst, abs(acc - p.value(d2_coord(1, b, 0))))
    ok = ok and worst <= 1e-10
    details.append(f"implicit solve residual {worst:.1e}")
    _note(10, ok, "; ".join(details))


def test_11_parser_equivalence():
    met = minkowski(4)
    pairs = []
    fn_s2 = bind("S(2)", 4, metric=met)
    fn_r3 = bind("R(3)", 4, metric=met)
    fn_bi = bind("(1 - R(1)) * S(1) + R(2)", 4, metric=met)
    fn_ql = bind("R(2) - R(1) * S(1)", 4, metric=met)
    eq_bi = equation_function("born-infeld", 3)
    eq_ql = equation_function("eikonal-quasilinear", 3)
    worst = 0.0
    for seed in range(20):
        p = sample_generic(4, 1, seed=seed)
        mat = [[p.value(d2_coord(1, i, j)) for j in range(4)]
               for i in range(4)]
        vec = list(p.du[0])
        checks = [
            (fn_s2.eval(p), power_trace(mat, met, 2)),
            (fn_r3.eval(p), power_form(vec, mat, met, 3)),
            (fn_bi.eval(p), eq_bi.eval(p)),
            (fn_ql.eval(p), eq_ql.eval(p)),
        ]
        for got, want in checks:
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    _note(11, worst <= 1e-12, f"max relative deviation {worst:.1e}")


def test_12_cli_determinism(tmp_path):
    docs = []
    for tag in ("a", "b"):
        out_file = tmp_path / f"{tag}.json"
        run = subprocess.run(
            [sys.executable, "-m", "invforge", "verify", "--algebra", "AE",
             "--n", "3", "--seed", "42", "--samples", "8",
             "--out", str(out_file)],
            capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        docs.append(json.loads(out_file.read_text()))
    ok = (docs[0]["checks"] == docs[1]["checks"]
          and docs[0]["config"] == docs[1]["config"]
          and docs[0]["verdict"] == docs[1]["verdict"] == "PASS")
    _note(12, ok, f"{len(docs[0]['checks'])} identical check records")
