import io
import json
import os
import subprocess
import sys

import pytest

from invforge.cli import _SETTINGS

BASE = [sys.executable, "-m", "invforge"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("INVFORGE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          env=env)


def test_list_algebras_mentions_complex_projective():
    out = run_cli("list", "algebras")
    assert out.returncode == 0
    assert "AG2_II" in out.stdout


LIST_ALGEBRAS = """\
AO             rotations only; n >= 3, any m
AE             translations + rotations; n >= 3, any m
AE1            AE plus dilation (parameter lambda)
AC             AE1 plus special conformal generators
AP             spacetime translations + pseudo-rotations; n >= 3
APtilde        AP plus dilation (parameter lambda)
AC1n           APtilde plus special conformal generators
AG_I           time/space translations, rotations, boosts, field scaling \
(parameter mu)
AG1_I          AG_I plus dilation (parameter lambda)
AG2_I          AG1_I plus the projective generator (lambda = -n/2 when \
mu != 0)
AG_II          complex-pair analogue of AG_I (parameter mass)
AG1_II         complex-pair analogue of AG1_I
AG2_II         complex-pair analogue of AG2_I
AP_inf         sampled generators of the eikonal equation's infinite \
algebra (seed, instances, extended)
AP_BornInfeld  pseudo-rotations treating the field as an extra base \
coordinate
"""
LIST_BASES = """\
AE         scalar/multi-field jet invariants (power traces and forms)
AO         rotation invariants including the position vector
AE1        dilation-normalized invariants, branches lambda = 0 and != 0
AC         conformal tensor invariants, branches lambda = 0 and != 0
AP         spacetime power-trace invariants (m fields)
APtilde    dilation-normalized spacetime invariants, two branches
AC1n       conformal spacetime tensor invariants, two branches
AG_I       boost-covariant invariants on log-substituted jets
AG1_I      dilation-normalized log-jet invariants
AG2_I      projective combinations (per-member verdicts; mu = 0 branch \
uses the implicit theta solve)
AG_II      conjugate-pair invariants on log-substituted jets
AG1_II     dilation-normalized conjugate-pair invariants
AG2_II     projective conjugate-pair combinations (mass = 0 branch \
available)
"""


@pytest.mark.parametrize("kind, want", [("algebras", LIST_ALGEBRAS),
                                        ("bases", LIST_BASES)])
def test_list_prints_the_catalog_exactly(kind, want):
    out = run_cli("list", kind)
    assert (out.returncode, out.stdout, out.stderr) == (0, want, "")


def test_list_equations_mentions_born_infeld():
    out = run_cli("list", "equations")
    assert out.returncode == 0
    assert "born-infeld" in out.stdout


def test_list_bases_mentions_poincare():
    out = run_cli("list", "bases")
    assert out.returncode == 0
    assert "AP" in out.stdout


def test_list_tensors():
    from invforge.invcat import TENSORS

    out = run_cli("list", "tensors")
    assert out.returncode == 0
    assert out.stdout.split() == list(TENSORS)


def test_verify_basis_passes(tmp_path):
    report = tmp_path / "report.json"
    out = run_cli("verify", "--algebra", "AE", "--n", "3", "--seed", "42",
                  "--samples", "8", "--out", str(report))
    assert out.returncode == 0
    assert out.stdout.count("PASS invariant:") == 7
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1
    assert doc["verdict"] == "PASS"
    assert len(doc["checks"]) == 7
    for check in doc["checks"]:
        assert set(check) >= {"name", "paper_anchor", "residual_max",
                              "verdict"}


def test_verify_expression_fails_for_non_invariant():
    out = run_cli("verify", "--algebra", "AE", "--n", "3",
                  "--expr", "u_x1", "--samples", "5")
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def test_verify_expression_passes_for_invariant():
    out = run_cli("verify", "--algebra", "AE", "--n", "3",
                  "--expr", "S(2) + R(1) * u", "--samples", "5")
    assert out.returncode == 0


def test_verify_equation_heat():
    out = run_cli("verify", "--equation", "heat", "--n", "3", "--mu", "1",
                  "--samples", "6")
    assert out.returncode == 0
    assert "overall: PASS" in out.stdout


@pytest.mark.parametrize("equation,flag", [("heat", "--mu"),
                                           ("schrodinger", "--mass")])
def test_verify_massless_evolution_projects(equation, flag):
    """At mu = 0, or mass 0, the row's solve coordinate u_t drops out of
    the residual, so each projection moves the coordinate the residual is
    affine in instead; moving u_t, every projection failed (exit 3)."""
    out = run_cli("verify", "--equation", equation, "--n", "3", flag, "0",
                  "--samples", "3", "--seed", "0")
    assert out.returncode == 0, out.stderr
    assert "overall: PASS" in out.stdout


def test_rank_command():
    out = run_cli("rank", "--algebra", "AO", "--n", "4", "--samples", "30")
    assert out.returncode == 0
    assert "rank = 6" in out.stdout


def test_completeness_command():
    out = run_cli("completeness", "--algebra", "AE", "--n", "3",
                  "--samples", "20")
    assert out.returncode == 0
    assert "10 - 3 = 7, family 7" in out.stdout


def test_eval_command():
    out = run_cli("eval", "--expr", "2 + 3 * 4 ^ 2", "--n", "3")
    assert out.returncode == 0
    assert "= 50" in out.stdout


def test_config_errors_exit_2():
    assert run_cli("verify", "--algebra", "NOPE", "--n", "3").returncode == 2
    assert run_cli("verify", "--algebra", "AE", "--n", "1").returncode == 2
    assert run_cli("verify", "--equation", "nope", "--n", "3").returncode == 2
    assert run_cli("verify", "--algebra", "AE", "--n", "3",
                   "--expr", "u +* 2").returncode == 2


@pytest.mark.parametrize("argv", [
    ("eval", "--n", "3", "--expr", "1e999*u"),
    ("verify", "--algebra", "AE", "--n", "3", "--expr", "1e999 * u",
     "--samples", "2")])
def test_an_overflowing_literal_is_a_usage_error(argv, capsys):
    # eval printed "= inf"; verify redrew points until it exited 3
    from invforge import cli

    out = io.StringIO()
    assert cli.main(list(argv), stream=out) == 2
    assert out.getvalue() == ""
    assert "number literal 1e999 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_refuses_a_non_finite_lambda(value, capsys):
    # eval printed "= nan" and exited 0
    from invforge import cli

    out = io.StringIO()
    assert cli.main(["eval", "--n", "3", "--expr", "S(1; theta1)",
                     "--lambda", value], stream=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == \
        f"configuration error: lam must be finite, got {value}\n"


@pytest.mark.parametrize("expr", ["1e308 * 10", "2^1000^1000"])
def test_eval_refuses_a_computed_non_finite_value(expr, capsys):
    # eval printed "= inf" and exited 0
    from invforge import cli

    out = io.StringIO()
    assert cli.main(["eval", "--n", "3", "--expr", expr], stream=out) == 3
    assert out.getvalue() == ""
    assert capsys.readouterr().err == \
        "evaluation failure: non-finite value inf\n"


@pytest.mark.parametrize("argv,message", [
    (("eval", "--n", "3", "--expr", "log(0 * u)"), "log of zero"),
    (("verify", "--algebra", "AE", "--n", "3", "--expr", "log(u_x1 - u_x1)",
      "--samples", "2"), "could not sample an admissible generic point")],
    ids=["eval", "verify"])
def test_log_of_zero_is_an_evaluation_failure(argv, message, capsys):
    # both printed "configuration error: math domain error" and exited 2;
    # verify now redraws its points, in vain
    from invforge import cli

    out = io.StringIO()
    assert cli.main(list(argv), stream=out) == 3
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"evaluation failure: {message}\n"


@pytest.mark.parametrize("target", ["", "missing/r.json"],
                         ids=["a-directory", "a-missing-parent"])
def test_a_report_that_cannot_be_written_is_a_usage_error(target, tmp_path,
                                                          capsys):
    # the checks ran and printed PASS, then the write raised; as a child
    # the run exited 1 with a traceback
    from invforge import cli

    path = str(tmp_path / target) if target else str(tmp_path)
    argv = ["rank", "--algebra", "AE", "--n", "3", "--out", path]
    out = io.StringIO()
    assert cli.main(argv, stream=out) == 2
    assert out.getvalue().endswith("overall: PASS\n")
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write report: ")
    child = run_cli(*argv)
    assert child.returncode == 2
    assert child.stdout == out.getvalue()
    assert child.stderr == err


# AG2_I's member Rhat1/N1^3 at n = 3, mu = 1, as its row prints it
_RHAT1 = ("(0.0 + R(1; bth1, 1) * 1 * -3 * 1) / (2.0 * u_t + "
          "contract(du1, du1) + S(1)) ^ 3")


def test_verify_expr_compiles_with_the_compiler_of_the_basis():
    """verify --expr under a Galilei algebra made a second compiler, its
    lam the spec's where the basis pins 1.0."""
    from invforge import cli, exprlang
    from invforge.invcat import basis, text_binding
    from invforge.liealg import make_spec

    spec = make_spec("AG2_I", 3, rep="log")
    basis(spec)
    made = exprlang._compiler.cache_info().currsize
    assert cli.main(["verify", "--algebra", "AG2_I", "--n", "3", "--samples",
                     "2", "--expr", _RHAT1], stream=io.StringIO()) == 0
    assert exprlang._compiler.cache_info().currsize == made
    # every Galilei family of one boost weight binds with that compiler
    other = make_spec("AG1_I", 3, lam=0.4, rep="log")
    assert text_binding(other)[1] is text_binding(spec)[1]


@pytest.mark.parametrize("name,kw", [("AG_I", {"rep": "log"}),
                                     ("AE1", {})])
def test_verify_expr_binds_on_the_space_of_the_basis(name, kw, monkeypatch):
    """verify --expr built its function on a space of its own: under AG_I
    an euclidean(4) metric where the basis has euclidean(3), under AE1
    field values of either sign where the basis draws them positive."""
    from invforge import cli
    from invforge.invcat import basis
    from invforge.liealg import make_spec

    seen = []
    check = cli.check_absolute

    def spy(ops, family, **options):
        seen.extend(family)
        return check(ops, family, **options)

    monkeypatch.setattr(cli, "check_absolute", spy)
    # u is no invariant of either algebra: a verdict, FAIL, is reached
    assert cli.main(["verify", "--algebra", name, "--n", "3", "--samples",
                     "2", "--expr", "u"], stream=io.StringIO()) == 1
    assert len(seen) == 1
    assert seen[0].space == basis(make_spec(name, 3, **kw)).members[0].space


def test_unknown_names_are_reported_before_unread_settings(capsys):
    from invforge import cli

    for argv, message in (
            (["verify", "--algebra", "NOPE", "--mu", "3"],
             "unknown algebra family 'NOPE'"),
            (["verify", "--equation", "nope", "--lambda", "3"],
             "unknown equation 'nope'")):
        assert cli.main(argv, stream=io.StringIO()) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_report_determinism(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--algebra", "AE", "--n", "3", "--seed", "42",
            "--samples", "6")
    run_cli(*args, "--out", str(f1))
    run_cli(*args, "--out", str(f2))
    a = json.loads(f1.read_text())
    b = json.loads(f2.read_text())
    # identical up to the timestamp header
    assert a["checks"] == b["checks"]
    assert a["config"] == b["config"]
    assert a["verdict"] == b["verdict"]


def test_env_seed_default(tmp_path):
    report = tmp_path / "r.json"
    out = run_cli("verify", "--algebra", "AE", "--n", "3", "--samples", "5",
                  "--out", str(report), env_extra={"INVFORGE_SEED": "77"})
    assert out.returncode == 0
    doc = json.loads(report.read_text())
    assert doc["config"]["seed"] == 77


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=AE\nn=3\nsamples=5\nseed=9\n")
    report = tmp_path / "r.json"
    out = run_cli("verify", "--config", str(cfg), "--seed", "11",
                  "--out", str(report))
    assert out.returncode == 0
    doc = json.loads(report.read_text())
    assert doc["config"]["seed"] == 11  # CLI wins over the file
    assert doc["config"]["algebra"] == "AE"


def test_bad_config_file_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("algebra AE\n")
    assert run_cli("verify", "--config", str(cfg)).returncode == 2


def test_internal_failure_exit_3():
    out = run_cli("verify", "--algebra", "AE", "--n", "3",
                  "--expr", "1 / (u - u)", "--samples", "3")
    assert out.returncode == 3
    assert "evaluation failure" in out.stderr


def test_verify_galilei_basis_via_cli():
    out = run_cli("verify", "--algebra", "AG_I", "--n", "3", "--samples", "5")
    assert out.returncode == 0
    assert out.stdout.count("PASS invariant:") == 8


def test_verify_projective_family_reports_individual_fails():
    out = run_cli("verify", "--algebra", "AG2_I", "--n", "3",
                  "--samples", "5")
    assert out.returncode == 1
    assert "PASS invariant:Rhat1/N1^3" in out.stdout
    assert "FAIL" in out.stdout


def test_eval_log_jets():
    out = run_cli("eval", "--expr", "u", "--n", "3", "--seed", "3",
                  "--log-jets")
    assert out.returncode == 0


def test_function_overrides_accepted():
    out = run_cli("verify", "--equation", "eikonal", "--n", "3",
                  "--samples", "4", "--function", "eta=u^2",
                  "--function", "a0=1+u")
    assert out.returncode == 0
    out2 = run_cli("verify", "--equation", "eikonal", "--n", "3",
                   "--samples", "4", "--function", "nonsense")
    assert out2.returncode == 2


def test_hat_variant_flag_changes_members():
    a = run_cli("verify", "--algebra", "AG2_I", "--n", "3", "--samples", "4",
                "--hat-variant", "printed")
    b = run_cli("verify", "--algebra", "AG2_I", "--n", "3", "--samples", "4",
                "--hat-variant", "uniform")
    assert a.stdout != b.stdout  # the hatted sums differ between readings


@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "AG2_II"),
    ("verify", "--algebra", "AE"),
    ("verify", "--algebra", "AG2_I", "--mu", "0", "--lambda", "0.4"),
    ("verify", "--algebra", "AG2_I", "--expr", "u_x1"),
    ("verify", "--equation", "heat"),
    ("rank", "--algebra", "AG2_I"),
    ("eval", "--expr", "u"),
], ids=" ".join)
def test_uniform_hat_variant_is_usage_error_where_unread(argv, capsys):
    from invforge import cli

    out = io.StringIO()
    code = cli.main([*argv, "--n", "3", "--samples", "2",
                     "--hat-variant", "uniform"], stream=out)
    assert code == 2
    assert out.getvalue() == ""
    assert f"--hat-variant is not read by {_run_name(argv)}" \
        in capsys.readouterr().err


def _run_name(argv):
    """The run a usage error names: the command and the setting that picks
    its run, as given first in ``argv``."""
    return "eval" if argv[0] == "eval" else " ".join(argv[:3])


def _config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("text,key", [
    ("algebra=AE\nn=3\nsample=2\n", "sample"),
    ("algebra=AP_inf\nn=3\nfunction=eta=u^2\n", "function"),
    ("algebra=AP_inf\nn=3\nfunctions=eta=u^2\n", "functions"),
], ids=["misspelt", "function", "functions"])
def test_unknown_config_key_is_usage_error(text, key, tmp_path, capsys):
    # --function is command-line only: a file's line was echoed unapplied
    from invforge import cli

    cfg = _config_file(tmp_path, text)
    out = io.StringIO()
    assert cli.main(["rank", "--config", cfg], stream=out) == 2
    assert out.getvalue() == ""
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_config_file_lambda_key(tmp_path):
    cfg = _config_file(tmp_path, "algebra=AE1\nn=3\nsamples=2\n"
                                 "lambda=0.6\n")
    code, doc = _in_process_report(("verify", "--config", cfg),
                                   tmp_path / "r.json")
    assert code == 0
    assert doc["config"]["lam"] == 0.6


@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "AG_II", "--n", "3", "--field", "real",
     "--samples", "2"),
    ("verify", "--algebra", "AE", "--n", "3", "--field", "complex",
     "--samples", "2"),
    ("rank", "--algebra", "AE", "--n", "3", "--field", "complex"),
    ("completeness", "--algebra", "AE", "--n", "3", "--field", "complex"),
    ("verify", "--equation", "heat", "--n", "3", "--field", "complex",
     "--samples", "2"),
    ("verify", "--algebra", "AG_II", "--n", "3", "--field", "real",
     "--expr", "u1_x1", "--samples", "2"),
], ids=["verify-II-real", "verify-basis", "rank", "completeness",
        "verify-equation", "verify-expr-II-real"])
def test_field_where_it_cannot_apply(argv, capsys):
    # verify --expr reads --field, and the _II spec refuses a real one
    from invforge import cli

    out = io.StringIO()
    assert cli.main(list(argv), stream=out) == 2
    assert out.getvalue() == ""
    message = "AG_II acts on a complex field pair" if "--expr" in argv \
        else f"--field is not read by {_run_name(argv)}"
    assert message in capsys.readouterr().err


def test_field_applies_to_eval_and_verify_expr(tmp_path):
    from invforge import cli

    expr = ("--expr", "u1_x1 * conj(u1_x1)", "--samples", "2", "--seed", "0")
    plain = _in_process_report(("verify", "--algebra", "AG_II", "--n", "3")
                               + expr, tmp_path / "a.json")
    flagged = _in_process_report(("verify", "--algebra", "AG_II", "--n", "3",
                                  "--field", "complex") + expr,
                                 tmp_path / "b.json")
    assert flagged[0] == plain[0]
    assert flagged[1]["checks"] == plain[1]["checks"]
    out = io.StringIO()
    assert cli.main(["eval", "--n", "3", "--m", "2", "--field", "complex",
                     "--expr", "u1_x1 * conj(u1_x1)"], stream=out) == 0
    assert out.getvalue().startswith("u1_x1 * conj(u1_x1) = ")


def test_config_file_hat_variant_applies(tmp_path):
    cfg = _config_file(tmp_path, "algebra=AG2_I\nn=3\nsamples=2\n"
                                 "hat_variant=uniform\n")
    code, doc = _in_process_report(("verify", "--config", cfg),
                                   tmp_path / "file.json")
    flag = _in_process_report(("verify", "--algebra", "AG2_I", "--n", "3",
                               "--samples", "2", "--hat-variant", "uniform"),
                              tmp_path / "flag.json")
    printed = _in_process_report(("verify", "--algebra", "AG2_I", "--n",
                                  "3", "--samples", "2"),
                                 tmp_path / "printed.json")
    assert doc["config"]["hat_variant"] == "uniform"
    assert (code, doc["checks"]) == (flag[0], flag[1]["checks"])
    assert doc["checks"] != printed[1]["checks"]


def test_config_file_hat_variant_is_checked_like_the_flag(tmp_path, capsys):
    from invforge import cli

    cfg = _config_file(tmp_path, "algebra=AE\nn=3\nsamples=2\n"
                                 "hat_variant=uniform\n")
    assert cli.main(["verify", "--config", cfg], stream=io.StringIO()) == 2
    assert "--hat-variant is not read by verify --algebra AE" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command,text,key", [
    ("eval", "n=3\nm=2\nfield=cmplx\nexpr=u1_x1\n", "field"),
    ("rank", "algebra=AE\nn=3\nhat_variant=sideways\n", "hat_variant"),
], ids=["field", "hat_variant"])
def test_config_file_choices_are_checked_like_the_flags(command, text, key,
                                                        tmp_path, capsys):
    # the flags' choices bind a file's value too: a misspelt field ran
    # real, a misspelt hat variant was echoed unapplied
    from invforge import cli

    cfg = _config_file(tmp_path, text)
    out = io.StringIO()
    assert cli.main([command, "--config", cfg], stream=out) == 2
    assert out.getvalue() == ""
    assert f"bad value for {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("file_value,flag", [("uniform", "printed"),
                                             ("printed", "uniform")])
def test_hat_variant_flag_wins_over_the_file(file_value, flag, tmp_path):
    cfg = _config_file(tmp_path, "algebra=AG2_I\nn=3\nsamples=2\n"
                                 f"hat_variant={file_value}\n")
    code, doc = _in_process_report(("verify", "--config", cfg,
                                    "--hat-variant", flag),
                                   tmp_path / "r.json")
    assert doc["config"]["hat_variant"] == flag


def test_verify_expression_samples_the_basis_domain(monkeypatch):
    # a pasted AE1 row with a fractional power of u1: drawn from the
    # positive-field domain of the basis, no sample is redrawn, so the
    # points tried are the sample indices 0 .. DEFAULT_SAMPLES - 1 (a
    # redraw of index s tries s + 10007)
    from invforge import cli
    from invforge.verify import DEFAULT_SAMPLES

    tried = []
    make = cli.make_sampler

    def counting(*args, **kwargs):
        sampler = make(*args, **kwargs)

        def counted(idx):
            tried.append(idx)
            return sampler(idx)
        return counted

    monkeypatch.setattr(cli, "make_sampler", counting)
    code = cli.main(["verify", "--algebra", "AE1", "--n", "3", "--lambda",
                     "0.6", "--expr", "S(2) / u1 ^ -4.666666666666667",
                     "--seed", "0"], stream=io.StringIO())
    assert code == 0
    assert tried == list(range(DEFAULT_SAMPLES))


@pytest.mark.parametrize("target", [("--algebra", "AP_inf"),
                                    ("--equation", "eikonal")])
def test_malformed_function_override_is_usage_error(target):
    out = run_cli("verify", *target, "--n", "3", "--function", "eta")
    assert out.returncode == 2
    assert "expected NAME=EXPR" in out.stderr


@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "AE", "--n", "3", "--samples", "2",
     "--function", "eta=garbage(("),
    ("rank", "--algebra", "AE", "--n", "3", "--function", "eta=u^0.5"),
    ("verify", "--equation", "heat", "--n", "3", "--samples", "2",
     "--function", "eta=u"),
    ("completeness", "--algebra", "AO", "--n", "3", "--function", "eta=u"),
], ids=["verify-algebra", "rank", "verify-equation", "completeness"])
def test_function_where_no_ap_inf_algebra_reads_it(argv, capsys):
    from invforge import cli

    assert cli.main(list(argv), stream=io.StringIO()) == 2
    assert f"--function is not read by {_run_name(argv)}" \
        in capsys.readouterr().err


def _in_process_report(argv, path):
    """(exit code, report without ``meta.generated_at``) of one
    in-process call."""
    from invforge import cli

    code = cli.main(list(argv) + ["--out", str(path)], stream=io.StringIO())
    doc = json.loads(path.read_text())
    del doc["meta"]["generated_at"]
    return code, doc


EIKONAL_OVERRIDE = ("verify", "--equation", "eikonal", "--n", "3",
                    "--samples", "3", "--seed", "0", "--function", "eta=u^2",
                    "--function", "a0=1+u")


def test_in_process_calls_carry_no_parser_state(tmp_path):
    from invforge import cli

    # the parser is built once and shared by every call in the process
    assert cli._build_parser() is cli._build_parser()
    first = _in_process_report(EIKONAL_OVERRIDE, tmp_path / "a.json")
    second = _in_process_report(EIKONAL_OVERRIDE, tmp_path / "b.json")
    assert first[0] == 0
    assert first[1]["config"]["functions"] == ["eta=u^2", "a0=1+u"]
    assert second == first


def test_usage_error_leaves_next_call_intact(tmp_path, capsys):
    from invforge import cli

    want = _in_process_report(EIKONAL_OVERRIDE, tmp_path / "a.json")
    bad = cli.main(["verify", "--equation", "eikonal", "--function",
                    "eta=u", "--bogus"], stream=io.StringIO())
    assert bad == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert _in_process_report(EIKONAL_OVERRIDE, tmp_path / "b.json") == want


@pytest.mark.parametrize("extra", [("--algebra", "AO"), ("--expr", "u_x1")],
                         ids=["algebra", "expr"])
def test_equation_rejects_flags_it_would_ignore(extra, capsys):
    from invforge import cli

    code = cli.main(["verify", "--equation", "born-infeld", "--n", "3",
                     *extra], stream=io.StringIO())
    assert code == 2
    assert "--equation" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fractional_power_coefficient_draws_positive_u(seed):
    """``u^0.5`` is real only at u > 0, so the eikonal check, an expression
    under the eikonal algebra and its rank draw positive u and run to a
    verdict instead of failing on a negative draw (verify --expr exited 3:
    it consulted only the algebra)."""
    from invforge import cli

    for argv in (["verify", "--equation", "eikonal"],
                 ["verify", "--algebra", "AP_inf", "--expr", _MINKOWSKI_GRAD,
                  "--samples", "3"],
                 ["rank", "--algebra", "AP_inf"]):
        code = cli.main(argv + ["--n", "3", "--function", "eta=u^0.5",
                                "--seed", str(seed)], stream=io.StringIO())
        assert code in (0, 1), argv


# S(1) written out with each algebra's signs over its base coordinates
_EUCLID_TRACE = "u_x1x1 + u_x2x2 + u_x3x3"
_MINKOWSKI_TRACE = "u_x0x0 - u_x1x1 - u_x2x2 - u_x3x3"
_MINKOWSKI_GRAD = "u_x0 * u_x0 - u_x1 * u_x1 - u_x2 * u_x2 - u_x3 * u_x3"


@pytest.mark.parametrize("name,trace", [
    *[(name, _EUCLID_TRACE) for name in ("AO", "AE", "AE1", "AC")],
    *[(name, _MINKOWSKI_TRACE) for name in ("AP", "APtilde", "AC1n",
                                            "AP_inf", "AP_BornInfeld")]])
def test_verify_expression_binds_the_algebras_coordinates(name, trace,
                                                          tmp_path):
    argv = ("verify", "--algebra", name, "--n", "3", "--seed", "0",
            "--samples", "4", "--expr")
    code, doc = _in_process_report(argv + ("S(1)",), tmp_path / "s.json")
    want_code, want = _in_process_report(argv + (trace,), tmp_path / "t.json")
    assert (code, doc["checks"]) == (want_code, want["checks"])
    if name == "AP_BornInfeld":
        # the Minkowski trace is invariant under the boosts J01..J03
        verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
        assert [verdicts[f"expression:J0{k}"] for k in (1, 2, 3)] \
            == ["PASS"] * 3


def test_time_coordinate_under_born_infeld_is_usage_error(capsys):
    from invforge import cli

    code = cli.main(["verify", "--algebra", "AP_BornInfeld", "--n", "3",
                     "--expr", "u_t"], stream=io.StringIO())
    assert code == 2
    assert "'t' is only valid in a time binding" in capsys.readouterr().err


@pytest.mark.parametrize("argv,rank", [
    (("--algebra", "AE"), 6),
    (("--algebra", "AG_II", "--mass", "0"), 11),
    (("--algebra", "AP_inf", "--function", "eta=u^0.5"), 3),
], ids=["AE", "AG_II-massless", "AP_inf-sqrt"])
def test_rank_builds_no_basis(argv, rank, monkeypatch):
    from invforge import cli

    def no_basis(*args, **kw):
        raise RuntimeError("rank built a basis")

    monkeypatch.setattr(cli, "basis", no_basis)
    out = io.StringIO()
    assert cli.main(["rank", *argv, "--n", "3"], stream=out) == 0
    assert out.getvalue().splitlines()[0] == f"rank = {rank}"


@pytest.mark.parametrize("name", ["AO", "AE", "AE1", "AC", "AP", "APtilde",
                                  "AC1n", "AG_I", "AG2_I", "AG1_II"])
def test_rank_draws_the_points_of_the_basis(name, monkeypatch):
    from invforge import cli
    from invforge.invcat import basis

    samplers = []

    def first_points(ops, sampler, trials):
        samplers.append(sampler)
        return len(ops)

    monkeypatch.setattr(cli, "generic_rank", first_points)
    assert cli.main(["rank", "--algebra", name, "--n", "3", "--seed", "7"],
                    stream=io.StringIO()) == 0
    spec = cli._spec_from_config({"algebra": name, "n": 3})
    want = basis(spec).space.sampler(7)
    assert [samplers[0](t) for t in range(3)] == [want(t) for t in range(3)]


@pytest.mark.parametrize("argv", [
    ("rank", "--algebra", "AP_inf"),
    ("verify", "--equation", "eikonal"),
])
def test_a_repeated_function_name_is_a_usage_error(argv, capsys):
    # the second eta=... replaced the first, and the run exited 0
    from invforge import cli

    out = io.StringIO()
    assert cli.main([*argv, "--n", "3", "--function", "eta=u",
                     "--function", "eta=u^2"], stream=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == \
        "configuration error: coefficient function 'eta' given twice\n"


_SETTING_COMMANDS = {
    "verify-algebra": ("verify", "--algebra", "AE"),
    "verify-equation": ("verify", "--equation", "heat"),
    "verify-expr": ("verify", "--algebra", "AE", "--expr", "u"),
    "rank": ("rank", "--algebra", "AE"),
    "completeness": ("completeness", "--algebra", "AE"),
    "eval": ("eval", "--expr", "u"),
}


@pytest.mark.parametrize("key,value,message", [
    ("samples", "0", "samples must be at least 1"),
    ("samples", "-3", "samples must be at least 1"),
    ("tol", "inf", "tol must be finite and non-negative"),
    ("tol", "nan", "tol must be finite and non-negative"),
    ("tol", "-1", "tol must be finite and non-negative"),
])
@pytest.mark.parametrize("command", sorted(_SETTING_COMMANDS))
def test_samples_and_tol_out_of_range_are_usage_errors(command, key, value,
                                                       message, tmp_path,
                                                       capsys):
    # no samples checked nothing and printed PASS; an infinite tol passed
    # every record and a NaN or negative one failed every record
    from invforge import cli

    argv = [*_SETTING_COMMANDS[command], "--n", "3"]
    cfg = _config_file(tmp_path, f"{key}={value}\n")
    out = io.StringIO()
    assert cli.main([*argv, f"--{key}", value], stream=out) == 2
    assert cli.main([*argv, "--config", cfg], stream=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err.count(message) == 2


def test_one_sample_and_zero_tol_are_accepted(tmp_path):
    # u is invariant under AE with residual exactly 0, so tol 0 passes it
    from invforge import cli

    argv = ["verify", "--algebra", "AE", "--n", "3", "--expr", "u"]
    cfg = _config_file(tmp_path, "samples=1\ntol=0\n")
    for extra in (["--samples", "1", "--tol", "0"], ["--config", cfg]):
        out = io.StringIO()
        assert cli.main([*argv, *extra], stream=out) == 0
        assert out.getvalue().endswith("overall: PASS\n")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_eikonal_trace_k_below_one_is_a_usage_error(value, tmp_path, capsys):
    # k = 0 checked the k = 1 trace (a list's last power) and k = -1 died
    # with an IndexError, exit 1
    from invforge import cli

    argv = ["verify", "--equation", "eikonal-trace", "--n", "3",
            "--samples", "2"]
    cfg = _config_file(tmp_path, f"k={value}\n")
    out = io.StringIO()
    assert cli.main([*argv, "--k", value], stream=out) == 2
    assert cli.main([*argv, "--config", cfg], stream=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err.count("k must be at least 1") == 2


@pytest.mark.parametrize("command", sorted(_SETTING_COMMANDS))
def test_k_is_a_usage_error_but_for_eikonal_trace(command, tmp_path, capsys):
    # --k was echoed in the report config of checks that never read it
    from invforge import cli

    argv = [*_SETTING_COMMANDS[command], "--n", "3", "--samples", "2"]
    cfg = _config_file(tmp_path, "k=3\n")
    out = io.StringIO()
    assert cli.main([*argv, "--k", "3"], stream=out) == 2
    assert cli.main([*argv, "--config", cfg], stream=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err.count(
        f"--k is not read by {_run_name(argv)}") == 2



def test_rank_tol_is_a_usage_error(tmp_path, capsys):
    # rank echoed --tol in its report config but its pivot threshold is the
    # constant RANK_PIVOT_RTOL
    from invforge import cli

    argv = ["rank", "--algebra", "AO", "--n", "3"]
    cfg = _config_file(tmp_path, "tol=5\n")
    out = io.StringIO()
    assert cli.main([*argv, "--tol", "5"], stream=out) == 2
    assert cli.main([*argv, "--config", cfg], stream=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err.count(
        "--tol is not read by rank --algebra AO") == 2


def test_eval_out_is_a_usage_error(tmp_path, capsys):
    # eval exited 0 and wrote no file
    from invforge import cli

    report = tmp_path / "f.json"
    argv = ["eval", "--expr", "u_x1", "--n", "3"]
    cfg = _config_file(tmp_path, f"out={report}\n")
    out = io.StringIO()
    assert cli.main([*argv, "--out", str(report)], stream=out) == 2
    assert cli.main([*argv, "--config", cfg], stream=out) == 2
    assert out.getvalue() == ""
    assert not report.exists()
    assert capsys.readouterr().err.count("--out is not read by eval") == 2


# eval of a theta selector, which reads lam but no mu
_EVAL_THETA = ["eval", "--expr", "S(2; theta1) + u_x1"]


@pytest.mark.parametrize("argv,key,value,message", [
    (["rank", "--algebra", "AO"], "expr", "S(2)",
     "--expr is not read by rank --algebra AO"),
    (["rank", "--algebra", "AO"], "equation", "heat",
     "--equation is not read by rank --algebra AO"),
    (["completeness", "--algebra", "AE"], "expr", "S(2)",
     "--expr is not read by completeness --algebra AE"),
    (["completeness", "--algebra", "AE"], "equation", "heat",
     "--equation is not read by completeness --algebra AE"),
    (["eval", "--expr", "u_x1"], "algebra", "AE",
     "--algebra is not read by eval"),
    (["eval", "--expr", "u_x1"], "equation", "heat",
     "--equation is not read by eval"),
    (["verify", "--equation", "heat"], "lambda", "0.4",
     "--lambda is not read by verify --equation heat"),
    (["verify", "--equation", "schrodinger"], "m", "2",
     "--m is not read by verify --equation schrodinger"),
    (["verify", "--equation", "born-infeld"], "mu", "3",
     "--mu is not read by verify --equation born-infeld"),
    (["verify", "--equation", "heat"], "mass", "2",
     "--mass is not read by verify --equation heat"),
    (["verify", "--equation", "schrodinger-projective"], "mu", "0.5",
     "--mu is not read by verify --equation schrodinger-projective"),
    *[(_EVAL_THETA, key, value, f"--{key} is not read by eval")
      for key, value in (("mu", "3"), ("mass", "3"), ("samples", "9"),
                         ("tol", "1"), ("hat-variant", "printed"))],
    *[(["verify", "--algebra", "AE"], key, value,
       f"--{key} is not read by verify --algebra AE")
      for key, value in (("lambda", "7"), ("mu", "3"), ("mass", "2"))],
    (["rank", "--algebra", "AG_I"], "lambda", "0.3",
     "--lambda is not read by rank --algebra AG_I"),
    (["verify", "--algebra", "AG_I", "--expr", "u_t * u_x1"], "lambda", "7",
     "--lambda is not read by verify --algebra AG_I"),
    (["rank", "--algebra", "AP_inf"], "lambda", "3",
     "--lambda is not read by rank --algebra AP_inf"),
    (["completeness", "--algebra", "AE"], "hat-variant", "printed",
     "--hat-variant is not read by completeness --algebra AE"),
    (["verify", "--equation", "heat"], "hat-variant", "printed",
     "--hat-variant is not read by verify --equation heat"),
])
def test_unread_flag_is_a_usage_error(argv, key, value, message, tmp_path,
                                      capsys):
    # each ran and exited 0, reading nothing of the flag
    from invforge import cli

    argv = [*argv, "--n", "3"] if argv[0] == "eval" else \
        [*argv, "--n", "3", "--samples", "2"]
    cfg = _config_file(tmp_path, f"{key.replace('-', '_')}={value}\n")
    out = io.StringIO()
    assert cli.main([*argv, f"--{key}", value], stream=out) == 2
    assert cli.main([*argv, "--config", cfg], stream=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err.count(message) == 2


def test_rank_without_tol_reports_as_before(tmp_path):
    from invforge import cli

    report = tmp_path / "rank.json"
    out = io.StringIO()
    assert cli.main(["rank", "--algebra", "AO", "--n", "3", "--seed", "0",
                     "--out", str(report)], stream=out) == 0
    assert out.getvalue() == ("rank = 3\nPASS rank:AO rank=3 expected=3\n"
                              "overall: PASS\n")
    doc = json.loads(report.read_text())
    assert doc["config"] == {"algebra": "AO", "hat_variant": "printed",
                             "n": 3, "samples": 50, "seed": 0, "tol": 1e-08}

def test_eikonal_trace_reads_k(tmp_path):
    from invforge import cli

    argv = ["verify", "--equation", "eikonal-trace", "--n", "3",
            "--samples", "2"]
    cfg = _config_file(tmp_path, "k=2\n")
    for extra in (["--k", "2"], ["--config", cfg]):
        out = io.StringIO()
        assert cli.main([*argv, *extra], stream=out) == 0
        assert out.getvalue().endswith("overall: PASS\n")


def test_non_integer_env_seed_is_a_configuration_error(monkeypatch, capsys):
    # the seed's parse raised SystemExit(2) out of main, with no message
    from invforge import cli

    monkeypatch.setenv("INVFORGE_SEED", "abc")
    out = io.StringIO()
    assert cli.main(["verify", "--algebra", "AE", "--n", "3", "--samples",
                     "2"], stream=out) == 2
    assert out.getvalue() == ""
    assert "configuration error: INVFORGE_SEED must be an integer, got " \
        "'abc'" in capsys.readouterr().err


# per setting: a command that reads it, and the value it is given
_SETTING_READERS = {
    "algebra": (["rank", "--n", "3", "--samples", "20"], "AO"),
    "n": (["rank", "--algebra", "AO", "--samples", "20"], "4"),
    "m": (["rank", "--algebra", "AE", "--samples", "20"], "2"),
    "lam": (["rank", "--algebra", "AE1", "--samples", "20"], "0.5"),
    "mu": (["rank", "--algebra", "AG_I", "--samples", "20"], "0.5"),
    "mass": (["rank", "--algebra", "AG_II", "--samples", "20"], "2.0"),
    "field": (["verify", "--algebra", "AG_II", "--samples", "2",
               "--expr", "u1_x1 * conj(u1_x1)"], "complex"),
    "seed": (["rank", "--algebra", "AO", "--samples", "20"], "5"),
    "samples": (["rank", "--algebra", "AO"], "30"),
    "tol": (["verify", "--algebra", "AE", "--samples", "2",
             "--expr", "S(2)"], "1e-6"),
    "out": (["rank", "--algebra", "AO", "--samples", "20"], None),
    "expr": (["verify", "--algebra", "AE", "--samples", "2"], "S(2)"),
    "equation": (["verify", "--samples", "2"], "heat"),
    "k": (["verify", "--equation", "eikonal-trace", "--samples", "2"], "2"),
    "hat_variant": (["verify", "--algebra", "AG2_I", "--samples", "2"],
                    "uniform"),
}


@pytest.mark.parametrize("key", list(_SETTINGS))
def test_config_file_setting_matches_its_flag(key, tmp_path):
    # every flag's setting reaches a run from a config file too: a new
    # setting needs a reader above, or this fails
    from invforge import cli

    argv, value = _SETTING_READERS[key]
    runs = []
    for side in ("flag", "file"):
        report = tmp_path / f"{side}.json"
        extra = [] if key == "out" else ["--out", str(report)]
        val = str(report) if key == "out" else value
        if side == "flag":
            extra += [_SETTINGS[key][0], val]
        else:
            extra += ["--config", _config_file(tmp_path, f"{key}={val}\n")]
        code = cli.main(argv + extra, stream=io.StringIO())
        runs.append((code, json.loads(report.read_text())["config"]))
    assert runs[0] == runs[1]
    assert key == "out" or key in runs[0][1]
