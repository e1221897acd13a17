"""The equation residuals are exprlang texts, bound like any ``verify
--expr`` text under their algebra; ``eik<r>`` selects the eikonal theta;
the power builtins take every order 1 <= k <= MAX_ORDER and refuse the
rest."""

import io

import pytest

from invforge import cli, equation_function
from invforge.exprlang import MAX_ORDER, BindError, bind
from invforge.invcat import EQUATIONS, covariant_tensor
from invforge.jetspace import minkowski
from invforge.liealg import algebra_space
from references import power_trace

NS = (3, 4)
POINTS = 2


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_residual_is_its_text_under_its_algebra(name, n):
    info = EQUATIONS[name]
    label, text = info.row(n)
    spec = info.default_algebra(n, {})
    fn = bind(text, **algebra_space(spec))
    res = equation_function(name, n)
    assert res.label == label
    sampler = res.space.sampler(seed=0)
    for idx in range(POINTS):
        point = sampler(idx)
        assert repr(fn.eval(point)) == repr(res.eval(point))


@pytest.mark.parametrize("n", NS)
def test_eik_selector_is_the_eikonal_theta(n):
    tensor = covariant_tensor("eikonal_theta", n)
    met = minkowski(n + 1)
    sampler = tensor.space.sampler(seed=0)
    for idx in range(POINTS):
        point = sampler(idx)
        for k in range(1, n + 3):
            fn = bind(f"S({k}; eik1)", n + 1, metric=met)
            want = power_trace(tensor.build(point), met, k)
            assert repr(fn.eval(point)) == repr(want)


def test_eik_selector_needs_a_minkowski_metric():
    with pytest.raises(BindError, match="eik1 needs a Minkowski metric"):
        bind("S(1; eik1)", 3)
    with pytest.raises(BindError, match="eik1 needs a Minkowski metric"):
        bind("S(1; eik1)", 4, time_mode=True)


def test_every_power_builtin_takes_any_order_from_one():
    for text in ("S(5)", "R(6)", "Sjk(2, 9; 1, 1)", "S(7; theta1)"):
        bind(text, 3)
    for text in ("S(0)", "R(0)", "Sjk(0, 0; 1, 1)", "S(-1)"):
        with pytest.raises(BindError, match="order .* out of range"):
            bind(text, 3)


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra", "AE", "--n", "3", "--expr", "Sjk(0, 0; 1, 1)"],
    ["eval", "--n", "3", "--expr", "Sjk(0, 0; 1, 1)"],
])
def test_zero_order_mixed_trace_is_a_usage_error(argv, capsys):
    # it raised an uncaught IndexError, exit 1, which reads as FAIL
    out = io.StringIO()
    assert cli.main(argv, stream=out) == 2
    assert out.getvalue() == ""
    assert "Sjk order 0 out of range" in capsys.readouterr().err


def test_an_order_above_the_bound_is_refused_at_bind_time():
    for text in (f"S({MAX_ORDER})", f"R({MAX_ORDER})",
                 f"Sjk(1, {MAX_ORDER}; 1, 1)"):
        bind(text, 3)
    for text in (f"S({MAX_ORDER + 1})", f"R({MAX_ORDER + 1})",
                 f"Sjk(1, {MAX_ORDER + 1}; 1, 1)", "S(1000000)"):
        with pytest.raises(BindError, match="order .* out of range"):
            bind(text, 3)


@pytest.mark.parametrize("argv", [
    ["eval", "--n", "3", "--expr", f"S({MAX_ORDER + 1})"],
    ["verify", "--equation", "eikonal-trace", "--n", "3", "--k",
     str(MAX_ORDER + 1), "--samples", "2"],
], ids=["eval", "eikonal-trace"])
def test_an_order_above_the_bound_is_a_usage_error(argv, capsys):
    # S(1000000) ran for seconds and held hundreds of MiB before it
    # overflowed, exit 3
    out = io.StringIO()
    assert cli.main(argv, stream=out) == 2
    assert out.getvalue() == ""
    assert f"S order {MAX_ORDER + 1} out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "completeness"])
def test_a_basis_whose_orders_pass_the_bound_names_n(command, capsys):
    # the conformal rows bind order n + 1: "S order 65 out of range"
    out = io.StringIO()
    argv = [command, "--algebra", "AC", "--n", str(MAX_ORDER)]
    assert cli.main(argv, stream=out) == 2
    assert out.getvalue() == ""
    assert f"no basis at n = {MAX_ORDER}" in capsys.readouterr().err


def test_power_trace_above_the_base_dimension_checks():
    # S(5) at n = 3 was refused, exit 2
    out = io.StringIO()
    argv = ["verify", "--algebra", "AE", "--n", "3", "--expr", "S(5)",
            "--samples", "2"]
    assert cli.main(argv, stream=out) == 0
    assert out.getvalue().endswith("overall: PASS\n")


@pytest.mark.parametrize("seed,code,lines", [
    (0, 1, ["FAIL operator:X0 residual=4.470e-08",
            "PASS operator:X1 residual=7.451e-09",
            "FAIL operator:X2 residual=2.980e-08"]),
    (1, 0, ["PASS operator:X0 residual=2.001e-11",
            "PASS operator:X1 residual=3.492e-10",
            "PASS operator:X2 residual=9.913e-11"]),
])
def test_eikonal_trace_above_the_order_cap_keeps_its_report(seed, code,
                                                            lines):
    # S(6; eik1) at n = 3 is above the old cap of n_base + 1 = 5 on S
    out = io.StringIO()
    argv = ["verify", "--equation", "eikonal-trace", "--n", "3", "--k", "6",
            "--samples", "5", "--seed", str(seed)]
    assert cli.main(argv, stream=out) == code
    verdict = "PASS" if code == 0 else "FAIL"
    assert out.getvalue() == "\n".join(lines + [f"overall: {verdict}", ""])
