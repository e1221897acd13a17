"""What each jet-symbol text and each AP_inf override name reads, or the
error that names it: one row per text, bound without and with a time
coordinate."""

import io

import pytest

from invforge import cli
from invforge.exprlang import BindError, bind, bind_scalar_function
from invforge.jetspace import COMPLEX, sample_generic
from invforge.liealg import catalog, make_spec


def _outcome(call):
    """The coordinates a bound text reads, or its error and message."""
    try:
        fn = call()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return " ".join(map(str, fn.deps))


def _unknown(text):
    return f"BindError: unknown symbol {text!r}"


_NO_T = "BindError: 't' is only valid in a time binding"

# text: (read over x1..x3, read over t, x1..x3), two fields each; the ids
# are 0-based, so x1 is x0 without a time coordinate
SYMBOLS = {
    "x": (_unknown("x"),) * 2,
    "xa": (_unknown("xa"),) * 2,
    "tt": (_unknown("tt"),) * 2,
    "ux": (_unknown("ux"),) * 2,
    "u1x": (_unknown("u1x"),) * 2,
    "t": (_NO_T, "x0"),
    "x0": ("BindError: index out of range: x0", "x0"),
    "x1": ("x0", "x1"),
    "x3": ("x2", "x3"),
    "x01": ("x0", "x1"),
    "x9": ("BindError: index out of range: x9",) * 2,
    "u": ("u1", "u1"),
    "u_": (_unknown("u_"),) * 2,
    "u1_": (_unknown("u1_"),) * 2,
    "u1": ("u1", "u1"),
    "u01": ("u1", "u1"),
    "u2": ("u2", "u2"),
    "u0": ("BindError: field index out of range: u0",) * 2,
    "u3": ("BindError: field index out of range: u3",) * 2,
    "u_x": ("BindError: bad derivative suffix 'x'",) * 2,
    "u_xx": ("BindError: bad derivative suffix 'xx'",) * 2,
    "u_x1x": ("BindError: bad derivative suffix 'x1x'",) * 2,
    "u_x1_x2": ("BindError: bad derivative suffix 'x1_x2'",) * 2,
    "u_x1x2x3": ("BindError: derivative order above two: 'u_x1x2x3'",) * 2,
    "u_ttt": ("BindError: derivative order above two: 'u_ttt'",) * 2,
    "u2_x9x1x1": ("BindError: derivative order above two: 'u2_x9x1x1'",) * 2,
    "u_x9": ("BindError: index out of range: x9",) * 2,
    "u_x01": ("u1_0", "u1_1"),
    "u2_x1x2": ("u2_01", "u2_12"),
    "u_t": (_NO_T, "u1_0"),
    "u_tt": (_NO_T, "u1_00"),
    "u_tx1": (_NO_T, "u1_01"),
    "u_x1t": (_NO_T, "u1_01"),
    "i": ("BindError: 'i' requires a complex field binding",) * 2,
    # a decimal digit of another script is read as int() reads it
    "u_x٣": ("u1_2", "u1_3"),
    # a digit int() cannot read is no index
    "u_x²": ("BindError: bad derivative suffix 'x²'",) * 2,
    "u²": (_unknown("u²"),) * 2,
    "x²": (_unknown("x²"),) * 2,
}


@pytest.mark.parametrize("text", SYMBOLS)
def test_symbol_reads_or_names_its_error(text):
    assert (_outcome(lambda: bind(text, 3, 2)),
            _outcome(lambda: bind(text, 4, 2, time_mode=True))) \
        == SYMBOLS[text]


@pytest.mark.parametrize("text, same", [
    ("S(2; ddu٣)", "S(2; ddu3)"),
    ("contract(du٣, du1)", "contract(du3, du1)"),
    ("R(2; du٣, ddu٢)", "R(2; du3, ddu2)"),
])
def test_selector_reads_a_decimal_digit_of_another_script(text, same):
    point = sample_generic(3, 3, seed=4)
    fn, ref = bind(text, 3, 3), bind(same, 3, 3)
    assert (fn.deps, fn.eval(point)) == (ref.deps, ref.eval(point))


def test_position_takes_no_index():
    with pytest.raises(BindError, match="unknown vector 'x1'"):
        bind("contract(x1, x)", 3)


def test_imaginary_unit_reads_nothing_under_a_complex_binding():
    assert _outcome(lambda: bind("i", 3, 2, field_kind=COMPLEX)) == ""


# override name: the error naming it, or "" where AP_inf (n = 3) takes it
OVERRIDES = {
    "eta": "",
    "d": "ValueError: a 'd' function needs extended=True",
    "a0": "",
    "a3": "",
    "a٣": "",
    "b01": "",
    "b23": "",
    "b٠١": "",
    "b10": "ValueError: bad antisymmetric component 'b10'",
    "a9": "ValueError: bad translation component 'a9'",
    "b0": "ValueError: unknown coefficient function 'b0'",
    "b012": "ValueError: unknown coefficient function 'b012'",
    "a": "ValueError: unknown coefficient function 'a'",
    "e": "ValueError: unknown coefficient function 'e'",
    "a²": "ValueError: unknown coefficient function 'a²'",
    "b1²": "ValueError: unknown coefficient function 'b1²'",
}


@pytest.mark.parametrize("name", OVERRIDES)
def test_override_name_is_taken_or_named_in_its_error(name):
    spec = make_spec("AP_inf", 3, instances=1,
                     functions=((name, bind_scalar_function("1 + u")),))
    try:
        catalog(spec)
    except ValueError as exc:
        assert f"{type(exc).__name__}: {exc}" == OVERRIDES[name]
    else:
        assert OVERRIDES[name] == ""


def test_d_override_with_the_dilation_term():
    spec = make_spec("AP_inf", 3, instances=1, extended=True,
                     functions=(("d", bind_scalar_function("u")),))
    assert len(catalog(spec)) == 1


@pytest.mark.parametrize("argv, message", [
    (["eval", "--expr", "u_x²", "--n", "3"], "bad derivative suffix 'x²'"),
    (["eval", "--expr", "u² + 1", "--n", "3"], "unknown symbol 'u²'"),
    (["verify", "--equation", "eikonal", "--n", "3", "--function", "a²=u"],
     "unknown coefficient function 'a²'"),
    (["verify", "--equation", "eikonal", "--n", "3", "--function", "b1²=u"],
     "unknown coefficient function 'b1²'"),
])
def test_cli_names_a_malformed_name(argv, message, capsys):
    assert cli.main(argv, stream=io.StringIO()) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_cli_reads_a_decimal_digit_of_another_script():
    out = io.StringIO()
    assert cli.main(["eval", "--expr", "u_x٣", "--n", "3"], stream=out) == 0
    same = io.StringIO()
    assert cli.main(["eval", "--expr", "u_x3", "--n", "3"], stream=same) == 0
    assert out.getvalue().split(" = ")[1] == same.getvalue().split(" = ")[1]
