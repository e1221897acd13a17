"""The draw of an invariance sweep: each point past the rank points makes
one member pass, the one seeded with the operators' flow rows, and the
plain pass runs only to decide a point that pass failed at.  Checked
against the plain draw followed by that pass
(:func:`references.reference_sweep_points`), and with test doubles whose
jet and plain passes disagree."""

import io
import math

import pytest

from invforge import cli, verify
from invforge.dual import EvaluationError, Jet1, derivs, value_of
from invforge.invcat import JetSpace, ScalarJetFunction
from invforge.jetspace import d1_coord, field_coord
from invforge.liealg import catalog, make_spec, prolong2
from invforge.verify import _draw, _moves_none, _points, check_absolute

from references import reference_sweep_points
from verdict_digest import BASIS_ALGEBRAS, BASIS_SAMPLES, EXPR_SAMPLES, \
    EXPRESSIONS

SEEDS = range(4)
CALLS = [["verify", "--algebra", name, "--n", "3", "--samples",
          str(BASIS_SAMPLES)] for name in BASIS_ALGEBRAS] + \
    [["verify", "--algebra", name, "--n", n, *extra, "--expr", expr,
      "--samples", str(EXPR_SAMPLES)] for name, n, extra, expr in EXPRESSIONS]


def _same_point(a, b):
    return repr((a.x, a.u, a.du, a.ddu)) == repr((b.x, b.u, b.du, b.ddu))


def _compare(ops, members, coords, sampler, count):
    """The seeded draw's points against the reference's, point by point:
    the same accepted and first-tried points and flow rows, every
    residual column bit for bit, every value within 1e-14 relative."""
    got = list(_points(ops, members, coords, sampler, count, None,
                       range(count)))
    want = list(reference_sweep_points(ops, members, coords, sampler, count))
    assert len(got) == len(want) == count
    for (point, jets, first, rows, _), (p, values, f, r, resids) in \
            zip(got, want):
        assert _same_point(point, p)
        assert _same_point(first, f)
        assert (first is point) == (f is p)
        assert repr(rows) == repr(r)
        for jet, value, resid in zip(jets, values, resids, strict=True):
            assert repr(derivs(jet, len(ops))) == repr(resid)
            assert abs(value_of(jet) - value) <= 1e-14 * abs(value)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_seeded_draw_matches_the_plain_draw_then_the_pass(argv, seed,
                                                          monkeypatch):
    seen = []
    original = verify._points

    def points(ops, members, coords, sampler, count, draw=None, seeded=()):
        seen.append((ops, members, coords, sampler, count, draw, seeded))
        return original(ops, members, coords, sampler, count, draw, seeded)

    monkeypatch.setattr(verify, "_points", points)
    cli.main([*argv, "--seed", str(seed)], stream=io.StringIO())
    assert len(seen) == 1
    ops, members, coords, sampler, count, draw, seeded = seen[0]
    assert draw is None and list(seeded) == list(range(count))
    monkeypatch.undo()
    _compare(ops, members, coords, sampler, count)


def _ae3():
    return [prolong2(f) for f in catalog(make_spec("AE", 3))]


def _live(ops, coords):
    return [op for op in ops if not _moves_none(op, coords)]


def test_an_error_of_the_jet_pass_alone_is_raised_not_redrawn():
    # (a) a point the plain test accepts is kept, so an error of the
    # seeded pass there is the check's error, as it was when the pass ran
    # after the plain draw; a draw that redrew on it would end in "could
    # not sample an admissible generic point"
    tried = []
    space = JetSpace(3, 1)
    sampler = space.sampler(0)

    def counted(idx):
        tried.append(idx)
        return sampler(idx)

    def fn(view):
        x = view.du(1, 0)
        if isinstance(x, Jet1):
            raise EvaluationError("jet reads refused")
        return x

    member = ScalarJetFunction("u_x1", fn, (d1_coord(1, 0),), space)
    with pytest.raises(EvaluationError, match="jet reads refused"):
        check_absolute(_ae3(), [member], n_samples=3, sampler=counted)
    assert tried == [0]


def test_a_non_finite_jet_value_takes_the_plain_value():
    # (b) the jet's value is inf where the plain value is finite: the
    # scale takes the plain value, so it stays finite and the nonzero
    # residuals of u_x1 under the rotations FAIL; a scale of inf would
    # PASS every record
    space = JetSpace(3, 1)

    def fn(view):
        x = view.du(1, 0)
        return Jet1(math.inf, x.d) if isinstance(x, Jet1) else x

    member = ScalarJetFunction("u_x1", fn, (d1_coord(1, 0),), space)
    plain = ScalarJetFunction("u_x1", lambda v: v.du(1, 0),
                              (d1_coord(1, 0),), space)
    ops = _ae3()
    report = check_absolute(ops, [member], n_samples=3, seed=1)
    want = check_absolute(ops, [plain], n_samples=3, seed=1)
    assert report == want
    assert all(math.isfinite(r.scale) for r in report.records)
    assert report.verdict == "FAIL"
    assert any(r.max_residual > 0.1 and r.verdict == "FAIL"
               for r in report.records)


@pytest.mark.parametrize("error", [EvaluationError, ZeroDivisionError,
                                   OverflowError])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_member_failing_at_some_points_keeps_the_plain_draws_points(
        error, seed):
    # (c) the member raises on both passes wherever u > 0: the seeded
    # draw redraws exactly the points the plain draw does
    space = JetSpace(3, 1)
    coords = (field_coord(1), d1_coord(1, 0))

    def fn(view):
        u = view.u(1)
        if value_of(u) > 0:
            raise error("u > 0")
        return u * view.du(1, 0)

    member = ScalarJetFunction("u*u_x1", fn, coords, space)
    ops = _live(_ae3(), coords)
    _compare(ops, [member], coords, space.sampler(seed), 6)
    points = [p is not f for p, _, f in (
        _draw(space.sampler(seed), [member], s) for s in range(6))]
    assert any(points)


@pytest.mark.parametrize("seed", range(6))
def test_an_overflow_at_a_point_redraws_it(seed, capsys):
    # exp(1000 u) overflows wherever u > 0.7; the draw raised
    # "math range error" at seeds 0 and 2 instead of redrawing
    out = io.StringIO()
    assert cli.main(["verify", "--algebra", "AE", "--n", "3", "--expr",
                     "exp(1000*u)", "--samples", "3", "--seed", str(seed)],
                    stream=out) == 0
    assert "PASS" in out.getvalue()
    assert capsys.readouterr().err == ""


def test_a_zero_divisor_at_every_point_cannot_be_sampled(capsys):
    # it raised "float division by zero" at the first point
    assert cli.main(["verify", "--algebra", "AE", "--n", "3", "--expr",
                     "u_x1/(u-u)", "--samples", "3"],
                    stream=io.StringIO()) == 3
    assert capsys.readouterr().err == \
        "evaluation failure: could not sample an admissible generic point\n"


def test_eval_of_an_overflow_is_still_an_evaluation_failure(capsys):
    out = io.StringIO()
    assert cli.main(["eval", "--n", "3", "--expr", "exp(1000)"],
                    stream=out) == 3
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "evaluation failure: math range error\n"
