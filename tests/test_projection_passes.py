"""The jet passes of an on-manifold check's projection.

A projection whose row names a coordinate takes that coordinate's exact
slope once per projected sample: the first sample's slope, taken to test
it for 0, is the first slope of its projection (``verify._projecting_draw``
hands it to ``verify.newton_project``).  A row that names none picks its
coordinate with ``verify.affine_coordinate``, which seeds the first
candidate alone and the others only when that one is not affine; the pick
must be the one pass's over every candidate
(``references.reference_affine_coordinate``).
"""

import pytest

from invforge import verify
from invforge.dual import EvaluationError, dexp
from invforge.invcat import EQUATIONS, JetSpace, ScalarJetFunction, \
    equation_function
from invforge.jetspace import d1_coord, d2_coord, field_coord, \
    sample_generic
from invforge.liealg import catalog, prolong2
from invforge.verify import affine_coordinate, check_on_manifold
from references import reference_affine_coordinate

SEEDS = range(21)
# every equation at its defaults, and at the verdict digest's other k, mu
# and mass
EQUATION_PARAMS = [(name, {}) for name in EQUATIONS] + [
    ("heat", {"mu": 0.0}), ("schrodinger", {"mass": 0.0}),
    ("galilei-projective", {"mu": 0.0}), ("galilei-projective", {"mu": 0.5}),
    ("schrodinger-projective", {"mass": 0.0}),
    ("schrodinger-projective", {"mass": 0.5}),
    ("eikonal-trace", {"k": 2}), ("eikonal-trace", {"k": 6})]


def _counted_views(monkeypatch):
    views = []
    original = verify.curvature_view

    def counted(point, coords):
        views.append(list(coords))
        return original(point, coords)
    monkeypatch.setattr(verify, "curvature_view", counted)
    return views


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("name", ("heat", "born-infeld", "eikonal"))
def test_a_projection_takes_one_slope_per_sample(name, n, monkeypatch):
    # each projected sample makes one exact-slope pass, at the point it
    # projects; the first sample's is the one its test for 0 took
    slopes, projected = [], []
    original_slope, original_project = verify._slope, verify.newton_project

    def slope(residual, point, cid):
        slopes.append(point)
        return original_slope(residual, point, cid)

    def project(residual, point, solve_for=None, **kwargs):
        projected.append(point)
        return original_project(residual, point, solve_for, **kwargs)
    monkeypatch.setattr(verify, "_slope", slope)
    monkeypatch.setattr(verify, "newton_project", project)
    info = EQUATIONS[name]
    assert info.solve_for is not None
    for seed in range(4):
        E = info.build(n)
        ops = [prolong2(f) for f in catalog(
            info.default_algebra(n, {"seed": seed}))]
        slopes.clear()
        projected.clear()
        rep = check_on_manifold(ops, E, solve_for=info.solve_for,
                                n_samples=5, seed=seed)
        assert rep.verdict == "PASS"
        assert len(projected) >= 5
        assert len(slopes) == len(projected)
        assert all(a is b for a, b in zip(slopes, projected))


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("name,params", EQUATION_PARAMS,
                         ids=[f"{n}{p}" for n, p in EQUATION_PARAMS])
def test_the_pick_is_the_one_pass_pick(name, params, n, monkeypatch):
    # on the first sample of every seed: the same coordinate, from one
    # pass where the first candidate is affine and from two where not
    views = _counted_views(monkeypatch)
    E = equation_function(name, n, **params)
    candidates = [c for kind in ("d2", "d1") for c in E.deps
                  if c.kind == kind]
    for seed in SEEDS:
        point = E.space.sampler(seed)(0)
        views.clear()
        picked = affine_coordinate(E, point)
        assert picked == reference_affine_coordinate(E, point)
        first = picked is not None and picked == candidates[0]
        assert views == [candidates[:1]] + [candidates[1:]] * (not first)


_SPACE = JetSpace(3, 1)
_D1 = tuple(d1_coord(1, i) for i in range(3))
_D2 = (d2_coord(1, 0, 0), d2_coord(1, 1, 2))


def _undefined(v):
    raise EvaluationError("outside the domain")


def _divides_by_zero(v):
    return v.du(1, 0) / 0


# (id, residual, coordinates it depends on, the pick, passes): the first
# candidate is d2(1, 0, 0) unless the coordinates say otherwise
_AD_HOC = [
    ("first-affine", lambda v: v.ddu(1, 0, 0) * v.du(1, 1)
     + v.ddu(1, 1, 2) ** 2, _D1 + _D2, _D2[0], 1),
    ("first-unread", lambda v: v.du(1, 0) ** 2 + v.ddu(1, 1, 2) * v.du(1, 1),
     _D1 + _D2, _D2[1], 2),
    ("first-unread-d1-wins", lambda v: v.du(1, 0) ** 2 + v.du(1, 2),
     _D1 + _D2, _D1[2], 2),
    ("first-zero-slope", lambda v: 0.0 * v.ddu(1, 0, 0) + v.du(1, 1),
     _D1 + _D2, _D1[1], 2),
    ("first-not-affine", lambda v: v.ddu(1, 0, 0) ** 2 + v.ddu(1, 1, 2)
     + v.du(1, 0), _D1 + _D2, _D2[1], 2),
    ("none-affine", lambda v: dexp(v.ddu(1, 0, 0)) + v.du(1, 0) ** 2
     + v.du(1, 1) ** 2 * v.du(1, 2) ** 2 + v.ddu(1, 1, 2) ** 2,
     _D1 + _D2, None, 2),
    ("one-candidate-not-affine", lambda v: v.ddu(1, 0, 0) ** 2, _D2[:1],
     None, 1),
    ("one-candidate-affine", lambda v: 2.0 * v.du(1, 1) - v.u(1), _D1[1:2],
     _D1[1], 1),
    ("constant", lambda v: 2.0, _D1 + _D2, None, 2),
    ("no-candidate", lambda v: 1.0 + v.u(1), (field_coord(1),), None, 1),
    ("raises", _undefined, _D1 + _D2, None, 1),
]


@pytest.mark.parametrize("fn,deps,want,passes", [c[1:] for c in _AD_HOC],
                         ids=[c[0] for c in _AD_HOC])
def test_ad_hoc_picks_are_the_one_pass_picks(fn, deps, want, passes,
                                             monkeypatch):
    views = _counted_views(monkeypatch)
    residual = ScalarJetFunction("r", fn, deps, _SPACE)
    for seed in range(4):
        point = sample_generic(3, 1, seed=seed)
        views.clear()
        assert affine_coordinate(residual, point) == want
        assert reference_affine_coordinate(residual, point) == want
        assert len(views) == passes


def test_an_error_other_than_evaluation_is_raised_as_before(monkeypatch):
    # the one pass raised it, and so do the first candidate's
    views = _counted_views(monkeypatch)
    residual = ScalarJetFunction("r", _divides_by_zero, _D1 + _D2, _SPACE)
    point = sample_generic(3, 1, seed=0)
    for pick in (affine_coordinate, reference_affine_coordinate):
        with pytest.raises(ZeroDivisionError):
            pick(residual, point)
    assert views == [[_D2[0]]]
