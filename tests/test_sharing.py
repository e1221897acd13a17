"""What a point's members share is computed once per view, to the bit.

Members evaluated on one view share its cache: matrices, their metric
powers, power traces, power-form iterates and the value of every text,
call and group that exprlang's parser interns.  These tests check that a
value read from that cache is the value a member computes alone, and count
the work that sharing saves, which repeats exactly.
"""

import math

import pytest

from invforge import invcat, verify
from invforge.dual import EvaluationError, Jet1
from invforge.exprlang import bind
from invforge.invcat import (
    EQUATIONS,
    _View,
    _plain_view,
    basis,
    curvature_view,
    equation_function,
    gradient_view,
    operator_view,
)
from invforge.jetspace import euclidean, minkowski
from invforge.liealg import catalog, make_spec, prolong2
from invforge.verify import _draw, check_absolute
from references import mixed_power_trace, power_form, power_trace, \
    reference_mixed_power_trace, reference_power_form, reference_power_trace
from verdict_digest import BASIS_ALGEBRAS, MASSLESS_LAMBDAS


def _spec(name, n, **kw):
    return make_spec(name, n, **({"rep": "log"} if name.startswith("AG")
                                 else {}), **kw)


def _basis_or_none(name, n, **kw):
    try:
        return basis(_spec(name, n, **kw))
    except ValueError:
        return None


def _member_lists():
    """(id, members, coordinates, space) of every cataloged basis at
    n = 3 and 4, the massless AG2_II family and each equation residual."""
    for n in (3, 4):
        for name in BASIS_ALGEBRAS:
            fam = _basis_or_none(name, n)
            if fam is not None:
                yield f"{name}-n{n}", fam.members, fam.deps, fam.space
    for lam in MASSLESS_LAMBDAS:
        fam = basis(_spec("AG2_II", 3, mass=0.0, lam=float(lam)))
        yield f"AG2_II-mass0-lam{lam}", fam.members, fam.deps, fam.space
    for name in EQUATIONS:
        fn = equation_function(name, 3)
        yield name, (fn,), fn.deps, fn.space


_LISTS = list(_member_lists())


def _bits(x):
    """The value and every derivative slot of ``x``, as text."""
    if hasattr(x, "d"):
        return repr((x.value, x.d))
    return repr(x)


def _outcome(fn, view):
    try:
        return _bits(fn(view))
    except EvaluationError as exc:
        return f"raised {exc}"


def _views(point, coords):
    """A maker of each kind of view of ``point``: plain, and the gradient,
    operator and curvature views seeded along ``coords`` (the curvature
    view along the first four of them, its slots growing three per
    coordinate)."""
    rows = [[math.sin(1.0 + 3 * j + p) for p in range(len(coords))]
            for j in range(3)]
    return {"plain": lambda: _plain_view(point),
            "gradient": lambda: gradient_view(point, coords),
            "operator": lambda: operator_view(point, coords, rows),
            "curvature": lambda: curvature_view(point, coords[:4])}


@pytest.mark.parametrize("case", _LISTS, ids=[c[0] for c in _LISTS])
def test_values_on_a_shared_view_are_those_on_a_fresh_one(case):
    """At two sampled points and on each kind of view, every member gives
    the same bits evaluated on one view that all members share, read a
    second time from that view, and evaluated alone on a fresh view."""
    _, members, coords, space = case
    sampler = space.sampler(0)
    for idx in range(2):
        point = sampler(idx)
        for kind, make in _views(point, list(coords)).items():
            shared = make()
            first = [_outcome(m.fn, shared) for m in members]
            again = [_outcome(m.fn, shared) for m in members]
            alone = [_outcome(m.fn, make()) for m in members]
            assert first == alone, kind
            assert again == alone, kind


def _jet_matrix(mat, k, rng):
    return [[Jet1(v, [rng.uniform(-1, 1) for _ in range(k)]) for v in row]
            for row in mat]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("jets", [False, True], ids=["float", "Jet1"])
def test_power_functions_match_the_references_bit_for_bit(n, jets, rng):
    """The public power trace, mixed trace and power form give, for
    k = 1..n+1, the bits of the loops they replaced: S_k as the trace of
    the full k-th power, R_k from t_0 = v on, on floats and on jets."""
    for metric in (euclidean(n), minkowski(n)):
        signs = metric.signs
        u = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
        v = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
        vec = [rng.uniform(-2, 2) for _ in range(n)]
        if jets:
            u, v = _jet_matrix(u, 3, rng), _jet_matrix(v, 3, rng)
            vec = [Jet1(x, [rng.uniform(-1, 1) for _ in range(3)])
                   for x in vec]
        for k in range(1, n + 2):
            assert _bits(power_trace(u, metric, k)) == \
                _bits(reference_power_trace(u, signs, k))
            assert _bits(power_form(vec, u, metric, k)) == \
                _bits(reference_power_form(vec, u, signs, k))
            for j in range(k + 1):
                assert _bits(mixed_power_trace(u, v, metric, j, k)) == \
                    _bits(reference_mixed_power_trace(u, v, signs, j, k))


# ---------------------------------------------------------------- metrics


_AP = [prolong2(f) for f in catalog(make_spec("AP", 3))]


def test_members_under_different_metrics_read_their_own_traces():
    """S(2) under the Minkowski metric and 2 * S(2) under the Euclidean
    one share a view in a mixed list; each member's records are those it
    gets when checked alone, in either order."""
    mink = bind("S(2)", 4, metric=minkowski(4))
    eucl = bind("2 * S(2)", 4)

    def records(members):
        report = check_absolute(_AP, members, n_samples=2, seed=0)
        return {(r.operator, r.invariant): repr(r) for r in report.records}

    alone = {**records([mink]), **records([eucl])}
    assert {rec for rec, text in alone.items() if "'FAIL'" in text} == \
        {("J01", "2 * S(2)"), ("J02", "2 * S(2)"), ("J03", "2 * S(2)")}
    assert records([mink, eucl]) == alone
    assert records([eucl, mink]) == alone


def test_repeated_member_labels_are_refused():
    """Records are keyed by member label, so a list that repeats one
    would merge two members' records."""
    first = bind("S(2)", 4, metric=minkowski(4))
    second = bind("S(2)", 4)
    with pytest.raises(ValueError, match=r"'S\(2\)' is repeated"):
        check_absolute(_AP, [first, second], n_samples=2, seed=0)


@pytest.mark.parametrize("n", [3, 4])
def test_every_cataloged_basis_has_unique_labels(n):
    for name in BASIS_ALGEBRAS:
        fam = _basis_or_none(name, n)
        if fam is not None:
            assert len(set(fam.labels())) == len(fam.members), name


# ------------------------------------------------------------ work counts


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n, products", [(3, 1), (5, 3)])
def test_power_traces_build_powers_up_to_the_one_below(monkeypatch, n,
                                                       products):
    """S_k is the trace of P_{k-1} P_1, so the members of AE make the
    matrix products P_2 .. P_{n-1} once per view."""
    fam = basis(make_spec("AE", n))
    calls = _count(monkeypatch, invcat, "mat_mul")
    view = gradient_view(fam.space.sampler(0)(0), fam.deps)
    for member in fam.members:
        member.fn(view)
    assert len(calls) == products


def test_power_forms_share_their_iterates(monkeypatch):
    """R_1 .. R_5 of one vector and matrix make 4 matrix-vector products
    on one view, one row product each per entry."""
    fns = [bind(f"R({k})", 5) for k in range(1, 6)]
    point = fns[0].space.sampler(0)(0)
    calls = _count(monkeypatch, invcat, "sum_prod")
    view = _plain_view(point)
    for fn in fns:
        fn.fn(view)
    assert len(calls) == 4 * 5


class _CountingView(_View):
    """A view that counts its reads of u1_t."""

    __slots__ = ("reads",)

    def __init__(self, view):
        super().__init__(view._x, view._u, view._du, view._ddu)
        self.reads = 0

    def du(self, r, i):
        self.reads += (r, i) == (1, 0)
        return super().du(r, i)


def test_an_interned_leader_is_evaluated_once_per_view():
    """The AG2_II members at n = 3 divide by the leader N1 = 2 i mass u1_t
    + S(1; 1) + du1.du1, one interned group.  On one operator view u1_t is
    read twice in all, once by N1 and once by N2's group, where the
    members evaluated each on its own view read it once per member that
    holds N1."""
    fam = basis(_spec("AG2_II", 3))
    point = fam.space.sampler(0)(0)
    coords = list(fam.deps)
    rows = [[math.cos(j + p) for p in range(len(coords))] for j in range(2)]

    def view():
        return _CountingView(operator_view(point, coords, rows))

    leader = "(i * 2.0 * u1_t + S(1; 1) + contract(du1, du1))"
    texts = invcat._galilei_rows(fam.algebra, "printed")[1]
    holders = [label for label, text in texts if leader in text]
    shared = view()
    for member in fam.members:
        member.fn(shared)
    assert shared.reads == 2
    alone = 0
    for member in fam.members:
        fresh = view()
        member.fn(fresh)
        alone += fresh.reads
    assert alone >= len(holders) > 10


def test_a_draw_evaluates_every_member_on_one_plain_view(monkeypatch):
    """_draw makes one plain view per point tried and evaluates every
    member on it; a redraw makes a new one."""
    fam = basis(make_spec("AE", 3))
    sampler = fam.space.sampler(1)
    bad = sampler(0)
    views, seen = [], []
    made = verify._plain_view

    def counted(point):
        views.append(made(point))
        return views[-1]

    evaluate = invcat.ScalarJetFunction.eval

    def recorded(self, point, view=None):
        seen.append(view)
        if point == bad and self is fam.members[-1]:
            raise EvaluationError("poisoned")
        return evaluate(self, point, view)

    monkeypatch.setattr(verify, "_plain_view", counted)
    monkeypatch.setattr(invcat.ScalarJetFunction, "eval", recorded)
    point, values, first = _draw(sampler, fam.members, 1)
    assert len(views) == 1 and first is point
    assert seen == [views[0]] * len(fam.members)
    views.clear()
    seen.clear()
    point, values, first = _draw(sampler, fam.members, 0)
    assert first == bad and point != bad
    assert len(views) == 2 and views[0] is not views[1]
    assert seen == [views[0]] * len(fam.members) \
        + [views[1]] * len(fam.members)
