"""Numerical verification engine: absolute and on-manifold invariance
checks, functional-independence ranks, completeness accounting, and
covariance fits.

All checks are deterministic given (seed, parameters) and draw their points
through one loop, :func:`_points`, which admits every point by one
first-order jet pass per member seeded with the operators' flow rows
(:func:`invcat.operator_view`).  That pass gives F's value and every
operator's residual X_j(F) at once; where a rank reads the gradient (at
completeness's rank points and in :func:`independence_rank`) the unit rows
over the check's coordinates follow the flow rows, so the same pass gives
F's gradient too.  The plain pass only decides a point that pass failed
at.  No check calls :func:`family_jacobian`.

An invariance sweep leaves out every operator whose coefficients are all
constants that are 0 at each base coordinate and field value the check
reads (:func:`_moves_none`): the translations, where no member reads a
base coordinate, and J and I of the log representation, where none reads
a field value.  Such an operator's prolongation is exactly 0 at every
coordinate the check reads, so it builds no flow row and takes no slot in
the seeded pass, and its records are written as the pass would give
them: residual 0.0, scale 0.0.  One edge differs: when every operator of
a check is left out, no pass runs, so a member whose derivative is not
finite no longer raises.  While any operator is live, such a derivative
makes every live slot non-finite, and the check raises as before, naming
the first live operator.  :func:`check_covariance` leaves out the same
operators: no flow row, no slot in the pass, and an action of 0.0 at
every entry, which their zero flow rows give, through the same fit.

A check record is PASS when its residual stays within ``tol * (1 +
scale)``, the one rule :func:`_verdict`.  For an invariance record the
scale is the largest |F| times the norm of the operator's coefficient
vector seen across samples, so verdicts survive rescaling of homogeneous
invariants; for a covariance record it is the largest entry |X T| of the
action seen across samples.

A covariance fit solves on the pivots of the scaled full-pivot elimination
that also gives every rank (:func:`liealg.pivot_positions`), so one
threshold, ``RANK_PIVOT_RTOL``, decides rank throughout; its residual is
that of the fit on those pivots.
"""

from __future__ import annotations

import cmath

from .dual import EvaluationError, Jet1, Jet2, derivs, is_finite, value_of
from .invcat import (
    BasisFamily,
    ScalarJetFunction,
    TensorBuilder,
    _plain_view,
    curvature_view,
    gradient_view,
    operator_view,
    seeded_view,  # noqa: F401  (invbench/tracer.py wraps verify.seeded_view)
    solve_columns,
    sum_prod,
)
from .jetspace import JetPoint, Record
from .liealg import catalog, coefficient_rows, flow_positions, \
    matrix_rank, pivot_positions, prolong2

DEFAULT_TOL = 1e-8
DEFAULT_SAMPLES = 50
# newton_project stops below this residual, or fails after this many steps
_NEWTON_TARGET = 1e-12
_NEWTON_MAX_ITER = 50


class InvarianceRecord(Record):
    operator: str
    invariant: str
    max_residual: float
    scale: float
    verdict: str


class InvarianceReport(Record):
    label: str
    records: tuple
    n_samples: int
    seed: int
    tol: float

    @property
    def verdict(self):
        return "PASS" if all(r.verdict == "PASS" for r in self.records) \
            else "FAIL"

    def by_invariant(self):
        out = {}
        for r in self.records:
            cur = out.get(r.invariant)
            if cur is None or r.max_residual > cur.max_residual:
                out[r.invariant] = r
        return out

    def max_residual(self):
        return max((r.max_residual for r in self.records), default=0.0)


class RankReport(Record):
    label: str
    n_rows: int
    n_cols: int
    pivots: tuple
    rank: int
    expected: int
    verdict: str


class CompletenessReport(Record):
    label: str
    n_jet_vars: int
    algebra_rank: int
    expected: int
    family_size: int
    independence_rank: int
    invariance_verdict: str
    verdict: str


class CovarianceRecord(Record, not_compared=("fit",)):
    operator: str
    residual: float
    scale: float
    verdict: str
    fit: tuple = ()


class CovarianceReport(Record):
    label: str
    records: tuple
    n_samples: int
    seed: int
    tol: float

    @property
    def verdict(self):
        return "PASS" if all(r.verdict == "PASS" for r in self.records) \
            else "FAIL"


def family_jacobian(members, point: JetPoint, coords) -> list:
    """Rows of member gradients over ``coords``: one first-order jet pass
    per member, all members sharing one gradient view (and so its jets
    and power caches).  Entries outside a member's dependency set are 0.0;
    a member with none of ``coords`` in it is not evaluated.  No check
    calls it: the ranks read the gradient slots of :func:`_points`' widened
    pass, which are this pass's bit for bit within each member's
    dependencies.  It stays the gradient reference of the tests, and
    invbench's tracer binds it."""
    view = gradient_view(point, coords)
    rows = []
    for m in members:
        deps = set(m.deps)
        grad = [0.0] * len(coords) if deps.isdisjoint(coords) else \
            derivs(m.fn(view), len(coords))
        rows.append([g if c in deps else 0.0 for c, g in zip(coords, grad)])
    return rows


def _parts(family, seed, sampler):
    """Members, dependency coordinates (for a list, the union of the
    members' in first-seen order), sampler (``sampler``, else the space's
    at ``seed``) and label of a family or a list of members.  Records are
    keyed by member label, so a list whose labels repeat raises."""
    if isinstance(family, BasisFamily):
        return list(family.members), family.deps, \
            sampler or family.space.sampler(seed), family.label
    members = list(family)
    seen = set()
    for m in members:
        if m.label in seen:
            raise ValueError(f"member label {m.label!r} is repeated")
        seen.add(m.label)
    coords = tuple(dict.fromkeys(c for m in members for c in m.deps))
    return members, coords, sampler or members[0].space.sampler(seed), \
        "ad-hoc"


def _need_samples(n_samples):
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")


def _admitted(members, point):
    """The members' plain values at ``point``, on one plain view they share;
    None where one raises an ArithmeticError or is not finite."""
    view = _plain_view(point)
    try:
        values = [m.eval(point, view) for m in members]
    except ArithmeticError:
        return None
    return values if all(map(is_finite, values)) else None


def _draw(sampler, members, idx, test=_admitted):
    """Sample a point that ``test`` accepts; return it with what the test
    gives (by default the members' plain values), and the first point
    tried, ``sampler(idx)``, which is the point itself unless it was
    redrawn."""
    first = sampler(idx)
    for k in range(25):
        point = sampler(idx + 10007 * k) if k else first
        got = test(members, point)
        if got is not None:
            return point, got, first
    raise EvaluationError("could not sample an admissible generic point")


def _points(ops, members, coords, sampler, count, draw=None, trials=0):
    """Draw points 0 .. count - 1 once each, with ``draw`` (default
    :func:`_draw`), and yield per point (point, member jets, first point
    tried, the operators' flow rows over ``coords``, ``at``).  A point is
    admitted by one member pass seeded with the L = len(ops) rows
    (:func:`invcat.operator_view`), so slot j of a member's jet is X_j(F);
    at the first ``trials`` points the unit rows over ``coords`` follow the
    flow rows, and slot L + c is then dF/dcoords[c].  Jet rules are
    slot-wise, so widening the pass changes no slot: slot j is the narrow
    pass's, and slot L + c the gradient view's slot c.  Where the rows or
    the pass raise an ArithmeticError, or a value is not finite, the plain
    test (:func:`_admitted`) decides: a point it rejects is redrawn; at one
    it accepts, the error is raised again, or the jets take its values.
    The pass makes the plain pass's value operations (x/y as x*(1/y)), so
    the draw keeps the plain draw's points and raises that draw's errors,
    then the pass's."""
    at = ops and flow_positions(ops[0].source.n_base,
                                ops[0].source.n_fields, coords)
    k = len(coords)
    units = [[float(p == c) for p in range(k)]
             for c in range(k if trials else 0)]
    extra = []   # the unit rows at a rank point, read by test

    def test(members, point):
        try:
            rows = [op.flow_table(point, at) for op in ops]
            view = operator_view(point, coords, rows + extra)
            jets = [m.fn(view) for m in members]
        except ArithmeticError:
            if _admitted(members, point) is None:
                return None
            raise
        if all(map(is_finite, jets)):
            return jets, rows
        plain = _admitted(members, point)
        return None if plain is None else ([Jet1(v, derivs(
            j, len(ops) + len(extra))) for v, j in zip(plain, jets)], rows)

    for s in range(count):
        extra = units if s < trials else []
        point, (jets, rows), first = (draw or _draw)(sampler, members, s,
                                                     test)
        yield point, jets, first, rows, at


def _verdict(resid, scale, tol):
    """The one PASS rule of every check record."""
    return "PASS" if resid <= tol * (1.0 + scale) else "FAIL"


def _moves_none(op, coords) -> bool:
    """Whether ``op`` is 0 at every one of ``coords`` at every point: its
    coefficients are all constants (:attr:`liealg.VectorField.moves`),
    and those at the base coordinates and field values among ``coords``
    are 0.  Its prolongation is then 0 at every derivative coordinate too,
    so X(F) = 0 exactly for every F over ``coords``."""
    moves = op.source.moves
    return moves is not None and moves.isdisjoint(coords)


def _sweep(ops, members, coords, sampler, n_samples, tol, trials=0,
           draw=None):
    """Judge every operator on every member over the first ``n_samples``
    points of :func:`_points`: per (operator, member) the largest |X(F)|
    against the scale, the largest |F| times the norm of the operator's
    flow row.  Both are kept per operator label as a column over the
    members, updated a point at a time with ``map(max, ...)`` after one
    scan of the point's residual column, which raises for the first
    member whose residual is not finite under the first such operator.
    A point's residuals X(F) are the first L slots of the draw's jets, one
    per live operator.  An operator that moves none of ``coords``
    (:func:`_moves_none`) builds no flow row and takes no slot in that
    pass: its row is all zero, so its records are residual 0.0 and scale
    0.0, as the pass would give them.  Over the first ``trials`` points
    also take the largest generic rank, at ``sampler(s)`` as
    :func:`generic_rank` reads it, and Jacobian rank, whose rows are the
    remaining slots of the draw's widened pass; the left-out operators'
    zero rows, which never change a rank, are not in the generic rank's
    matrix.  Returns (records, generic rank, independence rank)."""
    worst = {op.label: [0.0] * len(members) for op in ops}
    scales = {label: list(col) for label, col in worst.items()}
    live = [op for op in ops if not _moves_none(op, coords)]
    alg_rank = ind_rank = 0
    for s, (point, jets, first, rows, at) in enumerate(_points(
            live, members, coords, sampler, max(trials, n_samples), draw,
            trials)):
        slots = [derivs(v, len(live) + len(coords) * (s < trials))
                 for v in jets]
        if s < n_samples and live:
            mags = [abs(value_of(v)) for v in jets]
            for op, row, col in zip(live, rows, zip(*slots)):
                if not all(map(cmath.isfinite, col)):
                    mem = next(m for m, r in zip(members, col)
                               if not cmath.isfinite(r))
                    raise EvaluationError(f"non-finite residual for "
                                          f"{mem.label} under {op.label}")
                cnorm = sum(abs(c) ** 2 for c in row) ** 0.5
                worst[op.label] = list(map(max, worst[op.label],
                                           map(abs, col)))
                scales[op.label] = list(map(max, scales[op.label],
                                            [a * cnorm for a in mags]))
        if s < trials:
            if first is not point:
                rows = [op.flow_table(first, at) for op in live]
            rows = coefficient_rows(rows, point.n_base, point.n_fields, at)
            alg_rank = max(alg_rank, matrix_rank(rows)[0])
            ind_rank = max(ind_rank, matrix_rank(
                [d[len(live):] for d in slots])[0])
    order = sorted(range(len(members)), key=lambda k: members[k].label)
    records = []
    for label in sorted(worst):
        for k in order:
            resid, scale = worst[label][k], scales[label][k]
            records.append(InvarianceRecord(label, members[k].label, resid,
                                            scale, _verdict(resid, scale,
                                                            tol)))
    return tuple(records), alg_rank, ind_rank


def check_absolute(ops, family, n_samples: int = DEFAULT_SAMPLES,
                   tol: float = DEFAULT_TOL, seed: int = 0,
                   sampler=None) -> InvarianceReport:
    """Evaluate every prolonged operator on every family member at sampled
    generic points; PASS iff all residuals stay within tolerance."""
    _need_samples(n_samples)
    members, coords, sampler, label = _parts(family, seed, sampler)
    records, _, _ = _sweep(ops, members, coords, sampler, n_samples, tol)
    return InvarianceReport(label, records, n_samples, seed, tol)


def newton_project(residual: ScalarJetFunction, point: JetPoint,
                   solve_for=None) -> JetPoint:
    """Project a point onto the residual's zero set by adjusting one jet
    coordinate, ``solve_for``, or when it is None the coordinate with the
    largest derivative at ``point``.  :func:`check_on_manifold` passes the
    coordinate :func:`affine_coordinate` picks, when there is one.

    A secant iteration: the first slope is the residual's exact derivative
    along the coordinate, from one ``Jet1`` pass; each later slope is the
    difference quotient of the last two iterates, so a step costs one plain
    evaluation.  Along a coordinate the residual is affine in, the first
    step lands on the zero set up to rounding.  A step that leaves the
    coordinate where it was raises."""
    cid = solve_for
    if cid is None:
        best = 0.0
        grad = derivs(residual.fn(gradient_view(point, residual.deps)),
                      len(residual.deps))
        for c, d in zip(residual.deps, grad):
            if abs(d) > best:
                best, cid, slope = abs(d), c, d
        if cid is None:
            raise EvaluationError("residual has no usable jet coordinate")
    else:
        slope = _slope(residual, point, cid)
    prev = None
    for _ in range(_NEWTON_MAX_ITER):
        val = residual.eval(point)
        if abs(val) < _NEWTON_TARGET:
            return _on_section(point, cid)
        x = point.value(cid)
        if prev is not None:
            prev_x, prev_val = prev
            if x == prev_x:
                raise EvaluationError("projection step did not move the "
                                      "solve coordinate")
            slope = (val - prev_val) / (x - prev_x)
        if abs(slope) < 1e-10:
            raise EvaluationError("residual not monotone in the solve "
                                  "coordinate")
        prev = (x, val)
        point = point.replace(cid, x - val / slope)
    raise EvaluationError("Newton projection did not converge")


def _slope(residual: ScalarJetFunction, point: JetPoint, cid):
    """The residual's exact derivative along ``cid`` at ``point``, from
    one ``Jet1`` pass."""
    return derivs(residual.fn(gradient_view(point, [cid])), 1)[0]


def _on_section(point: JetPoint, cid) -> JetPoint:
    """``point`` with the conjugate partner of ``cid``'s slot set to the
    conjugate of ``cid``'s value, so that a point whose projection moved
    one slot of a complex pair lies on the conjugate section again.  A
    base coordinate, or a real field's, has no partner."""
    r = cid.r if cid.kind == "base" else point.conjugate_index(cid.r)
    if r == cid.r:
        return point
    return point.replace(cid.copy_with(r=r), point.value(cid).conjugate())


def affine_coordinate(residual: ScalarJetFunction, point: JetPoint):
    """The first d2, else the first d1, dependency of ``residual`` along
    which its exact second derivative at ``point`` is 0 and its first is
    not; None when there is none, or when the residual cannot be
    evaluated there.  One :class:`Jet2` pass over the diagonal
    pairs (:func:`invcat.curvature_view`) gives both derivatives of every
    candidate."""
    coords = [c for kind in ("d2", "d1") for c in residual.deps
              if c.kind == kind]
    k = len(coords)
    try:
        out = residual.fn(curvature_view(point, coords))
    except EvaluationError:
        return None
    if not isinstance(out, Jet2):
        return None
    for c, d1, d2 in zip(coords, out.d[k:2 * k], out.d[2 * k:]):
        if d2 == 0 and d1 != 0:
            return c
    return None


def _projecting_draw(residual, solve_for, n_samples):
    """A draw like :func:`_draw` that projects samples onto the zero set
    of ``residual`` (:func:`newton_project`) and returns the first
    projected point that ``test`` accepts, with what the test gives,
    skipping samples that fail to project; all draws together try at most
    20 * n_samples + 101 samples.  Every projection moves ``solve_for``,
    unless it is None or the residual's exact derivative along it at the
    first sample tried is 0, as u_t's is in the heat flow at mu = 0: then
    that sample picks the coordinate (:func:`affine_coordinate`), or
    leaves each to the largest derivative."""
    attempts = iter(range(20 * n_samples + 101))
    picked = solve_for

    def draw(sampler, members, idx, test=_admitted):
        nonlocal picked
        for attempt in attempts:
            point = sampler(attempt)
            try:
                if attempt == 0 and (solve_for is None or
                                     _slope(residual, point, solve_for) == 0):
                    picked = affine_coordinate(residual, point)
                point = newton_project(residual, point, picked)
            except ArithmeticError:
                continue
            got = test(members, point)
            if got is not None:
                return point, got, point
        raise EvaluationError("persistent Newton projection failure")

    return draw


def check_on_manifold(ops, residual: ScalarJetFunction, solve_for=None,
                      n_samples: int = 20, tol: float = DEFAULT_TOL,
                      seed: int = 0, sampler=None) -> InvarianceReport:
    """Project samples onto the solution manifold of ``residual`` and
    test all prolonged operators there.  Each projection moves
    ``solve_for``; when it is None or the residual's derivative along it
    is 0 at the first sample, the first d2, else d1, coordinate the
    residual is affine in there (:func:`affine_coordinate`), and when
    there is none, each sample's largest-derivative coordinate."""
    _need_samples(n_samples)
    records, _, _ = _sweep(
        ops, [residual], residual.deps,
        sampler or residual.space.sampler(seed), n_samples, tol,
        draw=_projecting_draw(residual, solve_for, n_samples))
    return InvarianceReport(residual.label, records, n_samples, seed, tol)


def independence_rank(family, n_samples: int = 5,
                      seed: int = 0) -> RankReport:
    """Generic rank of the family's Jacobian over its dependency set; PASS
    when it is the member count."""
    _need_samples(n_samples)
    members, coords, sampler, label = _parts(family, seed, None)
    best_rank, best_pivots = 0, ()
    for _, jets, _, _, _ in _points([], members, coords, sampler, n_samples,
                                    trials=n_samples):
        rank, pivots = matrix_rank([derivs(v, len(coords)) for v in jets])
        if rank > best_rank:
            best_rank, best_pivots = rank, tuple(pivots)
    verdict = "PASS" if best_rank == len(members) else "FAIL"
    return RankReport(label, len(members), len(coords), best_pivots,
                      best_rank, len(members), verdict)


def completeness(spec, family: BasisFamily, n_samples: int = 10,
                 tol: float = DEFAULT_TOL, seed: int = 0) -> CompletenessReport:
    """Three-way completeness accounting for a family against its algebra:
    the family size must equal (dependency variables) - (restricted
    generic rank), the Jacobian must have full rank, and every member must
    be invariant.  One pass (:func:`_sweep`) shares each point across the
    three counts: both ranks read the first max(3, n_samples // 2) points,
    the invariance check the first ``n_samples``."""
    _need_samples(n_samples)
    ops = [prolong2(f) for f in catalog(spec)]
    members, coords, sampler, _ = _parts(family, seed, None)
    records, alg_rank, ind_rank = _sweep(
        ops, members, coords, sampler, n_samples, tol, max(3, n_samples // 2))
    invariance = InvarianceReport(family.label, records, n_samples, seed,
                                  tol).verdict
    expected = len(coords) - alg_rank
    ok = (expected == len(members) and ind_rank == len(members)
          and invariance == "PASS")
    return CompletenessReport(family.label, len(coords), alg_rank, expected,
                              len(members), ind_rank, invariance,
                              "PASS" if ok else "FAIL")


def _lstsq(a, bs):
    """Fit a x = b for every right-hand side b in ``bs``: x solves the rows
    and columns of the pivots :func:`liealg.pivot_positions` accepts, in
    one elimination carrying every b (:func:`invcat.solve_columns`), and is
    0.0 in every other column.  Returns per b (x, residual norm |b - a x|),
    a particular solution's, so never below the least-squares residual."""
    pivots = pivot_positions(a)
    sols = solve_columns([[a[r][c] for _, c, _ in pivots]
                          for r, _, _ in pivots],
                         [[b[r] for r, _, _ in pivots] for b in bs],
                         "covariance fit", 0.0) if pivots else [[]] * len(bs)
    fits = []
    for b, sol in zip(bs, sols):
        x = [0.0] * len(a[0])
        for (_, c, _), v in zip(pivots, sol):
            x[c] = v
        fits.append((x, sum(abs(bi - sum_prod(row, x)) ** 2
                            for row, bi in zip(a, b)) ** 0.5))
    return fits


def check_covariance(tensor: TensorBuilder, ops, n_samples: int = 10,
                     tol: float = DEFAULT_TOL,
                     seed: int = 0) -> CovarianceReport:
    """Fit the prolonged action on a tensor against rotation-plus-scaling: a
    skew mixing matrix plus a scalar multiple; PASS when the fit residual is
    negligible against the action's size.  The pass that admits each point
    (:func:`_points`) gives each T_c and X_j(T_c)."""
    _need_samples(n_samples)
    comps = tensor.components()
    size, gsign = tensor.size, tensor.space.metric.signs
    # Fit rows, one per entry T_I, I = (a,) or (a, b) with a <= b, the
    # component at I read in base ``size``.  Per skew pair (p, q), B G acts
    # on each index of I: where it is p it adds G_qq T with that index set
    # to q, where it is q it subtracts G_pp T with that index set to p.
    index = [(a,) for a in range(size)] if tensor.kind == "vector" \
        else [(a, b) for a in range(size) for b in range(a, size)]

    def pos(idx):
        return sum(i * size ** (len(idx) - 1 - k) for k, i in enumerate(idx))

    def entry(idx, k, i):
        return pos(idx[:k] + (i,) + idx[k + 1:])

    mixing = [[[(gsign[q], entry(idx, k, q)) if i == p
                else (-gsign[p], entry(idx, k, p))
                for k, i in enumerate(idx) if i in (p, q)]
               for p in range(size) for q in range(p + 1, size)]
              for idx in index]
    cells = [pos(idx) for idx in index]
    worst = {op.label: 0.0 for op in ops}
    scales = {op.label: 0.0 for op in ops}
    fits = {op.label: () for op in ops}
    live = [op for op in ops if not _moves_none(op, tensor.deps)]
    for _, jets, _, _, _ in _points(
            live, comps, tensor.deps, tensor.space.sampler(seed), n_samples):
        t = [value_of(v) for v in jets]
        rows = []
        for cell, pairs in zip(cells, mixing):
            row = []
            for terms in pairs:
                acc = 0.0
                for sign, c in terms:
                    acc += sign * t[c]
                row.append(acc)
            rows.append(row + [t[cell]])
        acts = zip(*[derivs(jets[c], len(live)) for c in cells])
        rhs = [next(acts) if op in live else [0.0] * len(cells) for op in ops]
        for op, b, (fit, resid) in zip(ops, rhs, _lstsq(rows, rhs)):
            if not is_finite(resid):
                raise EvaluationError(
                    f"non-finite fit residual for {tensor.label} under "
                    f"{op.label}")
            worst[op.label] = max(worst[op.label], resid)
            scales[op.label] = max(scales[op.label], max(abs(v) for v in b))
            fits[op.label] = tuple(fit)
    records = tuple(CovarianceRecord(
        op.label, worst[op.label], scales[op.label],
        _verdict(worst[op.label], scales[op.label], tol), fits[op.label])
        for op in ops)
    return CovarianceReport(tensor.label, records, n_samples, seed, tol)
