"""Numerical verification engine: absolute and on-manifold invariance
checks, functional-independence ranks, completeness accounting, and
covariance fits.

All checks are deterministic given (seed, parameters) and draw their
points through one loop, :func:`_points`.  A check record is PASS when its
residual stays within ``tol * (1 + scale)``, the one rule
:func:`_verdict`.  For an invariance record the scale is the largest |F|
times the norm of the operator's coefficient vector seen across samples,
so verdicts survive rescaling of homogeneous invariants; for a covariance
record it is the largest entry |X T| of the action seen across samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .dual import EvaluationError, derivs, is_finite
from .invcat import (
    BasisFamily,
    ScalarJetFunction,
    TensorBuilder,
    gradient_view,
    seeded_view,  # noqa: F401  (invbench/tracer.py wraps verify.seeded_view)
)
from .jetspace import JetPoint
from .liealg import catalog, coefficient_rows, flow_positions, \
    matrix_rank, prolong2

DEFAULT_TOL = 1e-8
DEFAULT_SAMPLES = 50


@dataclass(frozen=True)
class InvarianceRecord:
    operator: str
    invariant: str
    max_residual: float
    scale: float
    verdict: str


@dataclass(frozen=True)
class InvarianceReport:
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


@dataclass(frozen=True)
class RankReport:
    label: str
    n_rows: int
    n_cols: int
    pivots: tuple
    rank: int
    expected: int
    verdict: str


@dataclass(frozen=True)
class CompletenessReport:
    label: str
    n_jet_vars: int
    algebra_rank: int
    expected: int
    family_size: int
    independence_rank: int
    invariance_verdict: str
    verdict: str


@dataclass(frozen=True)
class CovarianceRecord:
    operator: str
    residual: float
    scale: float
    verdict: str
    fit: tuple = dc_field(default=(), compare=False)


@dataclass(frozen=True)
class CovarianceReport:
    label: str
    records: tuple
    n_samples: int
    seed: int
    tol: float

    @property
    def verdict(self):
        return "PASS" if all(r.verdict == "PASS" for r in self.records) \
            else "FAIL"


def _columns(members, coords) -> list:
    """Per member, the positions in ``coords`` of its dependencies."""
    return [[ci for ci, c in enumerate(coords) if c in deps]
            for deps in (set(m.deps) for m in members)]


def family_jacobian(members, point: JetPoint, coords, cols=None) -> list:
    """Rows of member gradients over ``coords``: one first-order jet pass
    per member, all members sharing one gradient view (and so its jets
    and power caches).  Entries outside a member's dependency set are 0.0;
    a member with none of ``coords`` in it is not evaluated.  ``cols`` is
    ``_columns(members, coords)``, which a check computes once."""
    view = gradient_view(point, coords)
    rows = []
    for m, mcols in zip(members, cols or _columns(members, coords)):
        row = [0.0] * len(coords)
        if mcols:
            grad = derivs(m.fn(view), len(coords))
            for ci in mcols:
                row[ci] = grad[ci]
        rows.append(row)
    return rows


def _parts(family, seed, sampler):
    """Members, dependency coordinates (for a list, the union of the
    members' in first-seen order), sampler (``sampler``, else the space's
    at ``seed``) and label of a family or a list of members."""
    if isinstance(family, BasisFamily):
        return list(family.members), family.deps, \
            sampler or family.space.sampler(seed), family.label
    members = list(family)
    coords = tuple(dict.fromkeys(c for m in members for c in m.deps))
    return members, coords, sampler or members[0].space.sampler(seed), \
        "ad-hoc"


def _need_samples(n_samples):
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")


def _draw(sampler, members, idx):
    """Sample a point where every member evaluates finitely; return it with
    the members' plain values there, and the first point tried,
    ``sampler(idx)``, which is the point itself unless it was redrawn."""
    attempt = idx
    for _ in range(25):
        point = sampler(attempt)
        if attempt == idx:
            first = point
        try:
            values = []
            for m in members:
                val = m.eval(point)
                if not is_finite(val):
                    raise EvaluationError(f"non-finite value of {m.label}")
                values.append(val)
            return point, values, first
        except EvaluationError:
            attempt += 10007
    raise EvaluationError("could not sample an admissible generic point")


def _points(ops, members, coords, sampler, count, draw=None):
    """Draw points 0 .. count - 1 once each, with ``draw`` (default
    :func:`_draw`), and yield per point (point, member values, first point
    tried, family Jacobian, the operators' flow rows, ``at``)."""
    cols = _columns(members, coords)
    at = None
    for s in range(count):
        point, values, first = (draw or _draw)(sampler, members, s)
        at = at or flow_positions(point.n_base, point.n_fields, coords)
        yield (point, values, first,
               family_jacobian(members, point, coords, cols),
               [op.flow_table(point, at) for op in ops], at)


def _apply(row, grad):
    """X(F) = sum_c X_c dF/dc of the flow row ``row`` on the gradient."""
    acc = 0.0
    for c, g in zip(row, grad):
        acc = acc + c * g
    return acc


def _verdict(resid, scale, tol):
    """The one PASS rule of every check record."""
    return "PASS" if resid <= tol * (1.0 + scale) else "FAIL"


def _sweep(ops, members, coords, sampler, n_samples, tol, trials=0,
           draw=None):
    """Judge every operator on every member over the first ``n_samples``
    points of :func:`_points`: per (operator, member) the largest |X(F)|
    against the scale, the largest |F| times the norm of the operator's
    flow row.  Over the first ``trials`` points also take the largest
    generic rank, at ``sampler(s)`` as :func:`generic_rank` reads it, and
    Jacobian rank.  Returns (records, generic rank, independence rank)."""
    worst, scales = {}, {}
    alg_rank = ind_rank = 0
    for s, (point, values, first, jac, rows, at) in enumerate(_points(
            ops, members, coords, sampler, max(trials, n_samples), draw)):
        if s < n_samples:
            for op, row in zip(ops, rows):
                cnorm = sum(abs(c) ** 2 for c in row) ** 0.5
                for mem, val, grad in zip(members, values, jac):
                    resid = _apply(row, grad)
                    if not is_finite(resid):
                        raise EvaluationError(f"non-finite residual for "
                                              f"{mem.label} under {op.label}")
                    key = (op.label, mem.label)
                    worst[key] = max(worst.get(key, 0.0), abs(resid))
                    scales[key] = max(scales.get(key, 0.0), abs(val) * cnorm)
        if s < trials:
            if first is not point:
                rows = [op.flow_table(first, at) for op in ops]
            rows = coefficient_rows(rows, point.n_base, point.n_fields, at)
            alg_rank = max(alg_rank, matrix_rank(rows)[0])
            ind_rank = max(ind_rank, matrix_rank(jac)[0])
    records = tuple(InvarianceRecord(*key, resid, scales[key],
                                     _verdict(resid, scales[key], tol))
                    for key, resid in sorted(worst.items()))
    return records, alg_rank, ind_rank


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
                   solve_for=None, target: float = 1e-12,
                   max_iter: int = 50) -> JetPoint:
    """Project a point onto the residual's zero set by adjusting one jet
    coordinate (largest-derivative coordinate when unspecified).

    A secant iteration: the first slope is the residual's exact derivative
    along the coordinate, from one ``Jet1`` pass; each later slope is the
    difference quotient of the last two iterates, so a step costs one plain
    evaluation.  A step that leaves the coordinate where it was raises."""
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
        slope = derivs(residual.fn(gradient_view(point, [cid])), 1)[0]
    prev = None
    for _ in range(max_iter):
        val = residual.eval(point)
        if abs(val) < target:
            return point
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


def _projecting_draw(residual, solve_for, n_samples):
    """A draw like :func:`_draw` that projects samples onto the zero set
    of ``residual`` (:func:`newton_project`), skipping those that fail to
    project; all draws together try at most 20 * n_samples + 101 samples."""
    attempts = iter(range(20 * n_samples + 101))

    def draw(sampler, members, idx):
        for attempt in attempts:
            point = sampler(attempt)
            try:
                point = newton_project(residual, point, solve_for)
            except EvaluationError:
                continue
            return point, [residual.eval(point)], point
        raise EvaluationError("persistent Newton projection failure")

    return draw


def check_on_manifold(ops, residual: ScalarJetFunction, solve_for=None,
                      n_samples: int = 20, tol: float = DEFAULT_TOL,
                      seed: int = 0, sampler=None) -> InvarianceReport:
    """Project samples onto the solution manifold of ``residual`` and
    test all prolonged operators there."""
    _need_samples(n_samples)
    records, _, _ = _sweep(
        ops, [residual], residual.deps,
        sampler or residual.space.sampler(seed), n_samples, tol,
        draw=_projecting_draw(residual, solve_for, n_samples))
    return InvarianceReport(residual.label, records, n_samples, seed, tol)


def independence_rank(family, n_samples: int = 5, seed: int = 0,
                      sampler=None, expected=None) -> RankReport:
    """Generic rank of the family's Jacobian over its dependency set."""
    _need_samples(n_samples)
    members, coords, sampler, label = _parts(family, seed, sampler)
    best_rank, best_pivots = 0, ()
    for _, _, _, jac, _, _ in _points([], members, coords, sampler,
                                      n_samples):
        rank, pivots = matrix_rank(jac)
        if rank > best_rank:
            best_rank, best_pivots = rank, tuple(pivots)
    if expected is None:
        expected = len(members)
    verdict = "PASS" if best_rank == expected else "FAIL"
    return RankReport(label, len(members), len(coords), best_pivots,
                      best_rank, expected, verdict)


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


def _dot(u, v):
    acc = 0.0
    for x, y in zip(u, v):
        acc += (x.conjugate() if isinstance(x, complex) else x) * y
    return acc


def _lstsq(a, b):
    """Rank-tolerant least squares by modified Gram-Schmidt; dependent
    columns get coefficient zero.  Returns (coefficients, residual norm)."""
    nrow = len(a)
    ncol = len(a[0]) if nrow else 0
    cols = [[a[i][j] for i in range(nrow)] for j in range(ncol)]
    col_scale = max((max(abs(v) for v in c) for c in cols if c), default=0.0)
    drop_tol = 1e-10 * (1.0 + col_scale)
    basis_vecs = []
    basis_cols = []
    r_entries = {}
    for j in range(ncol):
        v = list(cols[j])
        for bi, q in enumerate(basis_vecs):
            r = _dot(q, v)
            r_entries[(bi, j)] = r
            for i in range(nrow):
                v[i] -= r * q[i]
        norm = _dot(v, v) ** 0.5
        if abs(norm) > drop_tol:
            basis_vecs.append([vi / norm for vi in v])
            r_entries[(len(basis_vecs) - 1, j)] = norm
            basis_cols.append(j)
    vb = list(b)
    qb = []
    for q in basis_vecs:
        r = _dot(q, vb)
        qb.append(r)
        for i in range(nrow):
            vb[i] -= r * q[i]
    resid = abs(_dot(vb, vb)) ** 0.5
    x = [0.0] * ncol
    for bi in range(len(basis_cols) - 1, -1, -1):
        j = basis_cols[bi]
        acc = qb[bi]
        for bj in range(bi + 1, len(basis_cols)):
            acc -= r_entries.get((bi, basis_cols[bj]), 0.0) * x[basis_cols[bj]]
        x[j] = acc / r_entries[(bi, j)]
    return x, resid


def check_covariance(tensor: TensorBuilder, ops, n_samples: int = 10,
                     tol: float = DEFAULT_TOL, seed: int = 0,
                     sampler=None) -> CovarianceReport:
    """Fit the prolonged action on a tensor against rotation-plus-scaling:
    a skew mixing matrix plus a scalar multiple; PASS when the fit
    residual is negligible against the action's size."""
    _need_samples(n_samples)
    comps = tensor.components()
    size = tensor.size
    met = tensor.space.metric
    gsign = met.signs if met is not None and met.dim == size \
        else (1.0,) * size
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
    for _, t, _, jac, flows, _ in _points(
            ops, comps, tensor.deps, sampler or tensor.space.sampler(seed),
            n_samples):
        rows = []
        for cell, pairs in zip(cells, mixing):
            row = []
            for terms in pairs:
                acc = 0.0
                for sign, c in terms:
                    acc += sign * t[c]
                row.append(acc)
            rows.append(row + [t[cell]])
        for op, flow in zip(ops, flows):
            rhs = [_apply(flow, jac[cell]) for cell in cells]
            fit, resid = _lstsq(rows, rhs)
            if not is_finite(resid):
                raise EvaluationError(
                    f"non-finite fit residual for {tensor.label} under "
                    f"{op.label}")
            worst[op.label] = max(worst[op.label], resid)
            scales[op.label] = max(scales[op.label],
                                   max(abs(v) for v in rhs))
            fits[op.label] = tuple(fit)
    records = tuple(CovarianceRecord(
        op.label, worst[op.label], scales[op.label],
        _verdict(worst[op.label], scales[op.label], tol), fits[op.label])
        for op in ops)
    return CovarianceReport(tensor.label, records, n_samples, seed, tol)
