"""Bitwise references: algorithms the package has replaced, kept so tests
can check that the replacement gives every value bit for bit.

- :class:`DerivVector`, :func:`unit_derivs` and :func:`vector_derivs` are
  the vector-mode pass that ``dual.Jet1`` replaced: a ``Dual`` whose
  derivative slot holds the derivatives along k directions, one list
  component each, or the scalar 0.0 for an unseeded read.
- :func:`nested_value_grad_hess` is the nested-dual Hessian pass that
  ``dual.value_grad_hess`` made before the flat second-order jet: argument
  a is seeded as ``Dual(Dual(x_a, e_a), d_a)``, both dual layers vectors
  over every direction.
- :func:`reference_flow` is ``ProlongedOperator._flow`` as it was before
  the flat second-order jet pass: each operator runs every one of its
  coefficients, on nested-dual partials by default, through ``total_d``
  and ``total_dd`` itself.
- :func:`reference_independence_rank` and :func:`reference_covariance`
  are ``verify.independence_rank`` and ``verify.check_covariance`` as
  they were before every check drew its points through one loop
  (``verify._points``): each with its own loop over sample indices, the
  covariance fit writing its vector and matrix fit rows as two separate
  rules.  The fit reads T and X(T) per operator from a pass of width one
  seeded with that operator's flow row (``invcat.operator_view``), where
  ``check_covariance`` makes one pass seeded with every live operator's
  row; an all-zero row acts as 0.0, as the left-out operators do there.
- :func:`reference_sweep_points` is ``verify._points`` as it was before
  the draw took each member's value from the pass seeded with the flow
  rows: the plain draw (``verify._draw``, or a projecting draw), then the
  flow rows and that pass, and at a rank point the family Jacobian.
- :func:`reference_power_trace`, :func:`reference_mixed_power_trace` and
  :func:`reference_power_form` are ``invcat.power_trace``,
  ``mixed_power_trace`` and ``power_form`` as they were before a view
  kept what they share: S_k the trace of the full k-th power, each R_k
  its own loop of matrix-vector products from t_0 = v.
- :func:`reference_sum_prod`, :func:`reference_dot` and
  :func:`reference_mat_mul` are ``invcat.sum_prod``, ``_dot`` and
  ``mat_mul`` as they were before the fused ``Jet1`` multiply-accumulate:
  every term a product and then a sum, ``mat_mul`` building a column of
  ``b`` for every entry.  The power references above run on them.
- :class:`ReferenceJet2` holds ``dual.Jet2``'s product, quotient,
  reciprocal, power, exp and log rules as they were before the jet's
  shape carried index triples: each rule slices its slot list into the
  two gradients and the Hessian entries and concatenates the parts, and
  ``shape`` is (k, pairs) with pairs[p] = (i, k + j), the places of the
  gradient entries Hessian entry p reads (:func:`reference_jet2_shape`).
- :func:`mgs_lstsq` is the least-squares fit that ``verify._lstsq`` made
  before it solved on the pivots of ``liealg.pivot_positions``: modified
  Gram-Schmidt, dropping a column whose remaining norm is at most
  1e-10 * (1 + largest entry), with coefficient zero for it.

It also keeps small helpers the package no longer exports, which tests
still call: :func:`apply_operator`, the directional derivative as a dot
product of a flow row with a gradient, the one per operator that
``invcat.operator_view`` replaced; :func:`equation_residual` and
:func:`covariant_tensor_components`, an equation's residual and a
tensor's components at one point; and :func:`coord_count`.
"""

import functools

from invforge.dual import Dual, EvaluationError, _Jet, _scalar_exp, \
    _scalar_log, derivs, is_finite, value_of
from invforge.invcat import TENSORS, covariant_tensor, equation_function, \
    g_premul, mat_trace, operator_view
from invforge.jetspace import base_coord, d1_coord, d2_coord, field_coord
from invforge.liealg import EUCLID, flow_positions, matrix_rank
from invforge.verify import CovarianceRecord, CovarianceReport, RankReport, \
    _draw, _lstsq, _parts, family_jacobian

_NUMBERS = (int, float, complex)
_FACTORS = (Dual,) + _NUMBERS


class DerivVector:
    """Derivatives along k seeded directions, one list component each;
    the value of a :class:`Dual`'s derivative slot in vector mode.

    Supports +, - with another vector or a number, unary -, and * and / by
    a number or a :class:`Dual` (a value of the inner layer when the vector
    is an outer derivative slot), componentwise.  Instances are never
    changed in place, so the unit seeds of a view may be shared by every
    dual built from them.
    """

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = comps

    def __repr__(self):
        return f"DerivVector({self.comps!r})"

    def __add__(self, other):
        if isinstance(other, DerivVector):
            return DerivVector([a + b for a, b in zip(self.comps,
                                                      other.comps)])
        if isinstance(other, _NUMBERS):
            return DerivVector([a + other for a in self.comps])
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, _NUMBERS):
            return DerivVector([other + a for a in self.comps])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, DerivVector):
            return DerivVector([a - b for a, b in zip(self.comps,
                                                      other.comps)])
        if isinstance(other, _NUMBERS):
            return DerivVector([a - other for a in self.comps])
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBERS):
            return DerivVector([other - a for a in self.comps])
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _FACTORS):
            return DerivVector([a * other for a in self.comps])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _FACTORS):
            return DerivVector([other * a for a in self.comps])
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _FACTORS):
            return DerivVector([a / other for a in self.comps])
        return NotImplemented

    def __neg__(self):
        return DerivVector([-a for a in self.comps])


def unit_derivs(k):
    """The k unit seeds of a k-direction vector-mode pass."""
    return [DerivVector([1.0 if i == j else 0.0 for i in range(k)])
            for j in range(k)]


def vector_derivs(x, k):
    """The k directional derivatives of a vector-mode result ``x``.

    A scalar derivative slot never met a seeded read, so it is the value
    along every direction; a non-dual has derivative 0.0 along each.
    """
    d = x.deriv if isinstance(x, Dual) else 0.0
    return d.comps if isinstance(d, DerivVector) else [d] * k


@functools.cache
def hess_seeds(k):
    """Derivative seeds of a k-argument nested pass, one pair per argument
    a: the inner unit vector along a and the outer vector whose component j
    is the inner dual ``Dual(1.0, 0.0)`` if j == a, else ``Dual(0.0, 0.0)``.

    Built on the first call with k arguments and shared by every later
    one; that is safe because no ``Dual`` or ``DerivVector`` is ever
    changed in place.
    """
    one, zero = Dual(1.0, 0.0), Dual(0.0, 0.0)
    return tuple((e, DerivVector([one if a == j else zero for j in range(k)]))
                 for a, e in enumerate(unit_derivs(k)))


def nested_value_grad_hess(fn, args):
    """Value, gradient, and full Hessian of ``fn(args)`` via nested duals.

    Two passes: the plain value pass and one nested pass in which both dual
    layers are vectors over every direction.  Outer component j is the
    derivative along j, still in the inner ring: its value part is
    ``grad[j]`` and its inner component i the (i, j) Hessian entry.  Entry
    (i, j) for i <= j is taken from component j, and ``hess[j][i]`` is a
    copy of it.
    """
    n = len(args)
    val = value_of(fn(list(args)))
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    out = fn([Dual(Dual(a, e), d) for a, (e, d) in zip(args, hess_seeds(n))])
    if not isinstance(out, Dual):
        return val, grad, hess
    for j, dj in enumerate(vector_derivs(out, n)):
        col = vector_derivs(dj, n)
        for i in range(j + 1):
            hess[i][j] = hess[j][i] = col[i]
        grad[j] = value_of(dj)
    return val, grad, hess


def reference_flow(op, point, value_grad_hess=nested_value_grad_hess):
    """Flow table of ``op`` at ``point``, every coefficient expanded by the
    total-derivative loops."""
    src = op.source
    n, m = src.n_base, src.n_fields
    xs = list(point.x)
    us = list(point.u)

    def partials(fn):
        def wrapped(args):
            return fn(args[:n], args[n:])
        return value_grad_hess(wrapped, xs + us)

    xi_val, xi_grad, xi_hess = [], [], []
    for k in range(n):
        v, g, h = partials(src.xi[k])
        xi_val.append(v)
        xi_grad.append(g)
        xi_hess.append(h)
    eta_val, eta_grad, eta_hess = [], [], []
    for r in range(m):
        v, g, h = partials(src.eta[r])
        eta_val.append(v)
        eta_grad.append(g)
        eta_hess.append(h)

    du, ddu = point.du, point.ddu

    def total_d(grad, i):
        # D_i g = g_x_i + sum_s u^s_i g_u^s  for g = g(x, u)
        out = grad[i]
        for s in range(m):
            out = out + du[s][i] * grad[n + s]
        return out

    def total_dd(grad, hess, i, j):
        # D_j D_i g for g = g(x, u)
        out = hess[i][j]
        for s in range(m):
            out = out + du[s][j] * hess[i][n + s]
            out = out + du[s][i] * hess[j][n + s]
            out = out + ddu[s][i][j] * grad[n + s]
            for t in range(m):
                out = out + du[s][i] * du[t][j] * hess[n + s][n + t]
        return out

    d_xi = [[total_d(xi_grad[k], i) for i in range(n)] for k in range(n)]
    flow = {}
    for i in range(n):
        flow[base_coord(i)] = xi_val[i]
    for r in range(m):
        flow[field_coord(r + 1)] = eta_val[r]
        for i in range(n):
            val = total_d(eta_grad[r], i)
            for k in range(n):
                val = val - du[r][k] * d_xi[k][i]
            flow[d1_coord(r + 1, i)] = val

    dd_xi = [[[total_dd(xi_grad[k], xi_hess[k], i, j) for j in range(n)]
              for i in range(n)] for k in range(n)]
    dd_eta = [[[total_dd(eta_grad[r], eta_hess[r], i, j) for j in range(n)]
               for i in range(n)] for r in range(m)]

    def eta2(r, i, j):
        # eta_ij = D_j D_i eta - u_kj D_i xi^k - u_k D_j D_i xi^k
        #          - u_ik D_j xi^k
        val = dd_eta[r][i][j]
        for k in range(n):
            val = val - ddu[r][k][j] * d_xi[k][i]
            val = val - du[r][k] * dd_xi[k][i][j]
            val = val - ddu[r][i][k] * d_xi[k][j]
        return val

    for r in range(m):
        for i in range(n):
            flow[d2_coord(r + 1, i, i)] = eta2(r, i, i)
            for j in range(i + 1, n):
                flow[d2_coord(r + 1, i, j)] = \
                    (eta2(r, i, j) + eta2(r, j, i)) / 2.0
    return flow


def reference_jet2_shape(k, pairs):
    """:class:`ReferenceJet2` shape over k arguments carrying the Hessian
    entries ``pairs``, each a pair (i, j) of argument indices."""
    return k, tuple((i, k + j) for i, j in pairs)


class ReferenceJet2(_Jet):
    __slots__ = ("value", "d", "shape")

    def __init__(self, value, d, shape):
        self.value = value
        self.d = d
        self.shape = shape

    def _new(self, value, d):
        return ReferenceJet2(value, d, self.shape)

    def _mul(self, other):
        (k, pairs), vx, dx = self.shape, self.value, self.d
        vy, dy = other.value, other.d
        return self._new(vx * vy, [
            vx * b + a * vy for a, b in zip(dx[:2 * k], dy)] + [
            (vx * b + dx[i] * dy[j]) + (dx[j] * dy[i] + a * vy)
            for (i, j), a, b in zip(pairs, dx[2 * k:], dy[2 * k:])])

    def _div(self, other):
        (k, pairs), vx, dx, dy = self.shape, self.value, self.d, other.d
        w = 1.0 / other.value
        iv, s = 1.0 * w, -1.0 * w * w
        ig = [s * a for a in dy[:k]]
        p = vx * iv
        t = [vx * b + a * iv for a, b in zip(dx, ig)]
        t += [a - p * b for a, b in zip(dx[k:2 * k], dy[k:])]
        return self._new(p, t[:k] + [a * iv for a in t[k:]] + [
            t[j] * ig[i] + (a - (p * b + t[i] * dy[j])) * iv
            for (i, j), a, b in zip(pairs, dx[2 * k:], dy[2 * k:])])

    def __rtruediv__(self, other):
        (k, pairs), d = self.shape, self.d
        w = 1.0 / self.value
        iv, s = 1.0 * w, -1.0 * w * w
        ig = [s * a for a in d[:k]]
        neg = -other
        c = iv * neg
        cc = c * iv
        cg = [c * a + (a * neg) * iv for a in ig]
        return self._new(iv * other, [a * other for a in ig] + [
            cc * a for a in d[k:2 * k]] + [
            cc * a + cg[i] * d[j] for (i, j), a in zip(pairs, d[2 * k:])])

    def _power(self, expo):
        (k, pairs), v, d = self.shape, self.value, self.d
        if isinstance(expo, int) and expo == 0:
            return self._new(v ** 0, [0.0 * a for a in d[:k]]
                             + [a * 0.0 for a in d[k:]])
        e1 = expo - 1
        c = expo * v ** e1
        if isinstance(e1, int) and e1 == 0:
            ek, ekg = v ** 0 * expo, [(0.0 * a) * expo for a in d[:k]]
        else:
            c1 = e1 * v ** (e1 - 1)
            ek, ekg = v ** e1 * expo, [(c1 * a) * expo for a in d[:k]]
        return self._new(v ** expo, [c * a for a in d[:k]] + [
            ek * a for a in d[k:2 * k]] + [
            ek * a + ekg[i] * d[j] for (i, j), a in zip(pairs, d[2 * k:])])

    def _exp(self):
        (k, pairs), d = self.shape, self.d
        e = _scalar_exp(self.value)
        g = [e * a for a in d[:2 * k]]
        return self._new(e, g + [e * a + g[i] * d[j]
                                 for (i, j), a in zip(pairs, d[2 * k:])])

    def _log(self):
        (k, pairs), v, d = self.shape, self.value, self.d
        lg = _scalar_log(v)
        w = 1.0 / v
        t = [a / v for a in d[:k]] + [a * w for a in d[k:2 * k]]
        return self._new(lg, t + [(a - t[j] * d[i]) * w
                                  for (i, j), a in zip(pairs, d[2 * k:])])


def reference_independence_rank(family, n_samples=5, seed=0, sampler=None,
                                expected=None):
    members, coords, sampler, label = _parts(family, seed, sampler)
    best_rank = 0
    best_pivots = ()
    for s in range(n_samples):
        point, _, _ = _draw(sampler, members, s)
        jac = family_jacobian(members, point, coords)
        rank, pivots = matrix_rank(jac)
        if rank > best_rank:
            best_rank, best_pivots = rank, tuple(pivots)
    if expected is None:
        expected = len(members)
    verdict = "PASS" if best_rank == expected else "FAIL"
    return RankReport(label, len(members), len(coords), best_pivots,
                      best_rank, expected, verdict)


def reference_sweep_points(ops, members, coords, sampler, count, trials=0,
                           draw=None):
    """Per point 0 .. count - 1 of the plain draw (``draw``, default
    ``verify._draw``, at the plain test): (point, the members' plain
    values, first point tried, the operators' flow rows, per member its
    residuals X_j(F) from one pass seeded with the rows, and at the first
    ``trials`` points the family Jacobian, else None)."""
    at = None
    for s in range(count):
        point, values, first = (draw or _draw)(sampler, members, s)
        at = at or flow_positions(point.n_base, point.n_fields, coords)
        rows = [op.flow_table(point, at) for op in ops]
        view = operator_view(point, coords, rows)
        yield point, values, first, rows, \
            [derivs(m.fn(view), len(ops)) for m in members], \
            family_jacobian(members, point, coords) if s < trials else None


def reference_covariance(tensor, ops, n_samples=10, tol=1e-8, seed=0,
                         sampler=None):
    comps = tensor.components()
    sampler = sampler or tensor.space.sampler(seed)
    size = tensor.size
    skew_pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    coords = tensor.deps
    met = tensor.space.metric
    gsign = met.signs if met is not None and met.dim == size \
        else (1.0,) * size
    worst = {op.label: 0.0 for op in ops}
    scales = {op.label: 0.0 for op in ops}
    fits = {op.label: () for op in ops}
    at = None
    for s in range(n_samples):
        point, _, _ = _draw(sampler, comps, s)
        at = at or flow_positions(point.n_base, point.n_fields, coords)
        for op in ops:
            row = op.flow_table(point, at)
            view = operator_view(point, coords, [row])
            jets = [c.fn(view) for c in comps]
            t_val = [value_of(j) for j in jets]
            if tensor.kind == "matrix":
                t_val = [t_val[a * size:(a + 1) * size] for a in range(size)]

            def action(ci):
                # an all-zero row acts as 0.0, the sign its dot product
                # with the gradient gives; the pass may give -0.0
                return derivs(jets[ci], 1)[0] if any(row) else 0.0

            rows = []
            rhs = []
            if tensor.kind == "vector":
                xt = [action(a) for a in range(size)]
                for a in range(size):
                    row = []
                    for (p, q) in skew_pairs:
                        if a == p:
                            row.append(gsign[q] * t_val[q])
                        elif a == q:
                            row.append(-gsign[p] * t_val[p])
                        else:
                            row.append(0.0)
                    row.append(t_val[a])
                    rows.append(row)
                    rhs.append(xt[a])
            else:
                xt = {}
                for a in range(size):
                    for b in range(a, size):
                        xt[(a, b)] = action(a * size + b)
                for a in range(size):
                    for b in range(a, size):
                        row = []
                        for (p, q) in skew_pairs:
                            acc = 0.0
                            if a == p:
                                acc += gsign[q] * t_val[q][b]
                            if a == q:
                                acc -= gsign[p] * t_val[p][b]
                            if b == p:
                                acc += gsign[q] * t_val[q][a]
                            if b == q:
                                acc -= gsign[p] * t_val[p][a]
                            row.append(acc)
                        row.append(t_val[a][b])
                        rows.append(row)
                        rhs.append(xt[(a, b)])
            fit, resid = _lstsq(rows, [rhs])[0]
            if not is_finite(resid):
                raise EvaluationError(
                    f"non-finite fit residual for {tensor.label} under "
                    f"{op.label}")
            mag = max(abs(v) for v in rhs) if rhs else 0.0
            worst[op.label] = max(worst[op.label], resid)
            scales[op.label] = max(scales[op.label], mag)
            fits[op.label] = tuple(fit)
    records = []
    for op in ops:
        r = worst[op.label]
        scale = scales[op.label]
        verdict = "PASS" if r <= tol * (1.0 + scale) else "FAIL"
        records.append(CovarianceRecord(op.label, r, scale, verdict,
                                        fits[op.label]))
    return CovarianceReport(tensor.label, tuple(records), n_samples, seed,
                            tol)


def _dot(u, v):
    acc = 0.0
    for x, y in zip(u, v):
        acc += (x.conjugate() if isinstance(x, complex) else x) * y
    return acc


def mgs_lstsq(a, b):
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


def reference_sum_prod(xs, ys):
    total = 0.0
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


def reference_dot(a, b, signs=None):
    if signs is None:
        return reference_sum_prod(a, b)
    total = 0.0
    for s, x, y in zip(signs, a, b):
        total = total + s * x * y
    return total


def reference_mat_mul(a, b):
    n, p = len(a), len(b[0])
    q = len(b)
    return [[reference_sum_prod(a[i], [b[k][j] for k in range(q)])
             for j in range(p)] for i in range(n)]


def _metric_power(mat, signs, k):
    """(G M)^k as the product of k - 1 matrix products from the left."""
    first = power = g_premul(signs, mat)
    for _ in range(k - 1):
        power = reference_mat_mul(power, first)
    return power


def reference_power_trace(mat, signs, k):
    """tr((G M)^k) as the trace of the full k-th power."""
    return mat_trace(_metric_power(mat, signs, k))


def reference_mixed_power_trace(u, v, signs, j, k):
    """tr((G U)^j (G V)^(k-j)), a power trace at j = 0 or j = k."""
    if j == 0:
        return reference_power_trace(v, signs, k)
    if j == k:
        return reference_power_trace(u, signs, k)
    return mat_trace(reference_mat_mul(_metric_power(u, signs, j),
                                       _metric_power(v, signs, k - j)))


def reference_power_form(vec, mat, signs, k):
    """v^T G (M G)^(k-1) v, each matrix-vector product of its own loop."""
    n = len(vec)
    t = list(vec)
    for _ in range(k - 1):
        t = [reference_sum_prod(mat[i], [signs[j] * t[j] for j in range(n)])
             for i in range(n)]
    total = 0.0
    for i in range(n):
        total = total + vec[i] * signs[i] * t[i]
    return total


def apply_operator(op, fn, point):
    """Directional derivative of ``fn`` along the prolonged field at a point.

    ``fn`` is any object with ``grad(point, coords)`` (a ScalarJetFunction);
    stored-slot gradients of off-diagonal second derivatives pair with half
    the published coefficient.
    """
    coords = getattr(fn, "deps", None) or point.coords()
    flow = op.flow_table(point, flow_positions(point.n_base, point.n_fields,
                                               coords))
    grad = fn.grad(point, coords)
    total = 0.0
    for cid, c, g in zip(coords, flow, grad):
        term = c * g
        if not is_finite(term):
            raise EvaluationError(f"non-finite contribution at coordinate {cid}")
        total = total + term
    return total


def equation_residual(name, point, **params):
    """Residual value of the named equation at a jet point."""
    n = params.pop("n", point.n_base - 1)
    return equation_function(name, n, **params).eval(point)


def covariant_tensor_components(name, point, **params):
    """Numeric components of the named covariant tensor at a jet point."""
    n = params.pop("n", None)
    if n is None:
        # a Minkowski or Galilei tensor reads the point's x0 as the time
        n = point.n_base if TENSORS[name][1] is EUCLID \
            else point.n_base - 1
    return covariant_tensor(name, n, **params).build(point)


def coord_count(n_base, n_fields):
    """Number of jet coordinates up to order 2 on (n_base, n_fields)."""
    return n_base + n_fields + n_fields * n_base \
        + n_fields * n_base * (n_base + 1) // 2
