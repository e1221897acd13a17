"""Closed-form invariant evaluators: trace/power scalars, covariant
tensors, functional bases for every cataloged algebra, and the example
equation residuals.

All evaluators run on plain floats, complex numbers, or dual numbers, so
the same closure serves evaluation and exact differentiation.  Matrix
contractions follow the diagonal-metric summation convention: a repeated
index pair contributes the metric sign of that index.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .dual import (
    Dual,
    EvaluationError,
    Jet1,
    Jet2,
    derivs,
    jet2_shape,
    magnitude,
    value_of,
)
from .jetspace import (
    REAL,
    FieldKind,
    JetPoint,
    Metric,
    Record,
    _symmetric,
    base_coord,
    d1_coord,
    d2_coord,
    enumerate_coords,
    field_coord,
)
from .liealg import _FAMILIES, EUCLID, GALILEI, GALILEI_PAIR, MINKOWSKI, \
    AlgebraSpec, algebra_space, make_sampler, make_spec

# --------------------------------------------------------------------------
# generic dense linear algebra over any scalar that supports + - * /.  The
# dot products (sum_prod, and _dot with a metric's signs) fuse a term whose
# two factors are both Jet1: one jet holds the running sum, its value and
# every slot updated in one step, where the generic path builds a product
# jet and then a sum jet; each slot makes the generic path's operations in
# the same order, so it keeps its bits.  Every other term is total + x * y.


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum_prod(row, col) for col in cols] for row in a]


def sum_prod(xs, ys):
    """Sum of x * y from 0.0 in index order; the operands must have one
    length."""
    total = 0.0
    for x, y in zip(xs, ys, strict=True):
        if type(x) is not Jet1 or type(y) is not Jet1:
            total = total + x * y
        elif type(total) is Jet1:
            vx, vy = x.value, y.value
            total = Jet1(total.value + vx * vy, [
                t + (vx * b + a * vy) for t, a, b in zip(total.d, x.d, y.d)])
        else:  # the first jet term, as Jet1.__radd__ adds it
            vx, vy = x.value, y.value
            total = Jet1(vx * vy + total,
                         [vx * b + a * vy for a, b in zip(x.d, y.d)])
    return total


def mat_trace(a):
    total = 0.0
    for i in range(len(a)):
        total = total + a[i][i]
    return total


def trace_prod(a, b):
    """``mat_trace(mat_mul(a, b))`` from the diagonal entries alone."""
    total = 0.0
    for i, row in enumerate(a):
        total = total + sum_prod(row, [r[i] for r in b])
    return total


def g_premul(signs, a):
    """(G A)[i][j] = g_i A[i][j] for a diagonal metric."""
    return [[signs[i] * a[i][j] for j in range(len(a[i]))]
            for i in range(len(a))]


def _eliminate(m, n, tiny):
    """Forward elimination with partial pivoting over the first n columns
    of the rows ``m``, in place; a row may carry further columns (a
    right-hand side), which are eliminated along.  Returns, per column,
    whether it swapped two rows, or None when a column's best pivot
    magnitude is at most ``tiny``.  Scalars may be duals."""
    swapped = []
    for col in range(n):
        piv, best = col, magnitude(m[col][col])
        for r in range(col + 1, n):
            mag = magnitude(m[r][col])
            if mag > best:
                piv, best = r, mag
        if best <= tiny:
            return None
        swapped.append(piv != col)
        m[col], m[piv] = m[piv], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            for c in range(col, len(m[r])):
                m[r][c] = m[r][c] - f * m[col][c]
    return swapped


def solve_columns(a, cols, context="linear system", rtol=1e-12):
    """Solutions of a x = b, one per right-hand side b in ``cols``, from
    one :func:`_eliminate` pass that carries them all along; scalars may be
    duals.  Raises when a column's best pivot is at most ``rtol`` times the
    largest entry of ``a``."""
    n = len(a)
    m = [list(row) + [b[i] for b in cols] for i, row in enumerate(a)]
    scale = max(max(magnitude(v) for v in row[:n]) for row in m)
    if scale == 0.0 or _eliminate(m, n, rtol * scale) is None:
        raise EvaluationError(f"degenerate {context}")
    sols = []
    for k in range(n, n + len(cols)):
        x = [0.0] * n
        for i in range(n - 1, -1, -1):
            acc = m[i][k]
            for j in range(i + 1, n):
                acc = acc - m[i][j] * x[j]
            x[i] = acc / m[i][i]
        sols.append(x)
    return sols


def solve_linear(a, b, context="linear system"):
    """Gaussian elimination with partial pivoting; scalars may be duals."""
    return solve_columns(a, [b], context)[0]


def mat_inverse(a, context="matrix"):
    """Columns a^-1 e_j of one :func:`solve_columns` pass."""
    n = len(a)
    cols = solve_columns(a, [[1.0 if i == j else 0.0 for i in range(n)]
                             for j in range(n)], context)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def determinant(a):
    """Product of the pivots of :func:`_eliminate` in column order, negated
    at each row swap; 0.0 when a column has no nonzero pivot."""
    n = len(a)
    m = [list(row) for row in a]
    swapped = _eliminate(m, n, 0.0)
    if swapped is None:
        return 0.0
    det = 1.0
    for col in range(n):
        # negating where the swap happens, not once at the end: a dual's
        # derivative may cancel to a zero whose sign depends on it
        if swapped[col]:
            det = -det
        det = det * m[col][col]
    return det


# --------------------------------------------------------------------------
# trace/power invariants of vectors and symmetric matrices


def power_trace(mat, metric: Metric, k: int):
    """Trace of the k-th metric power: tr((G M)^k)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _S(_View(None, None, None, None), _given(0, mat), metric.signs, k)


def power_form(vec, mat, metric: Metric, k: int):
    """Bilinear power form v^T G (M G)^(k-1) v."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _R(_View(None, None, None, None), _given(0, vec), _given(1, mat),
              metric.signs, k)


def mixed_power_trace(u, v, metric: Metric, j: int, k: int):
    """Mixed trace tr((G U)^j (G V)^(k-j))."""
    if not 0 <= j <= k:
        raise ValueError("need 0 <= j <= k")
    if k < 1:
        raise ValueError("k must be at least 1")
    return _Sjk(_View(None, None, None, None), _given(0, u), _given(1, v),
                metric.signs, j, k)


# --------------------------------------------------------------------------
# jet views: plain evaluation, and one builder (_jet_view) seeding each
# coordinate's jet slots three ways: unit vectors (gradient_view), the
# operators' flow rows (operator_view) and diagonal second-order pairs
# (curvature_view).  seeded_view, single-coordinate Dual seeding, is on no
# verdict path.


class _View:
    """Eager jet view: four tables laid out like a :class:`JetPoint`'s
    ``x``, ``u``, ``du`` and ``ddu`` (full symmetric matrices), read by
    index.  The plain view wraps the point's own tuples.  The gradient and
    operator views hold :class:`Jet1` jets, seeded with unit vectors or
    with the flow rows, and the curvature view :class:`Jet2` jets; each is
    built once by :func:`_jet_view`.  The members at a point share one
    view and its ``cache``: past an invariance sweep's rank points, the
    operator view is their one pass at a point it accepts, and a plain
    view only decides a point that pass failed at (:func:`verify._points`).
    The cache holds matrices, their metric powers, power traces and form
    iterates, and the value of every text, call and group that exprlang's
    parser interns (:func:`exprlang.compiler`).  A view's reads never
    change, and each cached value is made by the operations a member
    evaluated alone would run, so sharing one gives every member the same
    bits.  The :class:`Dual` numbers of :func:`seeded_view` are read only
    by tests and the benchmark tracer."""

    __slots__ = ("_x", "_u", "_du", "_ddu", "cache")

    def __init__(self, x, u, du, ddu):
        self._x, self._u, self._du, self._ddu = x, u, du, ddu
        self.cache = {}

    def x(self, i):
        return self._x[i]

    def u(self, r):
        return self._u[r - 1]

    def du(self, r, i):
        return self._du[r - 1][i]

    def ddu(self, r, i, j):
        return self._ddu[r - 1][i][j]


def _plain_view(point):
    return _View(point.x, point.u, point.du, point.ddu)


def seeded_view(point, coord):
    """View whose reads are :class:`Dual` numbers of their slots, with
    derivative 1.0 on ``coord`` alone."""
    def seeded(v, c):
        return Dual(v, 1.0 if c == coord else 0.0)

    return _View(
        [seeded(v, base_coord(i)) for i, v in enumerate(point.x)],
        [seeded(v, field_coord(r)) for r, v in enumerate(point.u, 1)],
        [[seeded(v, d1_coord(r, i)) for i, v in enumerate(row)]
         for r, row in enumerate(point.du, 1)],
        [_symmetric(point.n_base,
                    lambda i, j: seeded(h[i][j], d2_coord(r, i, j)))
         for r, h in enumerate(point.ddu, 1)])


def _jet_view(point, coords, seeds, width, jet):
    """View whose reads are ``jet(value, d)`` jets: a read of ``coords[pos]``
    carries ``seeds[pos]`` as its ``width`` derivative slots, any other read
    one list of ``width`` zeros shared by all of them.  No jet changes a
    slot list in place, so the seeds are shared, not copied.  On
    :class:`Jet1` jets, slot j of a function's result is then
    sum_p seeds[p][j] * dF/dcoords[p]."""
    n, m = point.n_base, point.n_fields
    # derivative lists shaped like the point's tables
    zero = [0.0] * width
    sx, su = [zero] * n, [zero] * m
    sdu = [[zero] * n for _ in range(m)]
    sddu = [[[zero] * n for _ in range(n)] for _ in range(m)]
    for c, seed in zip(coords, seeds):
        row, at = ((sx, c.i) if c.kind == "base" else
                   (su, c.r - 1) if c.kind == "field" else
                   (sdu[c.r - 1], c.i) if c.kind == "d1" else
                   (sddu[c.r - 1][c.i], c.j))
        # a coordinate listed twice carries the sum of its seeds
        row[at] = seed if row[at] is zero else \
            [a + b for a, b in zip(row[at], seed)]
    return _View(
        [jet(v, d) for v, d in zip(point.x, sx)],
        [jet(v, d) for v, d in zip(point.u, su)],
        [[jet(v, d) for v, d in zip(*pair)] for pair in zip(point.du, sdu)],
        [_symmetric(n, lambda i, j: jet(h[i][j], d[i][j]))
         for h, d in zip(point.ddu, sddu)])


def gradient_view(point, coords):
    """View whose reads are :class:`Jet1` jets seeded along every
    coordinate in ``coords``: a read of ``coords[k]`` carries the k-th unit
    vector, any other read one list of k zeros shared by all of them.  Read
    the gradient off a function's result with :func:`dual.derivs`."""
    k = len(coords)
    return _jet_view(point, coords,
                     [[float(p == pos) for p in range(k)] for pos in range(k)],
                     k, Jet1)


def operator_view(point, coords, rows):
    """View whose reads are :class:`Jet1` jets seeded along the operators'
    flow rows over ``coords``: a read of ``coords[p]`` carries (rows[0][p],
    ..., rows[k-1][p]), so slot j of a function's result is X_j(F), the
    j-th operator applied to it, read with :func:`dual.derivs`.  One pass
    of width k gives every operator's X(F), where the gradient takes one
    of width len(coords) and then a dot product per operator."""
    return _jet_view(point, coords, [list(col) for col in zip(*rows)],
                     len(rows), Jet1)


def curvature_view(point, coords):
    """View whose reads are :class:`Jet2` jets seeded along every
    coordinate in ``coords`` whose only Hessian pairs are the diagonal
    ones (c, c).  A pair entry reads only its own coordinate's slots, so
    one pass over k coordinates gives each one's exact dF/dc and d2F/dc2:
    ``d[k + p]`` and ``d[2 * k + p]`` of the result for ``coords[p]``."""
    k = len(coords)
    shape = jet2_shape(k, [(i, i) for i in range(k)])
    return _jet_view(point, coords,
                     [[float(p in (pos, k + pos)) for p in range(3 * k)]
                      for pos in range(k)],
                     3 * k, lambda v, d: Jet2(v, d, shape))


# --------------------------------------------------------------------------
# scalar jet functions


class JetSpace(Record):
    """Sampling/evaluation domain for a family of jet functions."""

    n_base: int
    n_fields: int
    field_kind: FieldKind = REAL
    metric: Metric = None
    positive_fields: bool = False

    def sampler(self, seed: int = 0):
        return make_sampler(self.n_base, self.n_fields, self.field_kind,
                            seed=seed, positive_fields=self.positive_fields)

    def coords(self):
        return enumerate_coords(self.n_base, self.n_fields)


class ScalarJetFunction:
    """Differentiable map JetPoint -> scalar with a declared dependency set."""

    __slots__ = ("label", "fn", "deps", "space")

    def __init__(self, label, fn, deps, space):
        self.label = label
        self.fn = fn
        self.deps = tuple(deps)
        self.space = space

    def __repr__(self):
        return f"ScalarJetFunction({self.label})"

    def eval(self, point: JetPoint, view=None):
        """Plain value at ``point``, on ``view`` when given: a plain view
        of ``point`` that other members share."""
        return value_of(self.fn(_plain_view(point) if view is None
                                else view))

    def grad(self, point: JetPoint, coords=None):
        """Gradient over ``coords`` (default: every jet coordinate;
        entries outside the dependency set are zero), from one vector-mode
        pass seeded along the coordinates in the dependency set."""
        deps = set(self.deps)
        if coords is None:
            coords = enumerate_coords(point.n_base, point.n_fields)
        seeded = [c for c in coords if c in deps]
        if not seeded:
            return [0.0] * len(coords)
        part = iter(derivs(self.fn(gradient_view(point, seeded)), len(seeded)))
        return [next(part) if c in deps else 0.0 for c in coords]


@functools.cache
def _dep_coords(n_base, n_fields, kinds, rs=None):
    picked = []
    for c in enumerate_coords(n_base, n_fields):
        if c.kind not in kinds:
            continue
        if rs is not None and c.kind != "base" and c.r not in rs:
            continue
        picked.append(c)
    return tuple(picked)


# cached per-view builders ---------------------------------------------------
# A matrix or vector source is a (key, build) pair: ``build(view)`` makes
# the matrix or vector.  A matrix is cached on the view under its key, its
# metric powers P_j = (G M)^j under ("tp", signs) + key, and a vector's
# iterates (M G)^j v under ("R", vector key, matrix key, signs).  The key
# names everything the value depends on but the view, and each value
# derived under a metric names its signs, so members bound under different
# metrics or compilers can share a view and read only their own values.
# Every cached value is made by the float operations that a member making
# it alone would run, so a shared one has the same bits.


def _hess(view, r, idx):
    return [[view.ddu(r, i, j) for j in idx] for i in idx]


def _gvec(view, r, idx):
    return [view.du(r, i) for i in idx]


def _dot(a, b, signs=None):
    """a.G.b summed from 0.0 in index order, one product per term; with
    a metric's ``signs`` (numbers), each term is signs[i] * a[i] * b[i],
    fused as :func:`sum_prod` fuses its jet terms."""
    if signs is None:
        return sum_prod(a, b)
    total = 0.0
    for s, x, y in zip(signs, a, b, strict=True):
        if type(x) is not Jet1 or type(y) is not Jet1:
            total = total + s * x * y
        elif type(total) is Jet1:
            # s * x is Jet1(x.value * s, [p * s for p in x.d])
            vx, vy = x.value * s, y.value
            total = Jet1(total.value + vx * vy, [
                t + (vx * q + (p * s) * vy)
                for t, p, q in zip(total.d, x.d, y.d)])
        else:
            vx, vy = x.value * s, y.value
            total = Jet1(vx * vy + total,
                         [vx * q + (p * s) * vy for p, q in zip(x.d, y.d)])
    return total


@functools.cache
def _hessian(r, idx):
    """Matrix source of the Hessian U_r over the index list ``idx``."""
    return ("ddu", r, idx), lambda view: _hess(view, r, idx)


def _given(pos, value):
    """Source of a matrix or vector passed in, the ``pos``-th of its
    call."""
    return ("given", pos), lambda view: value


def _tensor_cached(view, key, build):
    t = view.cache.get(key)
    if t is None:
        t = view.cache[key] = build(view)
    return t


def _tensor_power(view, key, build, signs, k):
    """k-th power of (G * matrix), cached per view."""
    plist = _tensor_cached(view, ("tp", signs) + key, lambda v: [
        g_premul(signs, _tensor_cached(v, key, build))])
    while len(plist) < k:
        plist.append(mat_mul(plist[-1], plist[0]))
    return plist[k - 1]


def _S(view, mat, signs, k):
    """Power trace S_k = tr(P_k) of the matrix source ``mat``.  For k >= 2
    it is ``trace_prod(P_{k-1}, P_1)``, which is ``mat_trace(mat_mul(P_{k-1},
    P_1))`` operation for operation, so P_k itself is built only when a
    mixed trace reads it.  The view keeps the powers, which several traces
    share, and not the trace: the compiled node that reads it keeps its
    value per view (``exprlang._memoized``)."""
    if k == 1:
        return mat_trace(_tensor_power(view, *mat, signs, 1))
    return trace_prod(_tensor_power(view, *mat, signs, k - 1),
                      _tensor_power(view, *mat, signs, 1))


def _Sjk(view, first, second, signs, j, k):
    """Mixed trace tr((G A)^j (G B)^(k-j)) of two sources, from the powers
    the view keeps; as :func:`_S`, the trace is kept by its node."""
    if j == 0:
        return _S(view, second, signs, k)
    if j == k:
        return _S(view, first, signs, k)
    return trace_prod(_tensor_power(view, *first, signs, j),
                      _tensor_power(view, *second, signs, k - j))


def _R(view, vec, mat, signs, k):
    """Power form R_k = v.G.t_{k-1}, t_j = (M G)^j v, of the vector source
    ``vec`` and the matrix source ``mat``.  The iterates t_j are kept on
    the view per (vector, matrix, signs), so R_1..R_n cost n - 1
    matrix-vector products; each iterate is the one that R_k's own loop
    from t_0 = v would make, with the same operations."""
    ts = _tensor_cached(view, ("R", vec[0], mat[0], signs),
                        lambda v: [vec[1](v)])
    if len(ts) < k:
        m = _tensor_cached(view, *mat)
        while len(ts) < k:
            gt = [s * t for s, t in zip(signs, ts[-1], strict=True)]
            ts.append([sum_prod(row, gt) for row in m])
    return _dot(ts[0], ts[k - 1], signs)


def _power(base, e):
    """``base`` to the int power ``e``: from 1.0, the product of e factors
    of base, or for e < 0 of -e factors of 1.0 / base."""
    factor = base if e >= 0 else 1.0 / base
    out = 1.0
    for _ in range(abs(e)):
        out = out * factor
    return out


# --------------------------------------------------------------------------
# covariant tensors


class TensorBuilder(Record, not_compared=("source",)):
    """Named covariant tensor: builds a vector or symmetric matrix from a
    jet point (metric-aware); components are scalar jet functions.  Its
    ``source`` is a (key, build) pair, as a selector's: a view keeps the
    tensor under the key, which names all it depends on but the view."""

    label: str
    kind: str  # "vector" | "matrix"
    size: int
    space: JetSpace
    deps: tuple
    source: tuple

    def build(self, point: JetPoint):
        out = self.source[1](_plain_view(point))
        if self.kind == "vector":
            return [value_of(v) for v in out]
        return [[value_of(v) for v in row] for row in out]

    def components(self):
        """Entry [a] of a vector, or [a][b] of a matrix, in row order."""
        key, build = self.source
        return [ScalarJetFunction(
            self.label + "".join(f"[{i}]" for i in index),
            lambda view, index=index: functools.reduce(
                operator.getitem, index, _tensor_cached(view, key, build)),
            self.deps, self.space) for index in itertools.product(
                range(self.size), repeat=1 if self.kind == "vector" else 2)]


def _theta(r, idx, signs, lam):
    """theta_r = lam U + (1 - lam) du du^T / u - G du.G.du / (2u)."""
    def build(view):
        u = view.u(r)
        du = _gvec(view, r, idx)
        sq = _dot(du, du, signs)
        out = []
        for i in idx:
            row = []
            for j in idx:
                val = lam * view.ddu(r, i, j) \
                    + (1.0 - lam) * du[i] * du[j] / u
                if i == j:
                    val = val - signs[i] * sq / (2.0 * u)
                row.append(val)
            out.append(row)
        return out

    return build


def _w(r, idx, signs, scale):
    """w_r = scale (du.G.du (U + G tr(G U) / (2 - dim)) - du (U G du)^T
    - (U G du) du^T).  The Minkowski scale 0.5 makes the metric trace the
    quasilinear combination du.G.du tr / (1 - n) - du.G.U.G.du of the
    conformal power equation."""
    dim = len(idx)

    def build(view):
        du = _gvec(view, r, idx)
        sq = _dot(du, du, signs)
        tr = sum_prod(signs, [view.ddu(r, i, i) for i in idx])
        gdu = [s * d for s, d in zip(signs, du)]
        out = []
        for a in idx:
            row = []
            for b in idx:
                val = sq * view.ddu(r, a, b)
                if a == b:
                    val = val + signs[a] * sq * tr / (2.0 - dim)
                cross = 0.0
                for c in idx:
                    cross = cross + gdu[c] * (du[a] * view.ddu(r, b, c)
                                              + du[b] * view.ddu(r, a, c))
                row.append((val - cross) * scale)
            out.append(row)
        return out

    return build


def _eikonal_theta(r, idx, signs):
    """du (U G du)^T + (U G du) du^T - du du^T tr(G U) - du.G.du U."""
    def build(view):
        du, hess = _gvec(view, r, idx), _hess_of(view, r, idx)
        sq = _dot(du, du, signs)
        tr = sum_prod(signs, [hess[i][i] for i in idx])
        mdu = []  # (U G du)_a
        for a in idx:
            acc = 0.0
            for c in idx:
                acc = acc + signs[c] * hess[a][c] * du[c]
            mdu.append(acc)
        out = []
        for i in idx:
            row = []
            for j in idx:
                row.append(du[i] * mdu[j] + du[j] * mdu[i]
                           - du[i] * du[j] * tr - sq * hess[i][j])
            out.append(row)
        return out

    return build


def _galilei_theta2(view, r, idx, mu):
    """U - 2 (du.du + mu u_t) / n I over the n spatial indices."""
    du = _gvec(view, r, idx)
    scal = sum_prod(du, du) + mu * view.du(r, 0)
    return [[view.ddu(r, a, b) - 2.0 * scal / len(idx) if a == b
             else view.ddu(r, a, b) for b in idx] for a in idx]


def _galilei_h(view, r, idx, mu):
    """h_a = mu x_a - t u_a."""
    t = view.x(0)
    return [mu * view.x(a) - t * view.du(r, a) for a in idx]


def _galilei_hhat(view, r, idx, mu):
    """The mu = 0 hhat_a = (x.U_a + t u_at) / t + 2 t u_a u_t / n
    + 4 (x.du) u_a / (n t)."""
    t, n = view.x(0), len(idx)
    xs = [view.x(a) for a in idx]
    du, phit = _gvec(view, r, idx), view.du(r, 0)
    xdotdu = sum_prod(xs, du)
    out = []
    for ai, a in enumerate(idx):
        h = sum_prod(xs, [view.ddu(r, a, b) for b in idx]) \
            + t * view.ddu(r, a, 0)
        out.append(h / t + 2.0 * t * du[ai] * phit / n
                   + 4.0 * xdotdu * du[ai] / (n * t))
    return out


# every covariant tensor, in the order ``invforge list tensors`` prints:
# name -> (label, geometry, selector of field {r} bound over its space, or
# where none names it (kind, the kinds of coordinates read, build), the
# settings among r and mu it reads); it spans the contracted indices.
TENSORS = {
    "theta": ("theta(lam={lam})", EUCLID, "theta{r}", ("r",)),
    "w": ("w", EUCLID, "w{r}", ("r",)),
    "theta_minkowski": ("theta_mink(lam={lam})", MINKOWSKI, "theta{r}",
                        ("r",)),
    "w_minkowski": ("w_mink", MINKOWSKI, "w{r}", ("r",)),
    "theta_vector_minkowski": ("theta_vec(u{r})", MINKOWSKI, "thvec{r}",
                               ()),
    "eikonal_theta": ("eikonal_theta", MINKOWSKI, "eik{r}", ("r",)),
    "galilei_theta": ("galilei_theta", GALILEI, "bth{r}", ("r", "mu")),
    "galilei_theta2": ("galilei_theta2", GALILEI,
                       ("matrix", ("d1", "d2"), _galilei_theta2),
                       ("r", "mu")),
    "galilei_h": ("galilei_h", GALILEI,
                  ("vector", ("base", "d1"), _galilei_h), ("r", "mu")),
    "galilei_hhat_mu0": ("galilei_hhat", GALILEI,
                         ("vector", ("base", "d1", "d2"), _galilei_hhat),
                         ("r",)),
    "implicit_theta": ("implicit_theta", GALILEI, "ith{r}", ("r",)),
    "hessian": ("hessian", EUCLID, "ddu{r}", ("r",)),
    "position": ("x", EUCLID, "x", ()),
}


def _tensor_label(label, reads, lam, r, mu):
    """``label`` with lam filled in, then the settings among r and mu in
    ``reads`` that differ from 1 added to its parenthesized list, so two
    tensors of different fields or boost weights differ in label."""
    label = label.format(lam=lam, r=r)
    named = ", ".join(f"{name}={value}" for name, value in
                      (("r", r), ("mu", mu)) if name in reads and value != 1)
    if not named:
        return label
    return f"{label[:-1]}, {named})" if label.endswith(")") \
        else f"{label}({named})"


def covariant_tensor(name: str, n: int, lam: float = 1.0, mu: float = 1.0,
                     r: int = 1, m: int = 1) -> TensorBuilder:
    """Catalog of covariant tensors by name (see :data:`TENSORS`), over
    its geometry's space in n spatial dimensions.  A tensor that reads u
    divides by it, so its space samples u > 0.
    """
    if name not in TENSORS:
        raise ValueError(f"unknown covariant tensor {name!r}")
    label, geometry, selector, reads = TENSORS[name]
    _, metric, met = geometry.space(n)
    if isinstance(selector, str):
        from . import exprlang
        source, used = exprlang.compiler(
            metric.dim, m, metric, time_mode=geometry.time, lam=lam, mu=mu)(
                exprlang.Sym(selector.format(r=r)), selector=True)
        kind = exprlang._SELECTORS[source[0][0]][0]
        # the kinds of coordinates the selector reads, of every field
        kinds = frozenset(c.kind for c in used)
    else:
        kind, kinds, build = selector
        idx = _spatial(n)
        source = (name, r, mu), lambda view: build(view, r, idx, mu)
    return TensorBuilder(_tensor_label(label, reads, lam, r, mu), kind,
                         met.dim,
                         JetSpace(metric.dim, m, REAL, met,
                                  positive_fields="field" in kinds),
                         _dep_coords(metric.dim, m, kinds), source)


# --------------------------------------------------------------------------
# functional bases


class BasisFamily(Record):
    """Named list of invariants with its expected cardinality."""

    label: str
    algebra: AlgebraSpec
    members: tuple
    expected_count: int
    space: JetSpace
    deps: tuple
    notes: str = ""

    def __post_init__(self):
        if len(self.members) != self.expected_count:
            raise ValueError(
                f"{self.label}: {len(self.members)} members but expected "
                f"{self.expected_count}")

    def labels(self):
        return [m.label for m in self.members]


def basis(spec: AlgebraSpec, hat_variant: str = "printed") -> BasisFamily:
    """Functional basis (or printed generating set) for the algebra, by
    its builder in :data:`BASES`."""
    if hat_variant not in ("printed", "uniform"):
        raise ValueError("hat_variant must be 'printed' or 'uniform'")
    if spec.name not in BASES:
        raise ValueError(f"no basis catalog for algebra {spec.name!r}")
    return BASES[spec.name][0](spec, hat_variant)


# catalog tables --------------------------------------------------------------
# The Euclid, Poincare, conformal and Galilei families are lists of
# (member label, exprlang text) rows, bound by :func:`text_binding`, as
# ``verify --expr`` binds its text, so a pasted member checks the same.
# ``S(k; A)``, ``Sjk(j, k; A, B)`` and ``R(k; v, A)`` are the power traces,
# mixed traces and power forms of the Hessian U_r (selector ``r``) or of
# the tensors ``theta<r>`` and ``w<r>``, against the gradient du_r (``r``),
# the position ``x`` or ``thvec<r>`` = du_r/u_r - du_1/u_1; the Galilei rows
# (below) also read the time-binding selectors ``dut<r>``, ``bth<r>``,
# ``ith<r>``, ``inv<r>``, ``tau<r>(lam)`` and ``r4vec<r>``.

_ROTATION_KINDS = ("base", "field", "d1", "d2")
# (label, text) of the scale a dilation weight is carried by
_U, _U1, _TR = ("u", "u1"), ("u1", "u1"), ("tr", "S(1)")
_GSQ = ("(du.du)", "contract(du1, du1)")


def _scaled(label, text, op, expo, scale=_U1):
    """Row ``label op scale^expo``.  The label prints the exponent with
    :g, the text with repr, which parses back to the same float."""
    return (f"{label}{op}{scale[0]}^{expo:g}",
            f"{text} {op} {scale[1]} ^ {expo!r}")


def text_binding(spec):
    """The jet space of the texts bound under ``spec`` and the compiler,
    of ``algebra_space(spec)``, that binds them there: basis rows,
    equations and ``verify --expr`` alike."""
    from . import exprlang
    space = JetSpace(spec.n_base, spec.m, spec.field_kind,
                     spec.geometry.space(spec.n)[2],
                     positive_fields=_FAMILIES[spec.name][1])
    return space, exprlang.compiler(**algebra_space(spec))


def _bind_rows(spec, label, rows, kinds=("field", "d1", "d2"),
               expected=None, jet_kinds=None, notes=""):
    """Family of the (member label, text) ``rows`` over the jet space of
    ``spec`` (:func:`text_binding`).  A member that is a single jet
    coordinate depends on it alone; with ``jet_kinds``, one that reads no
    field value depends on the ``jet_kinds`` coordinates; every other
    member on the ``kinds`` coordinates."""
    from . import exprlang
    nb, m = spec.n_base, spec.m
    space, compile_ = text_binding(spec)
    deps = _dep_coords(nb, m, kinds)
    jet_deps = jet_kinds and _dep_coords(nb, m, jet_kinds)
    fields = _dep_coords(nb, m, ("field",))
    members = []
    for mlabel, text in rows:
        ast = exprlang.parse(text)
        fn, used = compile_(ast)
        own = (tuple(used) if isinstance(ast, exprlang.Sym) else
               jet_deps if jet_deps and used.isdisjoint(fields)
               else deps)
        members.append(ScalarJetFunction(mlabel, fn, own, space))
    return BasisFamily(label, spec, tuple(members),
                       len(members) if expected is None else expected,
                       space, deps, notes)


def _fields(m):
    return [(f"u{r}", f"u{r}") for r in range(1, m + 1)]


def _field_ratios(m):
    return [(f"u{r}/u1", f"u{r} / u1") for r in range(2, m + 1)]


def _euclid_rows(n, m):
    """u_r, S_k(U1), S_jk(U1, U_r) and R_k(du_r, U1): the members the
    euclidean and the rotation bases share, in this order."""
    ks = range(1, n + 1)
    return (_fields(m) + [(f"S{k}(U1)", f"S({k})") for k in ks]
            + [(f"S{j},{k}(U1,U{r})", f"Sjk({j}, {k}; 1, {r})")
               for r in range(2, m + 1) for k in ks for j in range(k)]
            + [(f"R{k}(du{r},U1)", f"R({k}; {r}, 1)")
               for r in range(1, m + 1) for k in ks])


def _basis_euclid(spec, _):
    n, m = spec.n, spec.m
    return _bind_rows(spec, f"euclid n={n} m={m}", _euclid_rows(n, m),
                      expected=2 * m * n + m + (m - 1) * n * (n - 1) // 2)


def _basis_rotation(spec, _):
    """Rotation-only invariants: position vector joins the jet variables."""
    n, m = spec.n, spec.m
    rows = _euclid_rows(n, m) + [(f"R{k}(x,U1)", f"R({k}; x, 1)")
                                 for k in range(1, n + 1)]
    return _bind_rows(spec, f"rotation n={n} m={m}", rows, _ROTATION_KINDS,
                      m + n + (m - 1) * n * (n + 1) // 2 + m * n + n)


def _dilated_traces(n, m, lam):
    """S_k(U1) and S_jk(U1, U_r), j < k, over u1^(k(1 - 2/lam)), or for
    lam = 0 over tr^k (k >= 2 for S_k)."""
    ks = range(1, n + 1)
    if lam == 0:
        return ([_scaled(f"S{k}(U1)", f"S({k})", "/", k, _TR)
                 for k in range(2, n + 1)]
                + [_scaled(f"S{j},{k}(U1,U{r})", f"Sjk({j}, {k}; 1, {r})",
                           "/", k, _TR)
                   for r in range(2, m + 1) for k in ks for j in range(k)])
    return ([_scaled(f"S{k}(U1)", f"S({k})", "/", k * (1.0 - 2.0 / lam))
             for k in ks]
            + [_scaled(f"S{j},{k}(U1,U{r})", f"Sjk({j}, {k}; 1, {r})", "/",
                       k * (1.0 - 2.0 / lam))
               for r in range(2, m + 1) for k in ks for j in range(k)])


def _basis_extended_euclid(spec, _):
    n, m, lam = spec.n, spec.m, spec.lam
    ks, rs = range(1, n + 1), range(1, m + 1)
    if m == 1 and lam != 0:
        rows = ([_scaled(f"R{k}", f"R({k})", "/", k * (1.0 - 2.0 / lam) + 1.0,
                         _U) for k in ks]
                + [_scaled(f"S{k}", f"S({k})", "/", k * (1.0 - 2.0 / lam), _U)
                   for k in ks])
    elif m == 1:
        rows = ([("u1", "u1")]
                + [_scaled(f"R{k}", f"R({k})", "/", k, _TR) for k in ks]
                + [_scaled(f"S{k}", f"S({k})", "/", k, _TR)
                   for k in range(2, n + 1)])
    elif lam != 0:
        rows = (_field_ratios(m) + _dilated_traces(n, m, lam)
                + [_scaled(f"R{k}(du{r})", f"R({k}; {r}, 1)", "/",
                           k * (1.0 - 2.0 / lam) + 1.0)
                   for r in rs for k in ks])
    else:
        rows = (_fields(m)
                + [_scaled(f"R{k}(du{r})", f"R({k}; {r}, 1)", "/", k, _TR)
                   for r in rs for k in ks]
                + _dilated_traces(n, m, lam))
    if m == 1:
        return _bind_rows(spec, f"extended-euclid n={n} lam={lam:g}", rows,
                          expected=2 * n)
    return _bind_rows(spec, f"extended-euclid n={n} m={m} lam={lam:g}", rows)


def rotation_dilation_family(n: int, m: int = 1,
                             lam: float = 1.0) -> BasisFamily:
    """Invariants of rotations plus dilation (no translations): the
    position-vector forms join the jet invariants, dilation-normalized
    per branch."""
    ks, rs = range(1, n + 1), range(1, m + 1)
    if lam != 0:
        rows = (_field_ratios(m) + _dilated_traces(n, m, lam)
                + [_scaled(f"R{k}(du{r},U1)", f"R({k}; {r}, 1)", "*",
                           2.0 * k / lam - 1.0 - k)
                   for r in rs for k in ks]
                + [_scaled(f"R{k}(x,U1)", f"R({k}; x, 1)", "*",
                           (2.0 / lam) * (k - 2.0) - k + 1.0) for k in ks])
    else:
        rows = (_fields(m)
                + [_scaled(f"R{k}(du{r},U1)", f"R({k}; {r}, 1)", "/", k, _TR)
                   for r in rs for k in ks]
                + _dilated_traces(n, m, lam)
                + [_scaled(f"R{k}(x,U1)", f"R({k}; x, 1)", "*", 2 - k, _TR)
                   for k in ks])
    return _bind_rows(AlgebraSpec("AE1", n, m=m, lam=lam),
                      f"rotation-dilation n={n} m={m} lam={lam:g}", rows,
                      _ROTATION_KINDS)


def _conformal_rows(m, lam, kmax, minkowski_):
    """The conformal bases for several fields, orders 1..kmax: theta
    traces and forms times powers of u1, or for lam = 0, w traces and forms
    times powers of du.du.  The lam = 0 mixed traces are S_jk(w1, w_r),
    j < k, in Euclidean space and S_jk(w_r, w1), j >= 1, in Minkowski
    space."""
    ks, rs = range(1, kmax + 1), range(2, m + 1)
    if lam != 0:
        return (_field_ratios(m)
                + [_scaled(f"S{k}(theta1)", f"S({k}; theta1)", "*",
                           k * (2.0 / lam - 1.0)) for k in ks]
                + [_scaled(f"S{j},{k}(theta{r},theta1)",
                           f"Sjk({j}, {k}; theta{r}, theta1)", "*",
                           k * (2.0 / lam - 1.0))
                   for r in rs for k in ks for j in range(1, k + 1)]
                + [_scaled(f"R{k}(thvec{r},theta1)",
                           f"R({k}; thvec{r}, theta1)", "*",
                           k * (2.0 / lam - 1.0) - 1.0)
                   for r in rs for k in ks])
    if minkowski_:
        sjk = [_scaled(f"S{j},{k}(w{r},w1)", f"Sjk({j}, {k}; w{r}, w1)",
                       "/", 2 * k, _GSQ)
               for r in rs for k in ks for j in range(1, k + 1)]
    else:
        sjk = [_scaled(f"S{j},{k}(w1,w{r})", f"Sjk({j}, {k}; w1, w{r})",
                       "/", 2 * k, _GSQ)
               for r in rs for k in ks for j in range(k)]
    return (_fields(m)
            + [_scaled(f"S{k}(w1)", f"S({k}; w1)", "/", 2 * k, _GSQ)
               for k in range(1, kmax)]
            + sjk
            + [_scaled(f"R{k}(du{r},w1)", f"R({k}; {r}, w1)", "*",
                       1 - 2 * k, _GSQ) for r in rs for k in ks])


def _basis_conformal(spec, _):
    n, m, lam = spec.n, spec.m, spec.lam
    if m > 1:
        return _bind_rows(spec, f"conformal n={n} m={m} lam={lam:g}",
                          _conformal_rows(m, lam, n, False))
    if lam != 0:
        rows = [_scaled(f"S{k}(theta)", f"S({k}; theta1)", "*",
                        k * (2.0 / lam - 1.0), _U) for k in range(1, n + 1)]
    else:
        rows = [("u1", "u1")] + [_scaled(f"S{k}(w)", f"S({k}; w1)", "/",
                                         2 * k, _GSQ) for k in range(1, n)]
    return _bind_rows(spec, f"conformal n={n} lam={lam:g}", rows,
                      expected=n)


def _basis_conformal_minkowski(spec, _):
    n, m, lam = spec.n, spec.m, spec.lam
    return _bind_rows(spec, f"conformal-minkowski n={n} m={m} lam={lam:g}",
                      _conformal_rows(m, lam, n + 1, True))


def _basis_poincare(spec, _):
    n, m = spec.n, spec.m
    ks, rs = range(1, n + 2), range(1, m + 1)
    rows = (_fields(m) + [(f"S{k}(U1)", f"S({k})") for k in ks]
            + [(f"S{j},{k}(U{r},U1)", f"Sjk({j}, {k}; {r}, 1)")
               for r in rs[1:] for k in ks for j in range(1, k + 1)]
            + [(f"R{k}(du{r},U1)", f"R({k}; {r}, 1)") for r in rs for k in ks])
    return _bind_rows(spec, f"poincare n={n} m={m}", rows,
                      expected=m * (2 * n + 3) + (m - 1) * n * (n + 1) // 2)


def _basis_extended_poincare(spec, _):
    n, m, lam = spec.n, spec.m, spec.lam
    ks, rs = range(1, n + 2), range(1, m + 1)
    sjk = [(j, k, r) for r in rs[1:] for k in ks for j in range(1, k + 1)]
    if lam == 0:
        rows = (_fields(m)
                + [_scaled(f"S{k}(U1)", f"S({k})", "/", k, _TR)
                   for k in ks[1:]]
                + [_scaled(f"S{j},{k}(U{r},U1)", f"Sjk({j}, {k}; {r}, 1)",
                           "/", k, _TR) for j, k, r in sjk]
                + [_scaled(f"R{k}(du{r},U1)", f"R({k}; {r}, 1)", "/", k, _TR)
                   for r in rs for k in ks])
    else:
        rows = (_field_ratios(m)
                + [_scaled(f"S{k}(U1)", f"S({k})", "*", k * (2.0 / lam - 1.0))
                   for k in ks]
                + [_scaled(f"S{j},{k}(U{r},U1)", f"Sjk({j}, {k}; {r}, 1)",
                           "*", k * (2.0 / lam - 1.0)) for j, k, r in sjk]
                + [_scaled(f"R{k}(du{r},U1)", f"R({k}; {r}, 1)", "*",
                           2.0 * k / lam - k - 1.0) for r in rs for k in ks])
    return _bind_rows(spec, f"extended-poincare n={n} m={m} lam={lam:g}",
                      rows)


def two_matrix_trace_family(n: int) -> BasisFamily:
    """Mixed traces tr(U^j V^(k-j)), j=0..k, k=1..n, of the two Hessians of
    an (n, 2) jet; a maximal independent set of rotation invariants."""
    rows = [(f"S{j},{k}(U,V)", f"Sjk({j}, {k}; 1, 2)")
            for k in range(1, n + 1) for j in range(k + 1)]
    return _bind_rows(AlgebraSpec("AO", n, m=2), f"two-matrix traces n={n}",
                      rows, ("d2",), n * (n + 3) // 2)


def rotation_pair_family(n: int) -> BasisFamily:
    """Rotation invariants of two vector/tensor pairs (du^r, ddu^r)."""
    ks = range(1, n + 1)
    rows = ([(f"R{k}(du{r},U{r})", f"R({k}; {r}, {r})")
             for r in (1, 2) for k in ks]
            + [(f"S{j},{k}(U1,U2)", f"Sjk({j}, {k}; 1, 2)")
               for k in ks for j in range(k + 1)])
    return _bind_rows(AlgebraSpec("AO", n, m=2), f"rotation pairs n={n}",
                      rows, ("d1", "d2"), n * (n + 7) // 2)


# Galilei families (log-substituted jets: field 1 is log u / log psi) -------
# Every Galilei family is text rows over t, x1..xn.  Each text repeats its
# kernel's operations in order, with the boost constants printed in:
# two_c = 2c and c2 = c^2 with c = mu for the real families and
# c = sgn*i*mass for field r of the complex pair (sgn = +1 for psi, -1 for
# psi*).  The boost theta ``bth<r>`` takes its time coefficient from the
# binding, as printed: mu, or -sgn*i*mass.  The massless pair's N3 and R^4
# read the kernels :func:`_tau` and :func:`_r4_vector` (selectors
# ``tau<r>(lam)`` and ``r4vec<r>``).  Only the bordered determinants of
# :func:`galilei_mu0_determinant_family` stay closures.


def _spatial(n):
    return tuple(range(1, n + 1))


def _gvec_t(view, r, idx):
    """The mixed derivatives u_{r,at} over the spatial indices ``idx``."""
    return [view.ddu(r, a, 0) for a in idx]


def _hess_of(view, r, idx):
    return _tensor_cached(view, *_hessian(r, idx))


def _jets(view, r, sp):
    """(du, du_t, U) of field r: spatial gradient, its time derivative and
    the spatial Hessian (from the per-view matrix cache)."""
    return _gvec(view, r, sp), _gvec_t(view, r, sp), _hess_of(view, r, sp)


def _quad(acc, vec, mat):
    """acc + vec.mat.vec, one term per entry of ``mat`` in row order."""
    for a in range(len(vec)):
        for b in range(len(vec)):
            acc = acc + vec[a] * vec[b] * mat[a][b]
    return acc


def _boost_theta(c, du, dut, hess):
    """Boost theta_a = c u_{at} + (U du)_a."""
    return [c * dut[a] + sum_prod(du, hess[a]) for a in range(len(du))]


def _implicit_theta(view, r, sp):
    """The mu = 0 theta, solving U theta = du_t; cached per view."""
    return _tensor_cached(view, ("implicit_theta", r), lambda v: solve_linear(
        _hess_of(v, r, sp), _gvec_t(v, r, sp), "Hessian"))


def _rinv(view, r, sp):
    """U^-1, cached per view."""
    return _tensor_cached(view, ("rinv", r), lambda v: mat_inverse(
        _hess_of(v, r, sp), "Hessian"))


def _tau(view, r, sp, lam):
    """The tau of the massless N3, solving A tau = du u_t + lam du_t with
    A = lam U + du du^T, all of field r."""
    n, du = len(sp), _gvec(view, r, sp)
    a = [[lam * view.ddu(r, sp[ai], sp[bi]) + du[ai] * du[bi]
          for bi in range(n)] for ai in range(n)]
    rhs = [du[bi] * view.du(r, 0) + lam * view.ddu(r, sp[bi], 0)
           for bi in range(n)]
    return solve_linear(a, rhs, "tau system")


def _r4_vector(view, r, s, sp):
    """The vector of the massless R^4 of field r and its partner s:
    lead (U_r^-1 du_s - U_s^-1 du_r) - (sum du_r U_r U_r^-1) dth, with the
    mu = 0 M1 lead = u_t - du_r.theta_r and dth = theta_r - theta_s."""
    th1, th2 = _implicit_theta(view, r, sp), _implicit_theta(view, s, sp)
    dth = [th1[a] - th2[a] for a in range(len(sp))]
    du1, du2 = _gvec(view, r, sp), _gvec(view, s, sp)
    r1m, r2m = _rinv(view, r, sp), _rinv(view, s, sp)
    u1 = _hess_of(view, r, sp)
    lead = view.du(r, 0) - sum_prod(du1, th1)
    out = []
    for a in range(len(sp)):
        mixed = sum_prod(r1m[a], du2) - sum_prod(r2m[a], du1)
        coupling = 0.0
        for b in range(len(sp)):
            for d in range(len(sp)):
                coupling = coupling + du1[b] * u1[a][d] * r1m[b][d]
        out.append(lead * mixed - coupling * dth[a])
    return out


_HAT_NOTES = "hatted sums implemented as printed; see per-member verdicts"


def _over_text(num, den, e):
    """Text of num / den^e: an int power (:func:`_power`) for an integer
    e, else exp(e log den)."""
    if float(e).is_integer():
        return f"{num} / ({den}) ^ {int(e)}"
    return f"{num} / exp({e!r} * log({den}))"


def _boost_texts(n, r, u, two_c, c2):
    """Texts of M1 = 2c u_t + du.du, M2 = c^2 u_tt + 2c du.du_t + du.U.du
    and N2 = c^2 u_tt + 2c (u_t tr/n + du.du_t) + du.U.du + du.du tr/n
    + tr^2/n of field r, with tr the trace of U, whose symbols start with
    ``u``, with the texts of two_c and c2 printed in.  Every sum runs left
    to right as printed, du.U.du one term per entry of U in row order."""
    sp, tr = _spatial(n), f"S(1; {r})"
    # parenthesized (no node changes) so that M2 and N2 share each term
    quad = "".join(f" + ({u}_x{a} * {u}_x{b} * {u}_x{a}x{b})"
                   for a in sp for b in sp)
    dudut, dudu = f"contract(du{r}, dut{r})", f"contract(du{r}, du{r})"
    return (f"{two_c} * {u}_t + {dudu}",
            f"{c2} * {u}_tt + {two_c} * {dudut}{quad}",
            f"{c2} * {u}_tt + {two_c} * ({u}_t * {tr} / {n} + {dudut}){quad}"
            f" + {dudu} * {tr} / {n} + {tr} * {tr} / {n}")


def _pow_text(base, e):
    """Text of base^e as :func:`_power` takes it (tr^0 is 1.0, unread), in
    parentheses that change no node but make a repeat one parsed group."""
    return f"({base} ^ {e})" if e else "1"


def _rhat_text(r_text, tr, n, k, uniform):
    """Text of the hatted sum of C(k, l) (-n)^l R_l tr^e over l = 1..k
    (R_0 taken as zero), with e = k - l (uniform) or k - 1 (as printed)."""
    return "0.0" + "".join(
        f" + {r_text(l)} * {_pow_text(tr, k - l if uniform else k - 1)}"
        f" * {(-n) ** l!r} * {math.comb(k, l)!r}" for l in range(1, k + 1))


def _galilei_rows(spec, hat_variant):
    """(family label, (member label, text) rows, expected count, notes) of
    a Galilei family."""
    if spec.geometry is GALILEI_PAIR:
        return _galilei_pair_rows(spec, hat_variant)
    n, mu, lam = spec.n, spec.mu, spec.lam
    ks = range(1, n + 1)
    ss = [f"S({k})" for k in ks]
    if mu != 0:
        m1, m2, n2 = _boost_texts(n, 1, "u", repr(2.0 * mu), repr(mu * mu))
        rs = [f"R({k}; bth1, 1)" for k in ks]
    else:
        m1, m2 = "u_t - contract(du1, ith1)", "u_tt - contract(dut1, ith1)"
        rs = [f"R({k})" for k in ks]

    if spec.name == "AG_I":
        return (f"galilei n={n} mu={mu:g}",
                [("M1", m1), ("M2", m2)]
                + [(f"R{k}", t) for k, t in zip(ks, rs)]
                + [(f"S{k}", t) for k, t in zip(ks, ss)], 2 * n + 2, "")

    if spec.name == "AG1_I":
        # R_k of the boost theta carries M1^2 more than R_k of du (mu = 0)
        e = 2 if mu != 0 else 0
        rows = [("M2/M1^2", f"({m2}) / ({m1}) ^ 2") if mu != 0
                else ("M1^2/M2", f"({m1}) ^ 2 / ({m2})")]
        rows += [(f"R{k}/M1^{k + e}", _over_text(t, m1, k + e))
                 for k, t in zip(ks, rs)]
        rows += [(f"S{k}/M1^{k}", _over_text(t, m1, k))
                 for k, t in zip(ks, ss)]
        return f"galilei-dilation n={n} mu={mu:g}", rows, 2 * n + 1, ""

    if mu == 0:
        big_m = f"({m1}) ^ 2 + ({m2}) * ({lam!r} + quad(du1, inv1))"
        return (f"galilei-projective n={n} mu=0 lam={lam:g}",
                [(f"R{k}/M^{k}/2", _over_text(t, big_m, k / 2.0))
                 for k, t in zip(ks, rs)]
                + [(f"S{k}/M^{k}/2", _over_text(t, big_m, k / 2.0))
                   for k, t in zip(ks, ss)], 2 * n, "")

    # AG2_I: projective combinations built from the hatted sums
    n1 = f"{m1} + S(1)"

    def s_hat(k):
        acc = "0.0"
        for l in range(0, k + 1):
            coef = ((-n) ** l) * math.factorial(k - 1) * (k + 1) \
                / (math.factorial(l + 1) * math.factorial(k - l))
            # S_0 is n, so the first term's constants multiply out here
            head = repr(coef * float(n)) if l == 0 else f"{coef!r} * S({l})"
            acc += f" + {head} * {_pow_text('S(1)', k - l)}"
        return acc

    rows = [("N2/N1^2", f"({n2}) / ({n1}) ^ 2")]
    rows += [(f"Rhat{k}/N1^{k + 2}", _over_text("(" + _rhat_text(
        lambda l: rs[l - 1], "S(1)", n, k, hat_variant == "uniform") + ")",
        n1, k + 2)) for k in ks]
    rows += [(f"Shat{k}/N1^{k}", _over_text(f"({s_hat(k)})", n1, k))
             for k in range(2, n + 1)]
    return (f"galilei-projective n={n} mu={mu:g} [{hat_variant}]", rows,
            2 * n, _HAT_NOTES)


def _galilei_pair_rows(spec, hat_variant):
    n, mass = spec.n, spec.mass
    ks = range(1, n + 1)
    if mass == 0:
        return _massless_pair_rows(n, spec.lam)
    # field 1 is psi (sgn = +1), field 2 psi* (sgn = -1)
    m1, m2, n2, n1 = {}, {}, {}, {}
    for r, sgn in ((1, 1.0), (2, -1.0)):
        # i * (2 sgn mass) has the bits of (2 sgn) * (i * mass)
        two_c = f"i * {2.0 * sgn * mass!r}"
        m1[r], m2[r], n2[r] = _boost_texts(n, r, f"u{r}", two_c,
                                           repr(-mass * mass))
        # tr before du.du, unlike M1 + tr
        n1[r] = f"{two_c} * u{r}_t + S(1; {r}) + contract(du{r}, du{r})"
    phases = "(u1 + u2)"
    sjk_range = [(j, k) for k in ks for j in range(0, k + 1)]
    sjks = [f"Sjk({j}, {k}; 1, 2)" for j, k in sjk_range]
    # R^1 and R^2 take the boost theta of psi and psi*, R^3 du1 + du2;
    # every form is against U1
    vecs = {1: "bth1", 2: "bth2", 3: "du1 + du2"}

    def r_k(w, k):
        return f"R({k}; {vecs[w]}, 1)"

    if spec.name == "AG_II":
        rows = [("phi+phi*", "u1 + u2"), ("M1", m1[1]), ("M1*", m1[2]),
                ("M2", m2[1]), ("M2*", m2[2])]
        rows += [(f"S{j},{k}", t) for (j, k), t in zip(sjk_range, sjks)]
        rows += [(f"R{k}^{w}", r_k(w, k)) for w in (1, 2, 3) for k in ks]
        return (f"schroedinger-galilei n={n} mass={mass:g}", rows,
                5 + len(sjk_range) + 3 * n, "")

    # R^1 and R^2 carry M1^2 (N1^2) more than R^3 and the traces
    weight = {1: 2, 2: 2, 3: 0}
    if spec.name == "AG1_II":
        lam = spec.lam
        rows = [("M1*/M1", f"({m1[2]}) / ({m1[1]})"),
                ("M2/M1^2", f"({m2[1]}) / ({m1[1]}) ^ 2"),
                ("M2*/M1^2", f"({m2[2]}) / ({m1[1]}) ^ 2")]
        rows += [(f"R{k}^{w}/M1^{k + weight[w]}",
                  _over_text(r_k(w, k), m1[1], k + weight[w]))
                 for w in (1, 2, 3) for k in ks]
        rows += [(f"S{j},{k}/M1^{k}", _over_text(t, m1[1], k))
                 for (j, k), t in zip(sjk_range, sjks)]
        rows.append(("phi+phi*", "u1 + u2") if lam == 0 else (
            f"M1*e^(2/{lam:g})(phi+phi*)",
            f"({m1[1]}) * exp({2.0 / lam!r} * {phases})"))
        return (
            f"schroedinger-galilei-dilation n={n} mass={mass:g} lam={lam:g}",
            rows, 4 + 3 * n + len(sjk_range), "")

    # AG2_II, mass != 0, lam = -n/2
    def s_hat_jk(j, k):
        acc = "0.0"
        for l in range(0, k + 1):
            # S_{r,l} is zero for r > l, n for l = 0, whose term's
            # constants multiply out here; the group of S_{r,l} (-n)^l
            # repeats across rows
            for r in range(0, min(j, l) + 1):
                binom = math.comb(k, l + 1 - r) if 0 <= l + 1 - r <= k else 0
                if binom == 0:
                    continue
                head = (repr(float(n) * (-n) ** l * math.comb(j, r) * binom)
                        if l == 0 else f"(Sjk({r}, {l}; 1, 2) * {(-n) ** l!r})"
                        f" * {math.comb(j, r)!r} * {binom!r}")
                acc += (f" + {head} * {_pow_text('S(1; 1)', j - r)}"
                        f" * {_pow_text('S(1; 2)', k - l - j + r)}")
        head = (repr(k * 1.0) if j == 0
                else f"{k!r} * {_pow_text('S(1; 1)', j)}")
        return acc + f" + {head} * {_pow_text('S(1; 2)', k - j - 1)}"

    rows = [(f"N1*e^(-4/{n})(phi+phi*)",
             f"({n1[1]}) * exp({-4.0 / n!r} * {phases})"),
            ("N1/N1*", f"({n1[1]}) / ({n1[2]})"),
            ("N2/N1*", f"({n2[1]}) / ({n1[2]})"),
            ("N2*/N1*", f"({n2[2]}) / ({n1[2]})")]
    # the complex sums take the uniform exponent under either variant
    rows += [(f"Rhat{k}^{w}/N1^{k + weight[w]}", _over_text(
        "(" + _rhat_text(lambda l: r_k(w, l), "S(1; 1)", n, k, True) + ")",
        n1[1], k + weight[w])) for w in (1, 2, 3) for k in ks]
    rows += [(f"Shat{j},{k}/N1^{k}",
              _over_text(f"({s_hat_jk(j, k)})", n1[1], k))
             for j, k in sjk_range]
    return (
        f"schroedinger-galilei-projective n={n} mass={mass:g} [{hat_variant}]",
        rows, 4 + 3 * n + len(sjk_range), _HAT_NOTES)


def _massless_pair_rows(n, lam):
    """Rows of AG2_II at mass 0.  N1 of field r is AG_I's mu = 0 leader
    M1^2 + M2 (lam + du.U^-1.du) of that field."""
    ks = range(1, n + 1)
    lead = {r: f"(u{r}_t - contract(du{r}, ith{r}))" for r in (1, 2)}
    n1 = {r: f"{lead[r]} ^ 2 + (u{r}_tt - contract(dut{r}, ith{r}))"
             f" * ({lam!r} + quad(du{r}, inv{r}))" for r in (1, 2)}
    phases = "(u1 + u2)"
    s_rows = [(f"S{j},{k}^2/N1^{k}",
               _over_text(f"Sjk({j}, {k}; 1, 2) ^ 2", n1[1], k))
              for k in ks for j in range(0, k + 1)]
    # R^1 and R^2 take du1 and du2, R^3 theta1 - theta2 and R^4 its vector
    vecs = {1: "du1", 2: "du2", 3: "ith1 - ith2", 4: "r4vec1"}

    def r_sq(w, k):
        return f"R({k}; {vecs[w]}, 1) ^ 2"

    if lam == 0:
        n2 = f"{lead[1]} * quad(du2, inv2) - {lead[2]} * quad(du1, inv1)"
        rows = [("phi+phi*", "u1 + u2"),
                ("N1^2/N2^2", f"({n1[1]}) ^ 2 / ({n2}) ^ 2"),
                ("N1*^2/N2", f"({n1[2]}) ^ 2 / ({n2})")] + s_rows
        rows += [(f"R{k}^{w}^2*N1^{-k - 1}",
                  f"{r_sq(w, k)} * ({n1[1]}) ^ {-k - 1}")
                 for w in (1, 2, 4) for k in ks]
    else:
        n3 = f"(u1_t - u2_t) - contract(tau1({lam!r}), du1 - du2)"
        rows = [(f"N1*e^(4/{lam:g})(phi+phi*)",
                 f"({n1[1]}) * exp({4.0 / lam!r} * {phases})"),
                ("N1*/N1", f"({n1[2]}) / ({n1[1]})"),
                (f"N3*e^(3/{lam:g})(phi+phi*)",
                 f"({n3}) * exp({3.0 / lam!r} * {phases})")]
        rows += [(f"R{k}^{w}^2/N1^{k}", _over_text(r_sq(w, k), n1[1], k))
                 for w in (1, 2, 3) for k in ks]
        rows += s_rows
    return (f"schroedinger-galilei-projective n={n} mass=0 lam={lam:g}",
            rows, len(rows), "implemented as printed; see per-member verdicts")


def _basis_galilei(spec, hat_variant):
    if spec.rep != "log":
        raise ValueError("Galilei bases act on log-substituted jets; "
                         "use rep='log'")
    if spec.name in ("AG_II", "AG1_II") and spec.mass == 0:
        raise ValueError(f"no printed massless basis for {spec.name}")
    label, rows, expected, notes = _galilei_rows(spec, hat_variant)
    # a member of the pair that reads no phase depends on the jets alone,
    # as every real member does
    kinds = ("field", "d1", "d2") if spec.geometry is GALILEI_PAIR \
        else ("d1", "d2")
    return _bind_rows(spec, label, rows, kinds, expected, ("d1", "d2"),
                      notes)


# every cataloged basis, in the order ``invforge list bases`` prints: its
# builder, called as (spec, hat_variant), and its line in that list
BASES = {
    "AE": (_basis_euclid,
           "scalar/multi-field jet invariants (power traces and forms)"),
    "AO": (_basis_rotation,
           "rotation invariants including the position vector"),
    "AE1": (_basis_extended_euclid,
            "dilation-normalized invariants, branches lambda = 0 and != 0"),
    "AC": (_basis_conformal,
           "conformal tensor invariants, branches lambda = 0 and != 0"),
    "AP": (_basis_poincare, "spacetime power-trace invariants (m fields)"),
    "APtilde": (_basis_extended_poincare,
                "dilation-normalized spacetime invariants, two branches"),
    "AC1n": (_basis_conformal_minkowski,
             "conformal spacetime tensor invariants, two branches"),
    "AG_I": (_basis_galilei,
             "boost-covariant invariants on log-substituted jets"),
    "AG1_I": (_basis_galilei, "dilation-normalized log-jet invariants"),
    "AG2_I": (_basis_galilei, "projective combinations (per-member verdicts; "
              "mu = 0 branch uses the implicit theta solve)"),
    "AG_II": (_basis_galilei,
              "conjugate-pair invariants on log-substituted jets"),
    "AG1_II": (_basis_galilei,
               "dilation-normalized conjugate-pair invariants"),
    "AG2_II": (_basis_galilei, "projective conjugate-pair combinations "
                               "(mass = 0 branch available)"),
}


def galilei_mu0_determinant_family(n: int) -> BasisFamily:
    """Variant of the mu=0 family with bordered-determinant leaders."""
    spec = AlgebraSpec("AG_I", n, mu=0.0, rep="log")
    fam = basis(spec)
    sp = _spatial(n)

    def bordered(v, top):
        """det [top; u_at, U_a for every spatial a]."""
        return determinant([top] + [[t] + row for t, row in zip(
            _gvec_t(v, 1, sp), _hess_of(v, 1, sp))])

    members = [ScalarJetFunction(
        "Mhat1", lambda v: bordered(v, [v.du(1, 0)] + _gvec(v, 1, sp)),
        fam.deps, fam.space), ScalarJetFunction(
        "Mhat2", lambda v: bordered(v, [v.ddu(1, 0, 0)] + _gvec_t(v, 1, sp)),
        fam.deps, fam.space)]
    members += list(fam.members[2:])
    return BasisFamily(f"galilei n={n} mu=0 (determinants)", spec,
                       tuple(members), fam.expected_count, fam.space, fam.deps)


# --------------------------------------------------------------------------
# example equation residuals
# Each residual is a (label, text) row of field 1, bound like a basis row
# over its algebra's space (:meth:`EquationInfo.build`).  Each text repeats
# its formula's float operations in order.

def _evolution(n, pair=False, mu=1.0, mass=1.0, **_):
    """2c u_t + tr U: the heat flow, c = mu, or on the complex pair the
    free Schrodinger equation, c = i mass."""
    two_c = f"i * {2.0 * mass!r}" if pair else repr(2.0 * mu)
    return (f"schrodinger(mass={mass:g})" if pair else f"heat(mu={mu:g})",
            f"{two_c} * u1_t" + "".join(f" + u1_x{a}x{a}"
                                        for a in _spatial(n)))


# the constant f of the projective-invariant flows
_PROJECTIVE_F = 0.75


def _projective(n, pair=False, mu=1.0, mass=1.0, **_):
    """N2 - c^2 N1^2 f with N1 = M1 + tr U and c = mu; on the complex pair
    (c = i mass) N2 - N1^2 f, as printed."""
    if pair:
        # 2.0 * (i * mass), the operations of the printed 2c;
        # i * (2.0 * mass) may differ in the sign of a zero real part
        two_c, c2 = f"2.0 * (i * {mass!r})", repr(-mass * mass)
        label = f"schrodinger-projective(mass={mass:g})"
    else:
        two_c, c2 = repr(2.0 * mu), repr(mu * mu)
        label = f"galilei-projective(mu={mu:g})"
    m1, _, n2 = _boost_texts(n, 1, "u1", two_c, c2)
    sq = f"({m1} + S(1; 1)) ^ 2"
    return label, f"{n2} - {sq if pair else f'{c2} * {sq}'}" \
        f" * {_PROJECTIVE_F!r}"


def _form_text(n):
    """Text of du.G.U.G.du of field 1 over x0..xn, summed from 0.0 one
    term per entry of U in row order, each led by its two signs'
    product."""
    signs = MINKOWSKI.space(n)[1].signs
    return "(0.0" + "".join(
        f" + {signs[i] * signs[j]!r} * u1_x{i} * u1_x{j} * u1_x{i}x{j}"
        for i in range(n + 1) for j in range(n + 1)) + ")"


def _eikonal(n, **_):
    return "eikonal", _GSQ[1]


def _eikonal_trace(n, k=1, **_):
    if k < 1:
        raise ValueError("k must be at least 1")
    return f"eikonal-trace(k={k})", f"S({k}; eik1)"


def _born_infeld(n, **_):
    return "born-infeld", f"(1.0 - {_GSQ[1]}) * S(1) + {_form_text(n)}"


def _eikonal_quasilinear(n, **_):
    return "eikonal-quasilinear", f"{_form_text(n)} - {_GSQ[1]} * S(1)"


# the coefficients c0, c1 of the conformal-power flow's f(u) = c0 + c1 u
_CONFORMAL_F = (1.0, 0.5)


def _conformal_power(n, **_):
    """du.G.du tr(G U) / (1 - n) - du.G.U.G.du - (du.G.du)^2 f(u), f in
    Horner form from 0.0."""
    fu = "0.0"
    for c in reversed(_CONFORMAL_F):
        fu = f"({fu} * u1 + {c!r})"
    return "conformal-power", f"{_GSQ[1]} * S(1) / {1.0 - n!r}" \
        f" - {_form_text(n)} - {_GSQ[1]} ^ 2 * {fu}"


class EquationInfo(Record, not_compared=("residual",)):
    """An example equation: the maker of its residual's (label, text) row,
    the algebra it is checked under (its name, fixed spec parameters and
    the call parameters passed on to the spec), the coordinate the
    projection onto its manifold moves (when it is None, or the residual's
    derivative along it is 0 at a check's first sample: the first d2, else
    d1, coordinate the residual is affine in there, and the one with the
    largest derivative where there is none; see
    :func:`verify.check_on_manifold`) and a note."""

    name: str
    residual: callable
    algebra: str
    spec: dict
    reads: tuple
    solve_for: object
    note: str

    def row(self, n, **params):
        """The residual's (label, text) row in n spatial dimensions; its
        maker reads the ``params`` it takes (mu, mass, k, ...) and ignores
        the rest.  The equations an _II algebra checks are on the complex
        pair."""
        pair = _FAMILIES[self.algebra][0] is GALILEI_PAIR
        return self.residual(n, pair=pair, **params)

    def build(self, n, **params):
        """The residual in n spatial dimensions: the text of its
        :meth:`row` bound over the space of the checking algebra
        (:func:`text_binding`).  It depends on every coordinate of the
        kinds and fields its text reads."""
        from . import exprlang
        spec = self.default_algebra(n, params)
        label, text = self.row(n, **params)
        space, compile_ = text_binding(spec)
        fn, used = compile_(exprlang.parse(text))
        deps = _dep_coords(spec.n_base, spec.m,
                           frozenset(c.kind for c in used),
                           frozenset(c.r for c in used if c.kind != "base"))
        return ScalarJetFunction(label, fn, deps, space)

    def default_algebra(self, n, params):
        """The algebra checking the residual, with the ``params`` its spec
        reads."""
        return make_spec(self.algebra, n, **self.spec,
                         **{k: params[k] for k in self.reads if k in params})


_AP_INF_READS = ("seed", "instances", "functions")
EQUATIONS = {e.name: e for e in (
    EquationInfo("heat", _evolution, "AG2_I", {"rep": "u"}, ("mu",),
                 d1_coord(1, 0), "linear heat flow; checked against the "
                 "projective Galilei algebra"),
    EquationInfo("schrodinger", _evolution, "AG2_II", {"rep": "u"},
                 ("mass",), d1_coord(1, 0), "free particle wave equation on "
                 "the conjugate field pair"),
    EquationInfo("born-infeld", _born_infeld, "AP_BornInfeld", {}, (),
                 d2_coord(1, 0, 0), "minimal-surface flow; symmetric under "
                 "rotations mixing u into x"),
    EquationInfo("eikonal", _eikonal, "AP_inf", {}, _AP_INF_READS,
                 d1_coord(1, 0), "null-gradient equation with an infinite "
                 "symmetry algebra"),
    EquationInfo("eikonal-quasilinear", _eikonal_quasilinear, "AP_inf",
                 {"extended": True}, _AP_INF_READS, None,
                 "second-order companion of the eikonal flow"),
    EquationInfo("eikonal-trace", _eikonal_trace, "AP_inf", {},
                 _AP_INF_READS, None,
                 "vanishing power-trace of the eikonal covariant tensor"),
    EquationInfo("conformal-power", _conformal_power, "AC1n", {"lam": 0.0},
                 (), None,
                 "quasilinear flow driven by the conformal tensor trace"),
    EquationInfo("galilei-projective", _projective, "AG2_I", {"rep": "log"},
                 ("mu",), None, "log-substituted projective-invariant flow"),
    EquationInfo("schrodinger-projective", _projective, "AG2_II",
                 {"rep": "log"}, ("mass",), None,
                 "complex analogue of the projective-invariant flow"),
)}


def equation_function(name: str, n: int, **params) -> ScalarJetFunction:
    info = EQUATIONS.get(name)
    if info is None:
        raise ValueError(f"unknown equation {name!r}")
    return info.build(n, **params)


