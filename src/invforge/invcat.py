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
import math
from dataclasses import dataclass, field as dc_field

from .dual import (
    Dual,
    EvaluationError,
    Jet1,
    derivs,
    dexp,
    dlog,
    magnitude,
    value_of,
)
from .jetspace import (
    COMPLEX,
    REAL,
    FieldKind,
    JetPoint,
    Metric,
    _symmetric,
    base_coord,
    d1_coord,
    d2_coord,
    enumerate_coords,
    euclidean,
    field_coord,
    minkowski,
)
from .liealg import AlgebraSpec, algebra_space, make_sampler, make_spec

# --------------------------------------------------------------------------
# generic dense linear algebra over any scalar that supports + - * /


def mat_mul(a, b):
    n, p = len(a), len(b[0])
    q = len(b)
    return [[sum_prod(a[i], [b[k][j] for k in range(q)]) for j in range(p)]
            for i in range(n)]


def sum_prod(xs, ys):
    total = 0.0
    for x, y in zip(xs, ys):
        total = total + x * y
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


def solve_linear(a, b, context="linear system"):
    """Gaussian elimination with partial pivoting; scalars may be duals."""
    n = len(a)
    m = [list(row) + [b[i]] for i, row in enumerate(a)]
    scale = max(max(magnitude(v) for v in row[:n]) for row in m)
    if scale == 0.0 or _eliminate(m, n, 1e-12 * scale) is None:
        raise EvaluationError(f"degenerate {context}")
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n]
        for j in range(i + 1, n):
            acc = acc - m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x


def mat_inverse(a, context="matrix"):
    n = len(a)
    cols = []
    for j in range(n):
        e = [1.0 if i == j else 0.0 for i in range(n)]
        cols.append(solve_linear(a, e, context))
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
    return _power_form(vec, mat, metric.signs, k)


def _power_form(vec, mat, signs, k):
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(vec)
    t = list(vec)
    for _ in range(k - 1):
        t = [sum_prod(mat[i], [signs[j] * t[j] for j in range(n)])
             for i in range(n)]
    total = 0.0
    for i in range(n):
        total = total + vec[i] * signs[i] * t[i]
    return total


def mixed_power_trace(u, v, metric: Metric, j: int, k: int):
    """Mixed trace tr((G U)^j (G V)^(k-j))."""
    if not 0 <= j <= k:
        raise ValueError("need 0 <= j <= k")
    if k < 1:
        raise ValueError("k must be at least 1")
    return _Sjk(_View(None, None, None, None), _given(0, u), _given(1, v),
                metric.signs, j, k)


# --------------------------------------------------------------------------
# jet views: plain evaluation, single-coordinate dual seeding, and
# all-coordinate (vector-mode) seeding on first-order jets


class _View:
    """Eager jet view: four tables laid out like a :class:`JetPoint`'s
    ``x``, ``u``, ``du`` and ``ddu`` (full symmetric matrices), read by
    index.  The plain view wraps the point's own tuples; the seeded view
    holds :class:`Dual` numbers and the gradient view :class:`Jet1` jets,
    built once (see :func:`gradient_view`) and shared by every member
    evaluated on it together with its ``cache``."""

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


def gradient_view(point, coords):
    """View whose reads are :class:`Jet1` jets seeded along every
    coordinate in ``coords``: a read of ``coords[k]`` carries the k-th unit
    vector, any other read one list of k zeros shared by all of them.  Read
    the gradient off a function's result with :func:`dual.derivs`."""
    n, m, k = point.n_base, point.n_fields, len(coords)
    # derivative lists shaped like the point's tables; each unit is filled
    # in before any jet is built from it
    zero = [0.0] * k
    sx, su = [zero] * n, [zero] * m
    sdu = [[zero] * n for _ in range(m)]
    sddu = [[[zero] * n for _ in range(n)] for _ in range(m)]
    for pos, c in enumerate(coords):
        row, at = ((sx, c.i) if c.kind == "base" else
                   (su, c.r - 1) if c.kind == "field" else
                   (sdu[c.r - 1], c.i) if c.kind == "d1" else
                   (sddu[c.r - 1][c.i], c.j))
        if row[at] is zero:
            row[at] = [0.0] * k
        row[at][pos] = 1.0
    return _View(
        [Jet1(v, d) for v, d in zip(point.x, sx)],
        [Jet1(v, d) for v, d in zip(point.u, su)],
        [[Jet1(v, d) for v, d in zip(*pair)] for pair in zip(point.du, sdu)],
        [_symmetric(n, lambda i, j: Jet1(h[i][j], d[i][j]))
         for h, d in zip(point.ddu, sddu)])


# --------------------------------------------------------------------------
# scalar jet functions


@dataclass(frozen=True)
class JetSpace:
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

    def eval(self, point: JetPoint):
        return value_of(self.fn(_plain_view(point)))

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
# A matrix source is a (key, build) pair: ``build(view)`` makes the matrix,
# cached on the view under ``key``, and its metric powers under
# ("tp",) + key.  The Hessians U_r and the covariant tensors theta_r and w_r
# share this one cache.


def _hess(view, r, idx):
    return [[view.ddu(r, i, j) for j in idx] for i in idx]


def _gvec(view, r, idx):
    return [view.du(r, i) for i in idx]


def _dot(a, b, signs=None):
    """a.G.b summed from 0.0 in index order, one product per term; with
    a metric's ``signs``, each term is signs[i] * a[i] * b[i]."""
    if signs is None:
        return sum_prod(a, b)
    total = 0.0
    for s, x, y in zip(signs, a, b):
        total = total + s * x * y
    return total


def _trace(view, r, idx, signs=None, acc=0.0):
    """acc + tr(G U_r) over ``idx``, one diagonal read per term in index
    order; unsigned when ``signs`` is None."""
    for i in idx:
        d = view.ddu(r, i, i)
        acc = acc + (d if signs is None else signs[i] * d)
    return acc


@functools.cache
def _hessian(r, idx):
    """Matrix source of the Hessian U_r over the index list ``idx``."""
    return ("U", r, idx), lambda view: _hess(view, r, idx)


def _given(pos, mat):
    """Matrix source of a matrix passed in, the ``pos``-th of its call."""
    return ("given", pos), lambda view: mat


def _tensor_cached(view, key, build):
    t = view.cache.get(key)
    if t is None:
        t = view.cache[key] = build(view)
    return t


def _tensor_power(view, key, build, signs, k):
    """k-th power of (G * matrix), cached per view."""
    plist = _tensor_cached(view, ("tp",) + key, lambda v: [
        g_premul(signs, _tensor_cached(v, key, build))])
    while len(plist) < k:
        plist.append(mat_mul(plist[-1], plist[0]))
    return plist[k - 1]


def _S(view, mat, signs, k):
    """Power trace S_k of the matrix source ``mat``, cached per view."""
    return _tensor_cached(view, ("S", mat[0], k), lambda v: mat_trace(
        _tensor_power(v, *mat, signs, k)))


def _Sjk(view, first, second, signs, j, k):
    """Mixed trace tr((G A)^j (G B)^(k-j)) of two sources, cached per view."""
    if j == 0:
        return _S(view, second, signs, k)
    if j == k:
        return _S(view, first, signs, k)
    return _tensor_cached(view, ("Sjk", first[0], second[0], j, k),
                          lambda v: trace_prod(
                              _tensor_power(v, *first, signs, j),
                              _tensor_power(v, *second, signs, k - j)))


def _R(view, vec, mat, signs, k):
    """Power form R_k of the vector ``vec`` and the matrix source ``mat``."""
    return _power_form(vec, _tensor_cached(view, *mat), signs, k)


def _power(base, expo):
    """Generic power: integer exponents stay algebraic, otherwise exp/log."""
    if isinstance(expo, int) or float(expo).is_integer():
        e = int(expo)
        if e >= 0:
            out = 1.0
            for _ in range(e):
                out = out * base
            return out
        out = 1.0
        inv = 1.0 / base
        for _ in range(-e):
            out = out * inv
        return out
    return dexp(expo * dlog(base))


# --------------------------------------------------------------------------
# covariant tensors


@dataclass(frozen=True)
class TensorBuilder:
    """Named covariant tensor: builds a vector or symmetric matrix from a
    jet point (metric-aware); components are scalar jet functions."""

    label: str
    kind: str  # "vector" | "matrix"
    size: int
    space: JetSpace
    deps: tuple
    builder: callable = dc_field(compare=False)

    def build(self, point: JetPoint):
        out = self.builder(_plain_view(point))
        if self.kind == "vector":
            return [value_of(v) for v in out]
        return [[value_of(v) for v in row] for row in out]

    def components(self):
        key = ("tensorc", self.label)

        def cached(view):
            return _tensor_cached(view, key, self.builder)

        fns = []
        if self.kind == "vector":
            for a in range(self.size):
                fns.append(ScalarJetFunction(
                    f"{self.label}[{a}]",
                    (lambda a: lambda view: cached(view)[a])(a),
                    self.deps, self.space))
        else:
            for a in range(self.size):
                for b in range(self.size):
                    fns.append(ScalarJetFunction(
                        f"{self.label}[{a}][{b}]",
                        (lambda a, b: lambda view: cached(view)[a][b])(a, b),
                        self.deps, self.space))
        return fns


# every covariant tensor, in the order ``invforge list tensors`` prints
TENSORS = ("theta", "w", "theta_minkowski", "w_minkowski",
           "theta_vector_minkowski", "eikonal_theta", "galilei_theta",
           "galilei_theta2", "galilei_h", "galilei_hhat_mu0", "implicit_theta",
           "hessian", "position")
# Euclidean tensors span x1..xn and Minkowski ones x0..xn under the
# Minkowski signs; the rest are Galilei tensors over the spatial indices
# 1..n of t, x1..xn
_EUCLIDEAN_TENSORS = ("theta", "w", "hessian", "position")
_MINKOWSKI_TENSORS = ("theta_minkowski", "w_minkowski",
                      "theta_vector_minkowski", "eikonal_theta")


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
        tr = _trace(view, r, idx, signs)
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


def covariant_tensor(name: str, n: int, lam: float = 1.0, mu: float = 1.0,
                     r: int = 1, m: int = 1) -> TensorBuilder:
    """Catalog of covariant tensors by name (see :data:`TENSORS`).

    Euclidean names use an n-dimensional space; Minkowski and Galilei names
    use n+1 base coordinates with index 0 timelike.
    """
    if name not in TENSORS:
        raise ValueError(f"unknown covariant tensor {name!r}")
    euclid, mink = name in _EUCLIDEAN_TENSORS, name in _MINKOWSKI_TENSORS
    nb = n if euclid else n + 1
    met = minkowski(nb) if mink else euclidean(n)
    idx = tuple(range(nb)) if euclid or mink else _spatial(n)
    signs = met.signs
    if name in ("theta", "theta_minkowski"):
        label = f"theta(lam={lam})" if euclid else f"theta_mink(lam={lam})"
        kind, kinds, build = ("matrix", ("field", "d1", "d2"),
                              _theta(r, idx, signs, lam))
    elif name in ("w", "w_minkowski"):
        label = "w" if euclid else "w_mink"
        kind, kinds = "matrix", ("d1", "d2")
        build = _w(r, idx, signs, 1.0 if euclid else 0.5)
    elif name == "eikonal_theta":
        label, kind, kinds = name, "matrix", ("d1", "d2")
        build = _eikonal_theta(r, idx, signs)
    elif name == "theta_vector_minkowski":
        label, kind, kinds = f"theta_vec(u{r})", "vector", ("field", "d1")

        def build(view):
            u_r, u_1 = view.u(r), view.u(1)
            return [view.du(r, i) / u_r - view.du(1, i) / u_1 for i in idx]
    elif name == "hessian":
        label, kind, kinds = name, "matrix", ("d2",)

        def build(view):
            return _hess(view, r, idx)
    elif name == "position":
        label, kind, kinds = "x", "vector", ("base",)

        def build(view):
            return [view.x(i) for i in idx]
    elif name == "galilei_theta":
        label, kind, kinds = name, "vector", ("d1", "d2")

        def build(view):
            return _boost_theta(mu, *_jets(view, r, idx))
    elif name == "galilei_theta2":
        label, kind, kinds = name, "matrix", ("d1", "d2")

        def build(view):
            du = _gvec(view, r, idx)
            scal = sum_prod(du, du) + mu * view.du(r, 0)
            return [[view.ddu(r, a, b) - 2.0 * scal / n if a == b
                     else view.ddu(r, a, b) for b in idx] for a in idx]
    elif name == "galilei_h":
        label, kind, kinds = name, "vector", ("base", "d1")

        def build(view):
            t = view.x(0)
            return [mu * view.x(a) - t * view.du(r, a) for a in idx]
    elif name == "galilei_hhat_mu0":
        label, kind, kinds = "galilei_hhat", "vector", ("base", "d1", "d2")

        def build(view):
            t = view.x(0)
            xs = [view.x(a) for a in idx]
            du = _gvec(view, r, idx)
            phit = view.du(r, 0)
            xdotdu = sum_prod(xs, du)
            out = []
            for ai, a in enumerate(idx):
                h = sum_prod(xs, [view.ddu(r, a, b) for b in idx]) \
                    + t * view.ddu(r, a, 0)
                out.append(h / t + 2.0 * t * du[ai] * phit / n
                           + 4.0 * xdotdu * du[ai] / (n * t))
            return out
    else:  # implicit_theta: theta solving U theta = d/dt du
        label, kind, kinds = name, "vector", ("d2",)

        def build(view):
            return _implicit_theta(view, r, idx)
    space = JetSpace(nb, m, REAL, met,
                     positive_fields=name.startswith("theta"))
    return TensorBuilder(label, kind, len(idx), space,
                         _dep_coords(nb, m, kinds), build)


# --------------------------------------------------------------------------
# functional bases


@dataclass(frozen=True)
class BasisFamily:
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
    """Functional basis (or printed generating set) for the algebra."""
    if hat_variant not in ("printed", "uniform"):
        raise ValueError("hat_variant must be 'printed' or 'uniform'")
    name = spec.name
    if name == "AO":
        return _basis_rotation(spec)
    if name == "AE":
        return _basis_euclid(spec)
    if name == "AE1":
        return _basis_extended_euclid(spec)
    if name == "AC":
        return _basis_conformal(spec)
    if name == "AP":
        return _basis_poincare(spec)
    if name == "APtilde":
        return _basis_extended_poincare(spec)
    if name == "AC1n":
        return _basis_conformal_minkowski(spec)
    if name in ("AG_I", "AG1_I", "AG2_I"):
        if spec.rep != "log":
            raise ValueError("Galilei bases act on log-substituted jets; "
                             "use rep='log'")
        return _basis_galilei_real(spec, hat_variant)
    if name in ("AG_II", "AG1_II", "AG2_II"):
        if spec.rep != "log":
            raise ValueError("Galilei bases act on log-substituted jets; "
                             "use rep='log'")
        if spec.mass != 0:
            return _basis_galilei_complex(spec, hat_variant)
        if name != "AG2_II":
            raise ValueError(f"no printed massless basis for {name}")
        return _basis_galilei_complex_mass0(spec)
    raise ValueError(f"no basis catalog for algebra {name!r}")


# catalog tables --------------------------------------------------------------
# The Euclid, Poincare and conformal families are lists of (member label,
# exprlang text) rows, bound by the compiler behind ``exprlang.bind``, so
# any member's text also checks as ``verify --expr``.  ``S(k; A)``,
# ``Sjk(j, k; A, B)`` and ``R(k; v, A)`` are the power traces, mixed
# traces and power forms of the Hessian U_r (selector ``r``) or of the
# tensors ``theta<r>`` and ``w<r>``, against the gradient du_r (``r``), the
# position ``x`` or ``thvec<r>`` = du_r/u_r - du_1/u_1.

# algebras whose bases take fractional powers of u or divide by it: their
# members, and ``verify --expr`` under them, sample positive field values
POSITIVE_FIELD_ALGEBRAS = ("AE1", "AC", "APtilde", "AC1n")
_ROTATION_KINDS = ("base", "field", "d1", "d2")
# (label, text) of the scale a dilation weight is carried by
_U, _U1, _TR = ("u", "u1"), ("u1", "u1"), ("tr", "S(1)")
_GSQ = ("(du.du)", "contract(du1, du1)")


def _scaled(label, text, op, expo, scale=_U1):
    """Row ``label op scale^expo``.  The label prints the exponent with
    :g, the text with repr, which parses back to the same float."""
    return (f"{label}{op}{scale[0]}^{expo:g}",
            f"{text} {op} {scale[1]} ^ {expo!r}")


@functools.cache
def _row_ast(text):
    """Parsed row text, memoized for basis() and catalog() calls."""
    from . import exprlang
    return exprlang.parse(text)


def _bind_rows(spec, label, rows, kinds=("field", "d1", "d2"),
               expected=None):
    """Family of the (member label, text) ``rows`` over the jet space of
    ``spec``.  A member that is a single jet coordinate depends on it
    alone, every other member on the ``kinds`` coordinates."""
    from . import exprlang
    nb, m = spec.n_base, spec.m
    _, (metric, kind, time_mode) = algebra_space(spec)
    space = JetSpace(nb, m, kind, metric or euclidean(nb),
                     positive_fields=spec.name in POSITIVE_FIELD_ALGEBRAS)
    deps = _dep_coords(nb, m, kinds)
    compile_ = exprlang.compiler(nb, m, metric, kind, time_mode, lam=spec.lam)
    members = []
    for mlabel, text in rows:
        ast = _row_ast(text)
        fn, used = compile_(ast)
        members.append(ScalarJetFunction(
            mlabel, fn, tuple(used) if isinstance(ast, exprlang.Sym)
            else deps, space))
    return BasisFamily(label, spec, tuple(members),
                       len(members) if expected is None else expected,
                       space, deps)


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


def _basis_euclid(spec):
    n, m = spec.n, spec.m
    return _bind_rows(spec, f"euclid n={n} m={m}", _euclid_rows(n, m),
                      expected=2 * m * n + m + (m - 1) * n * (n - 1) // 2)


def _basis_rotation(spec):
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


def _basis_extended_euclid(spec):
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


def _basis_conformal(spec):
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


def _basis_conformal_minkowski(spec):
    n, m, lam = spec.n, spec.m, spec.lam
    return _bind_rows(spec, f"conformal-minkowski n={n} m={m} lam={lam:g}",
                      _conformal_rows(m, lam, n + 1, True))


def _basis_poincare(spec):
    n, m = spec.n, spec.m
    ks, rs = range(1, n + 2), range(1, m + 1)
    rows = (_fields(m) + [(f"S{k}(U1)", f"S({k})") for k in ks]
            + [(f"S{j},{k}(U{r},U1)", f"Sjk({j}, {k}; {r}, 1)")
               for r in rs[1:] for k in ks for j in range(1, k + 1)]
            + [(f"R{k}(du{r},U1)", f"R({k}; {r}, 1)") for r in rs for k in ks])
    return _bind_rows(spec, f"poincare n={n} m={m}", rows,
                      expected=m * (2 * n + 3) + (m - 1) * n * (n + 1) // 2)


def _basis_extended_poincare(spec):
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
# Each quantity of field r is written once, as a kernel below.  The boost
# kernels take the constants their callers compute: two_c = 2c and c2 = c^2
# with c = mu for the real families and c = sgn*i*mass for field r of the
# complex pair (sgn = +1 for psi, -1 for psi*); the boost theta takes its
# time coefficient as printed, mu or -sgn*i*mass.


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


def _m1(two_c, ut, du):
    """M1 = 2c u_t + du.du."""
    return two_c * ut + sum_prod(du, du)


def _m2(c2, two_c, utt, du, dut, hess):
    """M2 = c^2 u_tt + 2c du.du_t + du.U.du."""
    return _quad(c2 * utt + two_c * sum_prod(du, dut), du, hess)


def _n2(c2, two_c, utt, ut, tr, n, du, dut, hess):
    """N2 = c^2 u_tt + 2c (u_t tr/n + du.du_t) + du.U.du + du.du tr/n
    + tr^2/n, with tr the trace of U."""
    acc = c2 * utt + two_c * (ut * tr / n + sum_prod(du, dut))
    return _quad(acc, du, hess) + sum_prod(du, du) * tr / n + tr * tr / n


def _boost_theta(c, du, dut, hess):
    """Boost theta_a = c u_{at} + (U du)_a."""
    return [c * dut[a] + sum_prod(du, hess[a]) for a in range(len(du))]


def _implicit_theta(view, r, sp):
    """The mu = 0 theta, solving U theta = du_t; cached per view."""
    return _tensor_cached(view, ("implicit_theta", r), lambda v: solve_linear(
        _hess_of(v, r, sp), _gvec_t(v, r, sp), "Hessian"))


def _lead0(view, r, sp):
    """The mu = 0 M1: u_t - du.theta."""
    return view.du(r, 0) - sum_prod(_gvec(view, r, sp),
                                    _implicit_theta(view, r, sp))


def _sec0(view, r, sp):
    """The mu = 0 M2: u_tt - du_t.theta."""
    return view.ddu(r, 0, 0) - sum_prod(_gvec_t(view, r, sp),
                                        _implicit_theta(view, r, sp))


def _rinv(view, r, sp):
    """U^-1, cached per view."""
    return _tensor_cached(view, ("rinv", r), lambda v: mat_inverse(
        _hess_of(v, r, sp), "Hessian"))


def _quad_inv(view, r, sp):
    """du.U^-1.du."""
    return _quad(0.0, _gvec(view, r, sp), _rinv(view, r, sp))


def _leader0(view, r, sp, lam):
    """The mu = 0 / mass = 0 leader lead^2 + sec (lam + du.U^-1.du)."""
    return _power(_lead0(view, r, sp), 2) \
        + _sec0(view, r, sp) * (lam + _quad_inv(view, r, sp))


def _rhat(r_l, tr, n, k, uniform):
    """Hatted sum of C(k, l) (-n)^l R_l tr^e over l = 1..k (R_0 taken as
    zero), with e = k - l (uniform) or k - 1 (as printed)."""
    acc = 0.0
    for l in range(1, k + 1):
        acc = acc + (r_l(l) * _power(tr, k - l if uniform else k - 1)
                     * ((-n) ** l) * math.comb(k, l))
    return acc


def _over(num, den, e):
    """Member num / den^e."""
    return lambda v: num(v) / _power(den(v), e)


def _basis_galilei_real(spec, hat_variant):
    n, mu, lam = spec.n, spec.mu, spec.lam
    sp, ks, signs = _spatial(n), range(1, n + 1), euclidean(n).signs
    space = JetSpace(n + 1, 1, REAL, euclidean(n))
    deps = _dep_coords(n + 1, 1, ("d1", "d2"))
    member = functools.partial(ScalarJetFunction, deps=deps, space=space)
    hess = _hessian(1, sp)
    two_c, c2 = 2.0 * mu, mu * mu

    if mu != 0:
        def m1(v):
            return _m1(two_c, v.du(1, 0), _gvec(v, 1, sp))

        def m2(v):
            return _m2(c2, two_c, v.ddu(1, 0, 0), *_jets(v, 1, sp))

        def vec(v):
            return _boost_theta(mu, *_jets(v, 1, sp))
    else:
        def m1(v):
            return _lead0(v, 1, sp)

        def m2(v):
            return _sec0(v, 1, sp)

        def vec(v):
            return _gvec(v, 1, sp)

    def r_k(v, k):
        return _R(v, vec(v), hess, signs, k)

    def s_k(v, k):
        return _S(v, hess, signs, k)

    rs = [functools.partial(r_k, k=k) for k in ks]
    ss = [functools.partial(s_k, k=k) for k in ks]
    if spec.name == "AG_I":
        members = ([member("M1", m1), member("M2", m2)]
                   + [member(f"R{k}", f) for k, f in zip(ks, rs)]
                   + [member(f"S{k}", f) for k, f in zip(ks, ss)])
        return BasisFamily(f"galilei n={n} mu={mu:g}", spec, tuple(members),
                           2 * n + 2, space, deps)

    if spec.name == "AG1_I":
        # R_k of the boost theta carries M1^2 more than R_k of du (mu = 0)
        e = 2 if mu != 0 else 0
        members = [member("M2/M1^2", _over(m2, m1, 2)) if mu != 0
                   else member("M1^2/M2", lambda v: _power(m1(v), 2) / m2(v))]
        members += [member(f"R{k}/M1^{k + e}", _over(f, m1, k + e))
                    for k, f in zip(ks, rs)]
        members += [member(f"S{k}/M1^{k}", _over(f, m1, k))
                    for k, f in zip(ks, ss)]
        return BasisFamily(f"galilei-dilation n={n} mu={mu:g}", spec,
                           tuple(members), 2 * n + 1, space, deps)

    if mu == 0:
        def big_m(v):
            return _leader0(v, 1, sp, lam)

        members = ([member(f"R{k}/M^{k}/2", _over(f, big_m, k / 2.0))
                    for k, f in zip(ks, rs)]
                   + [member(f"S{k}/M^{k}/2", _over(f, big_m, k / 2.0))
                      for k, f in zip(ks, ss)])
        return BasisFamily(f"galilei-projective n={n} mu=0 lam={lam:g}",
                           spec, tuple(members), 2 * n, space, deps)

    # AG2_I: projective combinations built from the hatted sums
    def tr_h(v):
        return _S(v, hess, signs, 1)

    def n1(v):
        return m1(v) + tr_h(v)

    def n2(v):
        return _n2(c2, two_c, v.ddu(1, 0, 0), v.du(1, 0), tr_h(v), n,
                   *_jets(v, 1, sp))

    def r_hat(v, k):
        return _rhat(lambda l: r_k(v, l), tr_h(v), n, k,
                     hat_variant == "uniform")

    def s_hat(v, k):
        tr = tr_h(v)
        acc = 0.0
        for l in range(0, k + 1):
            s_l = float(n) if l == 0 else s_k(v, l)
            coef = ((-n) ** l) * math.factorial(k - 1) * (k + 1) \
                / (math.factorial(l + 1) * math.factorial(k - l))
            acc = acc + coef * s_l * _power(tr, k - l)
        return acc

    members = [member("N2/N1^2", _over(n2, n1, 2))]
    members += [member(f"Rhat{k}/N1^{k + 2}",
                       _over(functools.partial(r_hat, k=k), n1, k + 2))
                for k in ks]
    members += [member(f"Shat{k}/N1^{k}",
                       _over(functools.partial(s_hat, k=k), n1, k))
                for k in range(2, n + 1)]
    return BasisFamily(f"galilei-projective n={n} mu={mu:g} [{hat_variant}]",
                       spec, tuple(members), 2 * n, space, deps,
                       notes="hatted sums implemented as printed; see "
                             "per-member verdicts")


def galilei_mu0_determinant_family(n: int) -> BasisFamily:
    """Variant of the mu=0 family with bordered-determinant leaders."""
    spec = AlgebraSpec("AG_I", n, mu=0.0, rep="log")
    fam = _basis_galilei_real(spec, "printed")
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


def _complex_pair(n):
    """Space, family deps, and member makers over the jets alone and over
    the phases too, of the complex Galilei families."""
    space = JetSpace(n + 1, 2, COMPLEX, euclidean(n))
    deps_all = _dep_coords(n + 1, 2, ("field", "d1", "d2"))
    jet = functools.partial(ScalarJetFunction, space=space,
                            deps=_dep_coords(n + 1, 2, ("d1", "d2")))
    phase = functools.partial(ScalarJetFunction, deps=deps_all, space=space)
    return space, deps_all, jet, phase


def _phases(v):
    return v.u(1) + v.u(2)


def _basis_galilei_complex(spec, hat_variant):
    n, mass = spec.n, spec.mass
    sp, ks, signs = _spatial(n), range(1, n + 1), euclidean(n).signs
    space, deps_all, jet, phase = _complex_pair(n)
    im = 1j * mass
    # field 1 is psi (sgn = +1), field 2 psi* (sgn = -1)
    two_c = {r: 2.0 * sgn * im for r, sgn in ((1, 1.0), (2, -1.0))}
    theta_c = {r: -sgn * im for r, sgn in ((1, 1.0), (2, -1.0))}
    c2 = -mass * mass

    def m1(v, r):
        return _m1(two_c[r], v.du(r, 0), _gvec(v, r, sp))

    def m2(v, r):
        return _m2(c2, two_c[r], v.ddu(r, 0, 0), *_jets(v, r, sp))

    def r_k(v, w, k):
        # R^1 and R^2 take the boost theta of psi and psi*, R^3 du1 + du2;
        # every form is against U1
        vec = (_boost_theta(theta_c[w], *_jets(v, w, sp)) if w < 3
               else [v.du(1, a) + v.du(2, a) for a in sp])
        return _R(v, vec, _hessian(1, sp), signs, k)

    def s_jk(v, j, k):
        return _Sjk(v, _hessian(1, sp), _hessian(2, sp), signs, j, k)

    sjk_range = [(j, k) for k in ks for j in range(0, k + 1)]
    rs = {w: [functools.partial(r_k, w=w, k=k) for k in ks] for w in (1, 2, 3)}
    sjks = [functools.partial(s_jk, j=j, k=k) for j, k in sjk_range]

    if spec.name == "AG_II":
        members = [phase("phi+phi*", _phases),
                   jet("M1", lambda v: m1(v, 1)), jet("M1*", lambda v: m1(v, 2)),
                   jet("M2", lambda v: m2(v, 1)), jet("M2*", lambda v: m2(v, 2))]
        members += [jet(f"S{j},{k}", f) for (j, k), f in zip(sjk_range, sjks)]
        members += [jet(f"R{k}^{w}", f)
                    for w in (1, 2, 3) for k, f in zip(ks, rs[w])]
        return BasisFamily(f"schroedinger-galilei n={n} mass={mass:g}", spec,
                           tuple(members), 5 + len(sjk_range) + 3 * n,
                           space, deps_all)

    # R^1 and R^2 carry M1^2 (N1^2) more than R^3 and the traces
    weight = {1: 2, 2: 2, 3: 0}
    if spec.name == "AG1_II":
        lam = spec.lam

        def m1_1(v):
            return m1(v, 1)

        members = [
            jet("M1*/M1", lambda v: m1(v, 2) / m1(v, 1)),
            jet("M2/M1^2", lambda v: m2(v, 1) / _power(m1(v, 1), 2)),
            jet("M2*/M1^2", lambda v: m2(v, 2) / _power(m1(v, 1), 2)),
        ]
        members += [jet(f"R{k}^{w}/M1^{k + weight[w]}",
                        _over(f, m1_1, k + weight[w]))
                    for w in (1, 2, 3) for k, f in zip(ks, rs[w])]
        members += [jet(f"S{j},{k}/M1^{k}", _over(f, m1_1, k))
                    for (j, k), f in zip(sjk_range, sjks)]
        members.append(phase("phi+phi*", _phases) if lam == 0 else phase(
            f"M1*e^(2/{lam:g})(phi+phi*)",
            lambda v: m1(v, 1) * dexp((2.0 / lam) * _phases(v))))
        return BasisFamily(
            f"schroedinger-galilei-dilation n={n} mass={mass:g} lam={lam:g}",
            spec, tuple(members), 4 + 3 * n + len(sjk_range), space, deps_all)

    # AG2_II, mass != 0, lam = -n/2
    def tr_h(v, r):
        return _S(v, _hessian(r, sp), signs, 1)

    def n1(v, r):
        # tr before du.du, unlike M1 + tr
        du = _gvec(v, r, sp)
        return two_c[r] * v.du(r, 0) + tr_h(v, r) + sum_prod(du, du)

    def n2(v, r):
        return _n2(c2, two_c[r], v.ddu(r, 0, 0), v.du(r, 0), tr_h(v, r), n,
                   *_jets(v, r, sp))

    def s_rl(v, r, l):
        if r > l:
            return 0.0
        if l == 0:
            return float(n)
        return s_jk(v, r, l)

    def s_hat_jk(v, j, k):
        tr1 = tr_h(v, 1)
        tr2 = tr_h(v, 2)
        acc = 0.0
        for l in range(0, k + 1):
            for r in range(0, j + 1):
                binom = math.comb(k, l + 1 - r) if 0 <= l + 1 - r <= k else 0
                if binom == 0:
                    continue
                term = s_rl(v, r, l)
                if isinstance(term, float) and term == 0.0:
                    continue
                acc = acc + (term * ((-n) ** l) * math.comb(j, r) * binom
                             * _power(tr1, j - r) * _power(tr2, k - l - j + r))
        acc = acc + k * _power(tr1, j) * _power(tr2, k - j - 1)
        return acc

    def r_hat(v, w, k):
        # the complex sums take the uniform exponent under either variant
        return _rhat(lambda l: r_k(v, w, l), tr_h(v, 1), n, k, True)

    def n1_1(v):
        return n1(v, 1)

    members = [
        phase(f"N1*e^(-4/{n})(phi+phi*)",
              lambda v: n1(v, 1) * dexp((-4.0 / n) * _phases(v))),
        jet("N1/N1*", lambda v: n1(v, 1) / n1(v, 2)),
        jet("N2/N1*", lambda v: n2(v, 1) / n1(v, 2)),
        jet("N2*/N1*", lambda v: n2(v, 2) / n1(v, 2)),
    ]
    members += [jet(f"Rhat{k}^{w}/N1^{k + weight[w]}",
                    _over(functools.partial(r_hat, w=w, k=k), n1_1,
                          k + weight[w]))
                for w in (1, 2, 3) for k in ks]
    members += [jet(f"Shat{j},{k}/N1^{k}",
                    _over(functools.partial(s_hat_jk, j=j, k=k), n1_1, k))
                for j, k in sjk_range]
    return BasisFamily(
        f"schroedinger-galilei-projective n={n} mass={mass:g} [{hat_variant}]",
        spec, tuple(members), 4 + 3 * n + len(sjk_range), space, deps_all,
        notes="hatted sums implemented as printed; see per-member verdicts")


def _basis_galilei_complex_mass0(spec):
    n, lam = spec.n, spec.lam
    sp, ks, signs = _spatial(n), range(1, n + 1), euclidean(n).signs
    space, deps_all, jet, phase = _complex_pair(n)

    def n1(v, r):
        return _leader0(v, r, sp, lam)

    def n2(v):
        return _lead0(v, 1, sp) * _quad_inv(v, 2, sp) \
            - _lead0(v, 2, sp) * _quad_inv(v, 1, sp)

    def n3(v):
        du1 = _gvec(v, 1, sp)
        a = [[lam * v.ddu(1, sp[ai], sp[bi]) + du1[ai] * du1[bi]
              for bi in range(n)] for ai in range(n)]
        rhs = [du1[bi] * v.du(1, 0) + lam * v.ddu(1, sp[bi], 0)
               for bi in range(n)]
        tau = solve_linear([[a[ai][bi] for ai in range(n)] for bi in range(n)],
                           rhs, "tau system")
        diff = [v.du(1, x) - v.du(2, x) for x in sp]
        return (v.du(1, 0) - v.du(2, 0)) - sum_prod(tau, diff)

    def vec4(v, dth):
        # the vector of R^4, from dth = theta1 - theta2
        du1, du2 = _gvec(v, 1, sp), _gvec(v, 2, sp)
        r1m, r2m = _rinv(v, 1, sp), _rinv(v, 2, sp)
        u1, lead = _hess_of(v, 1, sp), _lead0(v, 1, sp)
        out = []
        for a in range(n):
            mixed = sum_prod(r1m[a], du2) - sum_prod(r2m[a], du1)
            coupling = 0.0
            for b in range(n):
                for d in range(n):
                    coupling = coupling + du1[b] * u1[a][d] * r1m[b][d]
            out.append(lead * mixed - coupling * dth[a])
        return out

    def r_sq(v, which, k):
        if which in (1, 2):
            vec = _gvec(v, which, sp)
        else:
            th1, th2 = _implicit_theta(v, 1, sp), _implicit_theta(v, 2, sp)
            vec = [th1[a] - th2[a] for a in range(n)]
            if which == 4:
                vec = vec4(v, vec)
        return _power(_R(v, vec, _hessian(1, sp), signs, k), 2)

    def s_sq(v, j, k):
        s_jk = _Sjk(v, _hessian(1, sp), _hessian(2, sp), signs, j, k)
        return _power(s_jk, 2)

    def n1_1(v):
        return n1(v, 1)

    s_members = [jet(f"S{j},{k}^2/N1^{k}",
                     _over(functools.partial(s_sq, j=j, k=k), n1_1, k))
                 for k in ks for j in range(0, k + 1)]
    if lam == 0:
        members = [
            phase("phi+phi*", _phases),
            jet("N1^2/N2^2", lambda v: _power(n1(v, 1), 2) / _power(n2(v), 2)),
            jet("N1*^2/N2", lambda v: _power(n1(v, 2), 2) / n2(v)),
        ] + s_members
        members += [jet(f"R{k}^{w}^2*N1^{-k - 1}",
                        lambda v, w=w, k=k: r_sq(v, w, k)
                        * _power(n1(v, 1), -k - 1))
                    for w in (1, 2, 4) for k in ks]
    else:
        members = [
            phase(f"N1*e^(4/{lam:g})(phi+phi*)",
                  lambda v: n1(v, 1) * dexp((4.0 / lam) * _phases(v))),
            jet("N1*/N1", lambda v: n1(v, 2) / n1(v, 1)),
            phase(f"N3*e^(3/{lam:g})(phi+phi*)",
                  lambda v: n3(v) * dexp((3.0 / lam) * _phases(v))),
        ]
        members += [jet(f"R{k}^{w}^2/N1^{k}",
                        _over(functools.partial(r_sq, which=w, k=k), n1_1, k))
                    for w in (1, 2, 3) for k in ks]
        members += s_members
    return BasisFamily(
        f"schroedinger-galilei-projective n={n} mass=0 lam={lam:g}", spec,
        tuple(members), len(members), space, deps_all,
        notes="implemented as printed; see per-member verdicts")


# --------------------------------------------------------------------------
# example equation residuals
# Each residual is a closure over field 1 of a view; the Galilei ones read
# the spatial indices 1..n of t, x1..xn unsigned, the Minkowski ones every
# index of x0..xn under the Minkowski signs.


def _galilei_residual(label, n, pair, fn):
    """Residual ``fn`` of field 1 over t, x1..xn: a real field, or psi of
    the complex pair (psi, psi*)."""
    nb = n + 1
    m, kind = (2, COMPLEX) if pair else (1, REAL)
    return ScalarJetFunction(label, fn,
                             _dep_coords(nb, m, ("d1", "d2"), rs=(1,)),
                             JetSpace(nb, m, kind, euclidean(n)))


def _evolution(n, pair=False, mu=1.0, mass=1.0, **_):
    """2c u_t + tr U: the heat flow, c = mu, or on the complex pair the
    free Schrodinger equation, c = i mass."""
    sp = _spatial(n)
    c = 2.0j * mass if pair else 2.0 * mu
    return _galilei_residual(
        f"schrodinger(mass={mass:g})" if pair else f"heat(mu={mu:g})", n,
        pair, lambda v: _trace(v, 1, sp, acc=c * v.du(1, 0)))


def _projective(n, pair=False, mu=1.0, mass=1.0, f_const=0.75, **_):
    """N2 - c^2 N1^2 f with N1 = M1 + tr U and c = mu; on the complex pair
    (c = i mass) N2 - N1^2 f, as printed."""
    sp = _spatial(n)
    if pair:
        c2, two_c = -mass * mass, 2.0 * (1j * mass)
        label = f"schrodinger-projective(mass={mass:g})"
    else:
        c2, two_c = mu * mu, 2.0 * mu
        label = f"galilei-projective(mu={mu:g})"

    def fn(v):
        jets = _jets(v, 1, sp)
        ut, tr = v.du(1, 0), mat_trace(jets[2])
        lhs = _n2(c2, two_c, v.ddu(1, 0, 0), ut, tr, n, *jets)
        sq = _power(_m1(two_c, ut, jets[0]) + tr, 2)
        return lhs - (sq if pair else c2 * sq) * f_const

    return _galilei_residual(label, n, pair, fn)


def _minkowski_space(n, kinds=("d1", "d2"), positive=False):
    """Indices, signs, dependencies and space of a residual in field 1
    over x0..xn."""
    nb = n + 1
    met = minkowski(nb)
    return (tuple(range(nb)), met.signs, _dep_coords(nb, 1, kinds),
            JetSpace(nb, 1, REAL, met, positive_fields=positive))


def _eikonal(n, **_):
    idx, signs, deps, space = _minkowski_space(n, ("d1",))

    def fn(v):
        du = _gvec(v, 1, idx)
        return _dot(du, du, signs)

    return ScalarJetFunction("eikonal", fn, deps, space)


def _eikonal_trace(n, k=1, **_):
    if k < 1:
        raise ValueError("k must be at least 1")
    _, signs, deps, space = _minkowski_space(n)
    theta = covariant_tensor("eikonal_theta", n).builder

    def fn(v):
        return mat_trace(_tensor_power(v, ("eik",), theta, signs, k))

    return ScalarJetFunction(f"eikonal-trace(k={k})", fn, deps, space)


def _quasilinear(label, n, combine, kinds=("d1", "d2"), positive=False):
    """Residual ``combine(v, sq, tr, form)`` of sq = du.G.du, tr = tr(G U)
    and form = du.G.U.G.du of field 1 over x0..xn."""
    idx, signs, deps, space = _minkowski_space(n, kinds, positive)

    def fn(v):
        du, hess = _gvec(v, 1, idx), _hess_of(v, 1, idx)
        form = 0.0
        for i in idx:
            for j in idx:
                form = form + signs[i] * signs[j] * du[i] * du[j] \
                    * hess[i][j]
        return combine(v, _dot(du, du, signs),
                       sum_prod(signs, [hess[i][i] for i in idx]), form)

    return ScalarJetFunction(label, fn, deps, space)


def _born_infeld(n, **_):
    return _quasilinear("born-infeld", n,
                        lambda v, sq, tr, form: (1.0 - sq) * tr + form)


def _eikonal_quasilinear(n, **_):
    return _quasilinear("eikonal-quasilinear", n,
                        lambda v, sq, tr, form: form - sq * tr)


def _conformal_power(n, f_coeffs=(1.0, 0.5), **_):
    def combine(v, sq, tr, form):
        fu = 0.0
        for c in reversed(f_coeffs):
            fu = fu * v.u(1) + c
        return sq * tr / (1.0 - n) - form - _power(sq, 2) * fu

    return _quasilinear("conformal-power", n, combine,
                        ("field", "d1", "d2"), positive=True)


@dataclass(frozen=True)
class EquationInfo:
    """An example equation: the maker of its residual, the algebra it is
    checked under (its name, fixed spec parameters and the call
    parameters passed on to the spec), the coordinate Newton solves for
    (None: the one with the largest derivative) and a note."""

    name: str
    residual: callable = dc_field(compare=False)
    algebra: str
    spec: dict
    reads: tuple
    solve_for: object
    note: str

    def build(self, n, **params):
        """The residual in n spatial dimensions; its maker reads the
        ``params`` it takes (mu, mass, k, ...) and ignores the rest.  The
        equations an _II algebra checks are on the complex pair."""
        return self.residual(n, pair=self.algebra.endswith("_II"), **params)

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


def equation_residual(name: str, point: JetPoint, **params):
    """Residual value of the named equation at a jet point."""
    n = params.pop("n", point.n_base - 1)
    return equation_function(name, n, **params).eval(point)


def covariant_tensor_components(name: str, point: JetPoint, **params):
    """Numeric components of the named covariant tensor at a jet point."""
    n = params.pop("n", None)
    if n is None:
        # a Minkowski or Galilei tensor reads the point's x0 as the time
        n = point.n_base if name in _EUCLIDEAN_TENSORS else point.n_base - 1
    return covariant_tensor(name, n, **params).build(point)
