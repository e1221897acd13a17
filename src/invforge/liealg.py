"""Vector fields on (x, u)-space, their second prolongations, and the
catalog of point-symmetry algebras handled by this package.  Every
algebra but AP_inf is written as text rows (label, xi texts, eta texts),
:func:`generator_rows`, that ``exprlang`` compiles; AP_inf's generators
close over sampled polynomials of u.

A :class:`VectorField` holds coefficient evaluators xi^i(x, u) and
eta^r(x, u); :func:`prolong2` extends it to all second-order jet
coordinates.  Second derivatives live on unordered index pairs, and the
published coefficient of an off-diagonal pair is the sum eta_ij + eta_ji;
the directional derivative (:func:`apply_operator`) therefore weighs
off-diagonal pair coefficients by 1/2 against stored-slot gradients.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from .dual import EvaluationError, is_finite, value_grad_hess
from .jetspace import (
    COMPLEX,
    REAL,
    FieldKind,
    JetPoint,
    _signed,
    base_coord,
    d1_coord,
    d2_coord,
    field_coord,
    minkowski,
    sample_generic,
)

RANK_PIVOT_RTOL = 1e-8


class VectorField:
    """Infinitesimal generator xi^i(x,u) d/dx_i + eta^r(x,u) d/du^r.

    ``xi`` and ``eta`` are sequences of callables ``f(xs, us) -> scalar``
    that must evaluate on dual numbers, which supplies exact first and
    second partial derivatives.
    """

    __slots__ = ("n_base", "n_fields", "xi", "eta", "label")

    def __init__(self, n_base, n_fields, xi, eta, label):
        if len(xi) != n_base or len(eta) != n_fields:
            raise ValueError("coefficient count does not match dimensions")
        self.n_base = n_base
        self.n_fields = n_fields
        self.xi = tuple(xi)
        self.eta = tuple(eta)
        self.label = label

    def __repr__(self):
        return f"VectorField({self.label})"


# (point, {function: jets there}) of the last point a flow row was built
# at, replaced whole by the next point
_LAST = (None, {})


def _jets(fn, point):
    """(value, [D_i g], [[D_j D_i g]]) of a coefficient g = ``fn`` at a
    point, built once per point for all operators.  The point is matched by
    identity, never by equality, which would merge -0.0 and 0.0."""
    global _LAST
    if _LAST[0] is not point:
        _LAST = point, {}
    memo = _LAST[1]
    jets = memo.get(fn)
    if jets is not None:
        return jets
    n, m, du, ddu = point.n_base, point.n_fields, point.du, point.ddu
    val, grad, hess = value_grad_hess(
        lambda args: fn(args[:n], args[n:]), [*point.x, *point.u])

    def total_d(i):
        # D_i g = g_x_i + sum_s u^s_i g_u^s  for g = g(x, u)
        out = grad[i]
        for s in range(m):
            out = out + du[s][i] * grad[n + s]
        return out

    def total_dd(i, j):
        # D_j D_i g for g = g(x, u)
        out = hess[i][j]
        for s in range(m):
            out = out + du[s][j] * hess[i][n + s]
            out = out + du[s][i] * hess[j][n + s]
            out = out + ddu[s][i][j] * grad[n + s]
            for t in range(m):
                out = out + du[s][i] * du[t][j] * hess[n + s][n + t]
        return out

    jets = memo[fn] = val, [total_d(i) for i in range(n)], \
        [[total_dd(i, j) for j in range(n)] for i in range(n)]
    return jets


class ProlongedOperator:
    """Second prolongation of a vector field, evaluable at any jet point.

    One row is built per point: the flow table, the actual derivative of
    each stored coordinate along the prolonged flow (eta_ij for an
    off-diagonal pair, half the published sum), in the order x_i; per field
    u_r and its d1 row; per field the d2 upper triangle, from coefficient
    jets that all operators share per point (:func:`_jets`).  The published
    :meth:`coefficient_table` follows the unordered-pair convention, eta_ij
    + eta_ji for d2(r, i, j) with i != j, and is the flow table with those
    entries doubled, which is exact.  Either table is a dict in row order,
    or with ``at`` (:func:`flow_positions`) the list of those entries.
    """

    __slots__ = ("source", "label")

    def __init__(self, source: VectorField):
        self.source = source
        self.label = source.label

    def __repr__(self):
        return f"ProlongedOperator({self.label})"

    def _flow(self, point: JetPoint) -> list:
        """Flow row at a point."""
        src = self.source
        n, m = src.n_base, src.n_fields
        if point.n_base != n or point.n_fields != m:
            raise ValueError("jet point does not match the operator's space")
        du, ddu = point.du, point.ddu
        xi, d_xi, dd_xi = zip(*[_jets(f, point) for f in src.xi])
        eta, d_eta, dd_eta = zip(*[_jets(f, point) for f in src.eta])
        row = list(xi)
        for r in range(m):
            row.append(eta[r])
            for i in range(n):
                val = d_eta[r][i]
                for k in range(n):
                    val = val - du[r][k] * d_xi[k][i]
                row.append(val)

        def eta2(r, i, j):
            # eta_ij = D_j D_i eta - u_kj D_i xi^k - u_k D_j D_i xi^k
            #          - u_ik D_j xi^k
            val = dd_eta[r][i][j]
            for k in range(n):
                val = val - ddu[r][k][j] * d_xi[k][i]
                val = val - du[r][k] * dd_xi[k][i][j]
                val = val - ddu[r][i][k] * d_xi[k][j]
            return val

        row += [eta2(r, i, i) if i == j
                else (eta2(r, i, j) + eta2(r, j, i)) / 2.0
                for r in range(m) for i in range(n) for j in range(i, n)]
        return row

    def coefficient_table(self, point: JetPoint, at=None):
        coords, off = _row_layout(self.source.n_base, self.source.n_fields)
        row = [2.0 * c if o else c for o, c in zip(off, self._flow(point))]
        return dict(zip(coords, row)) if at is None else [row[p] for p in at]

    def flow_table(self, point: JetPoint, at=None):
        coords, _ = _row_layout(self.source.n_base, self.source.n_fields)
        row = self._flow(point)
        return dict(zip(coords, row)) if at is None else [row[p] for p in at]


@functools.cache
def _row_layout(n, m):
    """A flow row's coordinates in order, and which are off-diagonal."""
    coords = [base_coord(i) for i in range(n)]
    for r in range(1, m + 1):
        coords += [field_coord(r)] + [d1_coord(r, i) for i in range(n)]
    coords += [d2_coord(r, i, j) for r in range(1, m + 1)
               for i in range(n) for j in range(i, n)]
    return tuple(coords), tuple(c.kind == "d2" and c.i != c.j for c in coords)


def flow_positions(n_base: int, n_fields: int, coords) -> list:
    """Positions of ``coords`` in a flow row on (n_base, n_fields)."""
    index = {c: p for p, c in enumerate(_row_layout(n_base, n_fields)[0])}
    if not index.keys() >= set(coords):
        raise ValueError("coordinates outside the operator's jet space")
    return [index[c] for c in coords]


def coefficient_rows(rows, n_base: int, n_fields: int, at) -> list:
    """Coefficient tables at ``at`` from flow tables there: off-diagonal
    entries doubled, as :meth:`ProlongedOperator.coefficient_table` does."""
    off = _row_layout(n_base, n_fields)[1]
    return [[2.0 * c if off[p] else c for p, c in zip(at, r)] for r in rows]


def prolong2(v: VectorField) -> ProlongedOperator:
    """Second prolongation of a vector field."""
    return ProlongedOperator(v)


def apply_operator(op: ProlongedOperator, fn, point: JetPoint):
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


def matrix_rank(rows):
    """Rank by scaled full-pivot elimination of plain (float or complex)
    entries.

    Rows are scaled to unit max magnitude, then pivots are accepted while
    larger than :data:`RANK_PIVOT_RTOL` times the largest entry of the
    scaled matrix.
    """
    a = [list(row) for row in rows]
    if not a or not a[0]:
        return 0, []
    for row in a:
        s = max(map(abs, row))
        if s > 0.0:
            for k in range(len(row)):
                row[k] = row[k] / s
    biggest = max(max(map(abs, row)) for row in a)
    if biggest == 0.0:
        return 0, []
    thresh = RANK_PIVOT_RTOL * biggest
    nrows, ncols = len(a), len(a[0])
    rank = 0
    pivots = []
    used_r, used_c = set(), set()
    for _ in range(min(nrows, ncols)):
        best, br, bc = 0.0, -1, -1
        for r in range(nrows):
            if r in used_r:
                continue
            for c in range(ncols):
                if c in used_c:
                    continue
                mag = abs(a[r][c])
                if mag > best:
                    best, br, bc = mag, r, c
        if best <= thresh:
            break
        pivots.append(best)
        used_r.add(br)
        used_c.add(bc)
        rank += 1
        piv = a[br][bc]
        for r in range(nrows):
            if r in used_r:
                continue
            factor = a[r][bc] / piv
            if factor == 0.0:
                continue
            for c in range(ncols):
                if c in used_c:
                    continue
                a[r][c] = a[r][c] - factor * a[br][c]
            a[r][bc] = 0.0
    return rank, pivots


def generic_rank(ops, sampler, trials: int = 5, coords=None) -> int:
    """Max over sampled points of the rank of the operators' coefficient
    matrix (rows = operators, columns = jet coordinates), stopping once it
    reaches the row or column count, which no later point can exceed."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    best = 0
    for t in range(trials):
        point = sampler(t)
        if t == 0:
            at = flow_positions(point.n_base, point.n_fields,
                                point.coords() if coords is None else coords)
        rank, _ = matrix_rank([op.coefficient_table(point, at) for op in ops])
        best = max(best, rank)
        if best == min(len(ops), len(at)):
            break
    return best


# --------------------------------------------------------------------------
# algebra catalog


_FAMILIES = (
    "AO", "AE", "AE1", "AC", "AP", "APtilde", "AC1n",
    "AG_I", "AG1_I", "AG2_I", "AG_II", "AG1_II", "AG2_II",
    "AP_inf", "AP_BornInfeld",
)


@dataclass(frozen=True)
class AlgebraSpec:
    """Named algebra with its parameters.

    ``n`` is the spatial dimension (the jet space of the Minkowski and
    Galilei families has n+1 base coordinates, index 0 timelike).  ``rep``
    selects the representation for Galilei catalogs: "u" acts by u d/du,
    "log" acts on jets of log u (or log psi).  For AP_inf, ``seed`` and
    ``instances`` control the sampled coefficient functions and
    ``extended`` adds the u-dependent dilation term.
    """

    name: str
    n: int
    m: int = 1
    lam: float = 1.0
    mu: float = 1.0
    mass: float = 1.0
    field_kind: FieldKind = REAL
    rep: str = "u"
    seed: int = 0
    instances: int = 3
    extended: bool = False
    functions: tuple = dc_field(default=(), compare=False)

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise ValueError(f"unknown algebra family {self.name!r}")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        min_n = 2 if self.name in ("AP_inf", "AP_BornInfeld") else 3
        if self.n < min_n:
            raise ValueError(f"{self.name} requires n >= {min_n}")
        # the projective generator pins lambda = -n/2 unless the boost
        # weight (mu, or the mass) vanishes
        if self.name == "AG2_I" and self.mu != 0 and self.lam != -self.n / 2:
            raise ValueError(f"AG2_I fixes lambda = -n/2 = {-self.n / 2}")
        if self.name == "AG2_II" and self.mass != 0 and self.lam != -self.n / 2:
            raise ValueError(f"AG2_II fixes lambda = -n/2 = {-self.n / 2}")
        if self.name.endswith("_II") and self.field_kind is not COMPLEX:
            raise ValueError(f"{self.name} acts on a complex field pair")
        if self.name.endswith("_II") and self.m != 2:
            raise ValueError(f"{self.name} uses the slot pair (phi, phi*)")
        if self.rep not in ("u", "log"):
            raise ValueError("rep must be 'u' or 'log'")
        if not all(map(math.isfinite, (self.lam, self.mu, self.mass))):
            raise ValueError("lam, mu and mass must be finite")

    @property
    def n_base(self) -> int:
        if self.name in ("AO", "AE", "AE1", "AC"):
            return self.n
        return self.n + 1  # time/x0 plus n spatial coordinates

    @property
    def n_fields(self) -> int:
        return self.m


def make_spec(name: str, n: int, **kw) -> AlgebraSpec:
    """AlgebraSpec with family defaults applied."""
    if name == "AG2_I" and kw.get("mu", 1.0) != 0:
        kw.setdefault("lam", -n / 2)
    if name == "AG2_II" and kw.get("mass", 1.0) != 0:
        kw.setdefault("lam", -n / 2)
    if name.endswith("_II"):
        kw.setdefault("field_kind", COMPLEX)
        kw.setdefault("m", 2)
    return AlgebraSpec(name=name, n=n, **kw)


def catalog(spec: AlgebraSpec) -> list:
    """Basis vector fields of the named algebra: the bound text rows of
    :func:`generator_rows`, or AP_inf's sampled generators."""
    if spec.name == "AP_inf":
        return _eikonal_family(spec)
    return bind_generators(spec, generator_rows(spec))


def algebra_space(spec: AlgebraSpec):
    """Base coordinate names of an algebra's jet space, and the (metric,
    None for Euclidean; field kind; time mode) that exprlang binds text
    over them with: ``t, x1..xn`` for the Galilei families, ``x1..xn`` for
    the Euclid ones, and ``x0..xn`` under the Minkowski signs for the
    rest."""
    nb = spec.n_base
    if spec.name.startswith("AG"):
        kind = COMPLEX if spec.name.endswith("_II") else REAL
        return ["t"] + [f"x{k}" for k in range(1, nb)], (None, kind, True)
    if nb == spec.n:  # the Euclid families
        return [f"x{k}" for k in range(1, nb + 1)], (None, REAL, False)
    return [f"x{k}" for k in range(nb)], (minkowski(nb), REAL, False)


def bind_generators(spec: AlgebraSpec, rows) -> list:
    """Vector fields of (label, xi texts, eta texts) rows over the space of
    ``spec``, each text compiled once by ``exprlang.bind_coefficient``."""
    # imported here: exprlang imports invcat, which imports this module
    from .exprlang import bind_coefficient
    nb, m = spec.n_base, spec.m
    _, binding = algebra_space(spec)

    def bound(texts):
        return [bind_coefficient(t, nb, m, *binding)[0] for t in texts]
    return [VectorField(nb, m, bound(xi), bound(eta), label)
            for label, xi, eta in rows]


def generator_rows(spec: AlgebraSpec) -> list:
    """(label, xi texts, eta texts) of each basis generator of every
    algebra but AP_inf.  Each text repeats, operand by operand, the
    arithmetic its coefficient stands for, with constants printed by
    ``repr``; an argument-free coefficient is a bare number."""
    x, _ = algebra_space(spec)
    u = [f"u{r}" for r in range(1, spec.m + 1)]
    if spec.name.startswith("AG"):
        return _galilei_rows(spec, x, u)
    # the Euclid families, or the Poincare ones with their metric signs
    nb, lam = len(x), spec.lam
    g = None if x[0] == "x1" else [1.0] + [-1.0] * spec.n
    rows = [] if spec.name == "AO" else _translations(x, spec.m)
    if spec.name == "AP_BornInfeld":
        # the Poincare algebra on (x_0..x_n, u), u the extra spacelike
        # coordinate: translations and all pseudo-rotations J_AB
        rows.append(("Pu", ["0"] * nb, ["1.0"]))
    rows += _rotations(x, spec.m, g or [1.0] * nb)
    if spec.name == "AP_BornInfeld":
        # J_{a,u} = x_a p_u - u p_a with the i dropped; u has sign -1.0
        rows += [(f"J{a}u", _sparse(nb, {a: f"{-g[a]!r} * u1"}),
                  [f"-1.0 * {xa}"]) for a, xa in enumerate(x)]
    if spec.name in ("AE1", "AC", "APtilde", "AC1n"):
        rows.append(("D", x, [f"{lam!r} * {ur}" for ur in u]))
    if spec.name in ("AC", "AC1n"):
        # K_a: xi^k = 2 x_a x_k - delta_ak x.x, metric-weighted under g
        sq = " + ".join(f"{v} * {v}" if g is None else f"{g[k]!r} * {v} * {v}"
                        for k, v in enumerate(x))
        for a, xa in enumerate(x):
            xi = [f"2.0 * {xa} * {xk}" for xk in x]
            xi[a] += f" - ({sq})" if g is None else f" - ({sq}) * {g[a]!r}"
            rows.append((f"K{xa.lstrip('x')}", xi,
                         [f"2.0 * {lam!r} * {xa} * {ur}" for ur in u]))
    return rows


def _sparse(nb, entries):
    """Coefficient texts: ``entries[k]`` at index k, "0" elsewhere."""
    return [entries.get(k, "0") for k in range(nb)]


def _translations(x, m):
    return [(f"P{xa.lstrip('x')}", _sparse(len(x), {a: "1.0"}), ["0"] * m)
            for a, xa in enumerate(x)]


def _rotations(x, m, g, first=0):
    # x_a p_b - x_b p_a with the i factor dropped: g holds metric signs
    return [(f"J{x[a].lstrip('x')}{x[b].lstrip('x')}", _sparse(len(x), {
        a: f"{-g[a]!r} * {x[b]}", b: f"{g[b]!r} * {x[a]}"}), ["0"] * m)
        for a, b in itertools.combinations(range(first, len(x)), 2)]


def _galilei_rows(spec, x, u):
    """Galilei families on (t, x_1..x_n): the heat family on real fields,
    or the Schroedinger family on the slot pair (psi, psi*) or (phi, phi*).

    In the complex family derivative symbols are read with their printed
    i factors dropped while the phase rotation J keeps its i inside
    composites, which is the unique reading leaving the free equation
    conditionally invariant; the boost weight is mu = i * mass on psi and
    its conjugate on psi*.
    """
    nb, cplx, lam = len(x), spec.name.endswith("_II"), repr(spec.lam)
    mu = f"i * {spec.mass!r}" if cplx else repr(spec.mu)

    def weights(w, w_conj=None):
        # w * (u d/du) in u-rep, w * d/dphi in log-rep, a sum w in
        # parentheses; psi* takes w_conj, every real field takes w
        ws = [w, w_conj] if cplx else [w] * len(u)
        if spec.rep == "log":
            return ws
        return [f"{a} * {ur}" for a, ur in zip(ws, u)]

    rows = _translations(x, len(u))
    if cplx:
        rows.append(("J", ["0"] * nb, weights("1.0", "-1.0")))
    rows += _rotations(x, len(u), [1.0] * nb, first=1)
    rows += [(f"G{a}", _sparse(nb, {a: "t"}),
              weights(f"{mu} * {x[a]}", f"-({mu}) * {x[a]}"))
             for a in range(1, nb)]
    if not cplx:
        rows.append(("I", ["0"] * nb, weights("1.0")))
    if spec.name[:3] in ("AG1", "AG2"):
        rows.append(("D", ["2.0 * t"] + x[1:], weights(lam, lam)))
    if spec.name[:3] == "AG2":
        sq = " + ".join(f"{v} * {v}" for v in x[1:])
        rows.append(("A", ["t * t"] + [f"t * {v}" for v in x[1:]],
                     weights(f"({lam} * t + {mu} * ({sq}) / 2.0)",
                             f"({lam} * t - {mu} * ({sq}) / 2.0)")))
    return rows


class PolynomialOfU:
    """Low-degree polynomial c0 + c1 u + c2 u^2 used as a sampled
    coefficient function of the field value."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def __call__(self, u):
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * u + c
        return out

    def __repr__(self):
        return "+".join(f"{c:.3f}u^{k}" if k else f"{c:.3f}"
                        for k, c in enumerate(self.coeffs))


def _sample_poly(rng, degree=2):
    return PolynomialOfU([_signed(rng) for _ in range(degree + 1)])


def sample_eikonal_functions(n: int, seed: int, extended: bool):
    """One draw of the arbitrary functions (b^{mu nu}, a^mu, eta[, d])."""
    rng = random.Random(f"apinf:{n}:{seed}")
    nb = n + 1
    b = {}
    for muu in range(nb):
        for nuu in range(muu + 1, nb):
            b[(muu, nuu)] = _sample_poly(rng)
    a = [_sample_poly(rng) for _ in range(nb)]
    eta = _sample_poly(rng)
    d = _sample_poly(rng) if extended else None
    return b, a, eta, d


def _eikonal_family(spec: AlgebraSpec):
    """Sampled generators of the infinite symmetry algebra of the eikonal
    equation: (b^{mu nu}(u) x_nu + a^mu(u)) d/dx_mu + eta(u) d/du, with the
    repeated Greek index contracted through the metric, optionally extended
    by d(u) x_mu d/dx_mu (plain dilation sum).

    ``spec.functions`` may override sampled components by name: ``b{mu}{nu}``
    (mu < nu), ``a{mu}``, ``eta``, ``d``; overrides apply to every instance.
    """
    n = spec.n
    nb = n + 1
    g = [1.0] + [-1.0] * n
    overrides = dict(spec.functions)
    fields = []
    for inst in range(spec.instances):
        b, a, eta, d = sample_eikonal_functions(n, spec.seed + inst,
                                                spec.extended)
        for name, fn in overrides.items():
            if name == "eta":
                eta = fn
            elif name == "d":
                d = fn
                if not spec.extended:
                    raise ValueError("a 'd' function needs extended=True")
            elif name.startswith("b") and len(name) == 3:
                mu, nu = int(name[1]), int(name[2])
                if not 0 <= mu < nu <= n:
                    raise ValueError(f"bad antisymmetric component {name!r}")
                b[(mu, nu)] = fn
            elif name.startswith("a") and name[1:].isdigit():
                mu = int(name[1:])
                if not 0 <= mu <= n:
                    raise ValueError(f"bad translation component {name!r}")
                a[mu] = fn
            else:
                raise ValueError(f"unknown coefficient function {name!r}")

        def make_xi(k, b=b, a=a, d=d):
            def f(xs, us):
                u = us[0]
                val = a[k](u)
                for nuu in range(nb):
                    if (k, nuu) in b:
                        val = val + g[nuu] * b[(k, nuu)](u) * xs[nuu]
                    elif (nuu, k) in b:
                        val = val - g[nuu] * b[(nuu, k)](u) * xs[nuu]
                if d is not None:
                    val = val + d(u) * xs[k]
                return val
            return f

        def make_eta(eta=eta):
            return lambda xs, us: eta(us[0])

        fields.append(VectorField(
            nb, 1, [make_xi(k) for k in range(nb)], [make_eta()],
            f"X{inst}{'+d' if spec.extended else ''}"))
    return fields


def make_sampler(n_base: int, n_fields: int,
                 field_kind: FieldKind = REAL, seed: int = 0,
                 positive_fields: bool = False):
    """Deterministic family of generic points indexed by trial number."""
    def sampler(idx: int) -> JetPoint:
        return sample_generic(n_base, n_fields, field_kind,
                              seed=seed * 1000003 + idx,
                              positive_fields=positive_fields)
    return sampler
