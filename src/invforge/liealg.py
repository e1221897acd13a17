"""Vector fields on (x, u)-space, their second prolongations, and the
catalog of point-symmetry algebras handled by this package.  Every
algebra but AP_inf is written as text rows (label, xi texts, eta texts),
:func:`generator_rows`, that ``exprlang`` compiles; AP_inf's generators
close over sampled polynomials of u.

A :class:`VectorField` holds coefficient evaluators xi^i(x, u) and
eta^r(x, u); :func:`prolong2` extends it to all second-order jet
coordinates.  Second derivatives live on unordered index pairs, and the
published coefficient of an off-diagonal pair is the sum eta_ij + eta_ji;
a flow row (:meth:`ProlongedOperator.flow_table`) therefore holds half
that sum, the weight an off-diagonal pair's one stored slot pairs with
in a directional derivative.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass, field as dc_field

from .dual import seed_jets, value_grad_hess
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
    that must evaluate on floats and on ``dual.Jet2`` jets, whose one pass
    supplies exact first and second partial derivatives.

    ``moves`` is, for a field whose coefficients are all constants, the
    coordinates x_i and u^r whose constant is not 0; its prolongation is
    then 0 at every other jet coordinate, at every point.  It is None, the
    default, when some coefficient may read an argument.
    """

    __slots__ = ("n_base", "n_fields", "xi", "eta", "label", "moves")

    def __init__(self, n_base, n_fields, xi, eta, label, moves=None):
        if len(xi) != n_base or len(eta) != n_fields:
            raise ValueError("coefficient count does not match dimensions")
        self.n_base = n_base
        self.n_fields = n_fields
        self.xi = tuple(xi)
        self.eta = tuple(eta)
        self.label = label
        self.moves = moves

    def __repr__(self):
        return f"VectorField({self.label})"


# (point, {function: jets there}, arguments, {depth: seeded jets}) of the
# last point a flow row was built at, replaced whole by the next point
_LAST = (None, {}, (), {})


def _jets(fn, point, second=False):
    """[value, [D_i g], [[D_j D_i g]]] of a coefficient g = ``fn`` at a
    point, built once per point for all operators; its passes share one
    argument tuple and its seeded jets per depth.  The second total
    derivatives are None until a caller asks for them (``second``), for a
    d2 block it reads: a pass without it carries no Hessian, so the first
    ask runs the full pass and builds them in one loop nest.  The point is
    matched by identity, never by equality, which would merge -0.0 and 0.0."""
    global _LAST
    if _LAST[0] is not point:
        _LAST = point, {}, (*point.x, *point.u), {}
    _, memo, args, seeded = _LAST
    jets = memo.get(fn)
    if jets is not None and (jets[2] is not None or not second):
        return jets
    n, m, du = point.n_base, point.n_fields, point.du
    # range objects made once: in these short nests a range() call per
    # loop is a large share of the loop's cost
    rn, rm = range(n), range(m)
    if second not in seeded:
        seeded[second] = seed_jets(args, second)
    val, grad, hess = value_grad_hess(lambda a: fn(a[:n], a[n:]), args,
                                      hessian=second, seeded=seeded[second])
    if jets is None:
        # D_i g = g_x_i + sum_s u^s_i g_u^s  for g = g(x, u)
        d = []
        for i in rn:
            out = grad[i]
            for s in rm:
                out = out + du[s][i] * grad[n + s]
            d.append(out)
        jets = memo[fn] = [val, d, None]
    if second:
        # D_j D_i g for g = g(x, u)
        ddu = point.ddu
        jets[2] = dd = [[None] * n for _ in range(n)]
        for i in rn:
            hess_i = hess[i]
            for j in rn:
                hess_j = hess[j]
                out = hess_i[j]
                for s in rm:
                    dus, ns = du[s], n + s
                    hs = hess[ns]
                    out = out + dus[j] * hess_i[ns]
                    out = out + dus[i] * hess_j[ns]
                    out = out + ddu[s][i][j] * grad[ns]
                    for t in rm:
                        out = out + dus[i] * du[t][j] * hs[n + t]
                dd[i][j] = out
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
    or with ``at`` (:func:`flow_positions`) the list of those entries; then
    only the blocks ``at`` reads are built (:func:`_blocks`), so a field
    none of whose entries is read is never differentiated, and no second
    total derivative is built unless some d2 block is read.
    """

    __slots__ = ("source", "label")

    def __init__(self, source: VectorField):
        self.source = source
        self.label = source.label

    def __repr__(self):
        return f"ProlongedOperator({self.label})"

    def _flow(self, point: JetPoint, at=None) -> list:
        """Flow row at a point, None in each block ``at`` does not read."""
        src = self.source
        n, m = src.n_base, src.n_fields
        if point.n_base != n or point.n_fields != m:
            raise ValueError("jet point does not match the operator's space")
        first, second = _blocks(n, m, at if at is None else tuple(at))
        du, ddu = point.du, point.ddu
        xi, d_xi, dd_xi = zip(*[_jets(f, point, bool(second))[:3]
                                for f in src.xi])
        cols = list(zip(*d_xi))  # cols[i][k] = D_i xi^k
        rn = range(n)  # made once, as in _jets
        row = list(xi)
        for r in range(m):
            if r not in first:
                row += [None] * (n + 1)
                continue
            eta, d_eta = _jets(src.eta[r], point, r in second)[:2]
            row.append(eta)
            du_r = du[r]
            for i in rn:
                val, col_i = d_eta[i], cols[i]
                for k in rn:
                    val = val - du_r[k] * col_i[k]
                row.append(val)
        for r in range(m):
            if r not in second:
                row += [None] * (n * (n + 1) // 2)
                continue
            # eta_ij = D_j D_i eta - u_kj D_i xi^k - u_k D_j D_i xi^k
            #          - u_ik D_j xi^k
            dd_eta = _jets(src.eta[r], point, True)[2]
            du_r, ddu_r = du[r], ddu[r]
            e2 = [[None] * n for _ in range(n)]
            for i in rn:
                col_i, ddu_ri, dd_eta_i = cols[i], ddu_r[i], dd_eta[i]
                for j in rn:
                    col_j = cols[j]
                    val = dd_eta_i[j]
                    for k in rn:
                        val = val - ddu_r[k][j] * col_i[k]
                        val = val - du_r[k] * dd_xi[k][i][j]
                        val = val - ddu_ri[k] * col_j[k]
                    e2[i][j] = val
            row += [e2[i][i] if i == j else (e2[i][j] + e2[j][i]) / 2.0
                    for i in range(n) for j in range(i, n)]
        return row

    def coefficient_table(self, point: JetPoint, at=None):
        coords, off = _row_layout(self.source.n_base, self.source.n_fields)
        row = self._flow(point, at)
        if at is None:
            return dict(zip(coords, [2.0 * c if o else c
                                     for o, c in zip(off, row)]))
        return [2.0 * row[p] if off[p] else row[p] for p in at]

    def flow_table(self, point: JetPoint, at=None):
        coords, _ = _row_layout(self.source.n_base, self.source.n_fields)
        row = self._flow(point, at)
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


def flow_positions(n_base: int, n_fields: int, coords) -> tuple:
    """Positions of ``coords`` in a flow row on (n_base, n_fields)."""
    index = {c: p for p, c in enumerate(_row_layout(n_base, n_fields)[0])}
    if not index.keys() >= set(coords):
        raise ValueError("coordinates outside the operator's jet space")
    return tuple(index[c] for c in coords)


@functools.cache
def _blocks(n, m, at):
    """The fields whose value and d1 entries, and those whose d2 triangle,
    a flow row read at positions ``at`` (every position when None) reads."""
    if at is None:
        return range(m), range(m)
    d2 = n + m * (n + 1)
    return (frozenset((p - n) // (n + 1) for p in at if n <= p < d2),
            frozenset((p - d2) // (n * (n + 1) // 2) for p in at if p >= d2))


def coefficient_rows(rows, n_base: int, n_fields: int, at) -> list:
    """Coefficient tables at ``at`` from flow tables there: off-diagonal
    entries doubled, as :meth:`ProlongedOperator.coefficient_table` does."""
    off = _row_layout(n_base, n_fields)[1]
    return [[2.0 * c if off[p] else c for p, c in zip(at, r)] for r in rows]


def prolong2(v: VectorField) -> ProlongedOperator:
    """Second prolongation of a vector field."""
    return ProlongedOperator(v)


def pivot_positions(rows):
    """(row, column, magnitude) of each pivot of scaled full-pivot
    elimination of plain (float or complex) entries, in elimination order.

    Rows are scaled to unit max magnitude, then pivots are accepted while
    larger than :data:`RANK_PIVOT_RTOL` times the largest entry of the
    scaled matrix.
    """
    a = [list(row) for row in rows]
    if not a or not a[0]:
        return []
    for row in a:
        s = max(map(abs, row))
        if s > 0.0:
            for k in range(len(row)):
                row[k] = row[k] / s
    biggest = max(max(map(abs, row)) for row in a)
    if biggest == 0.0:
        return []
    thresh = RANK_PIVOT_RTOL * biggest
    nrows, ncols = len(a), len(a[0])
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
        pivots.append((br, bc, best))
        used_r.add(br)
        used_c.add(bc)
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
    return pivots


def matrix_rank(rows):
    """Rank and pivot magnitudes of :func:`pivot_positions`."""
    pivots = pivot_positions(rows)
    return len(pivots), [mag for _, _, mag in pivots]


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


# each family and the parameters of its spec that its generators and basis
# read; the CLI rejects any other parameter given for it
_FAMILIES = {
    "AO": ("m",), "AE": ("m",), "AE1": ("m", "lam"), "AC": ("m", "lam"),
    "AP": ("m",), "APtilde": ("m", "lam"), "AC1n": ("m", "lam"),
    "AG_I": ("m", "mu"), "AG1_I": ("m", "lam", "mu"),
    "AG2_I": ("m", "lam", "mu"), "AG_II": ("m", "mass"),
    "AG1_II": ("m", "lam", "mass"), "AG2_II": ("m", "lam", "mass"),
    "AP_inf": ("functions",), "AP_BornInfeld": (),
}


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
        # weight vanishes
        pin = -self.n / 2
        if self.name.startswith("AG2") and self.boost != 0 and self.lam != pin:
            raise ValueError(f"{self.name} fixes lambda = -n/2 = {pin}")
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

    @property
    def boost(self) -> float:
        """exprlang's ``bth<r>`` weight: mu, or the pair's mass."""
        return self.mass if self.name.endswith("_II") else self.mu


def make_spec(name: str, n: int, **kw) -> AlgebraSpec:
    """AlgebraSpec with family defaults applied."""
    boost = "mass" if name.endswith("_II") else "mu"
    if name.startswith("AG2") and kw.get(boost, 1.0) != 0:
        kw.setdefault("lam", -n / 2)
    if name.endswith("_II"):
        kw.setdefault("field_kind", COMPLEX)
        kw.setdefault("m", 2)
    return AlgebraSpec(name=name, n=n, **kw)


def catalog(spec: AlgebraSpec) -> list:
    """Basis vector fields of the named algebra: the bound text rows of
    :func:`generator_rows`, bound once per spec (a new list of the same
    fields each call), or AP_inf's generators, sampled every call: a
    call's spec carries its own seed and bound ``functions``."""
    if spec.name == "AP_inf":
        return _eikonal_family(spec)
    # specs that compare equal may print -0.0 or an int into the row texts
    return list(_bound_rows(spec, repr((spec.lam, spec.mu, spec.mass))))


@functools.lru_cache(maxsize=64)
def _bound_rows(spec, params):
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
    ``spec``, each text compiled once by ``exprlang.bind_coefficient``.  A
    row whose texts read no argument is marked with the coordinates its
    nonzero constants move (:attr:`VectorField.moves`)."""
    # imported here: exprlang imports invcat, which imports this module
    from .exprlang import bind_coefficient
    nb, m = spec.n_base, spec.m
    _, binding = algebra_space(spec)
    zeros = (0.0,) * nb, (0.0,) * m
    # per distinct text: its function, and for an argument-free text
    # whether its constant is nonzero (None when it reads an argument)
    bound = {}
    for _, xi, eta in rows:
        for t in (*xi, *eta):
            if t not in bound:
                fn, deps = bind_coefficient(t, nb, m, *binding)
                bound[t] = fn, None if deps else fn(*zeros) != 0
    fields = []
    for label, xi, eta in rows:
        nonzero = [bound[t][1] for t in (*xi, *eta)]
        moves = None if None in nonzero else frozenset(
            c for c, nz in zip(_moved_coords(nb, m), nonzero) if nz)
        fields.append(VectorField(nb, m, [bound[t][0] for t in xi],
                                  [bound[t][0] for t in eta], label, moves))
    return fields


@functools.cache
def _moved_coords(n, m):
    """The coordinates x_i, then u^r, that a field's xi and eta move."""
    return (*map(base_coord, range(n)), *map(field_coord, range(1, m + 1)))


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
    coefficient function of the field value.  It keeps its last argument,
    matched by identity, and value per argument type: xi^mu and xi^nu both
    read b^{mu nu}(u), and :func:`_jets` shares argument objects."""

    __slots__ = ("coeffs", "_last")

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        self._last = {}

    def __call__(self, u):
        last = self._last.get(type(u))
        if last is not None and last[0] is u:
            return last[1]
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * u + c
        self._last[type(u)] = u, out
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


# AP_inf's override names; an index is decimal digits, which int() reads
_OVERRIDE = re.compile(r"eta|d|b(\d)(\d)|a(\d+)")


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
            m = _OVERRIDE.fullmatch(name)
            if m is None:
                raise ValueError(f"unknown coefficient function {name!r}")
            if name == "eta":
                eta = fn
            elif name == "d":
                d = fn
                if not spec.extended:
                    raise ValueError("a 'd' function needs extended=True")
            elif name[0] == "b":
                mu, nu = int(m[1]), int(m[2])
                if not 0 <= mu < nu <= n:
                    raise ValueError(f"bad antisymmetric component {name!r}")
                b[(mu, nu)] = fn
            else:
                mu = int(m[3])
                if not 0 <= mu <= n:
                    raise ValueError(f"bad translation component {name!r}")
                a[mu] = fn

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
