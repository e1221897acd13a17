"""Vector fields on (x, u)-space, their second prolongations, and the
catalog of point-symmetry algebras handled by this package.  Every
algebra but AP_inf is written as text rows (label, xi texts, eta texts),
:func:`generator_rows`, that ``exprlang`` compiles; AP_inf's generators
are :class:`EikonalCoefficient` objects over sampled polynomials of u.

A :class:`VectorField` holds coefficient evaluators xi^i(x, u) and
eta^r(x, u); :func:`prolong2` extends it to all second-order jet
coordinates.  Second derivatives live on unordered index pairs, and the
published coefficient of an off-diagonal pair is the sum eta_ij + eta_ji;
a flow row (:meth:`ProlongedOperator.flow_table`) therefore holds half
that sum, the weight an off-diagonal pair's one stored slot pairs with
in a directional derivative.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import random
import re

from .dual import Jet1, Jet2, _jet_seeds, seed_jets, value_grad_hess
from .jetspace import (
    COMPLEX,
    REAL,
    FieldKind,
    JetPoint,
    Metric,
    Record,
    _signed,
    base_coord,
    d1_coord,
    d2_coord,
    field_coord,
    sample_generic,
)

RANK_PIVOT_RTOL = 1e-8


class VectorField:
    """Infinitesimal generator xi^i(x,u) d/dx_i + eta^r(x,u) d/du^r.

    ``xi`` and ``eta`` are sequences of callables ``f(xs, us) -> scalar``
    that must evaluate on floats and on ``dual.Jet2`` jets, whose one pass
    supplies exact first and second partial derivatives; an
    :class:`EikonalCoefficient` supplies that pass's bits by its lane
    kernel instead.

    ``moves`` is, for a field whose coefficients are all constants, the
    coordinates x_i and u^r whose constant is not 0; its prolongation is
    then 0 at every other jet coordinate, at every point.  It is None, the
    default, when some coefficient may read an argument.

    ``plan`` is (held, sparse, tables), made by the first flow row
    (:func:`_plan`) unless given.  ``held`` has per coefficient of ``xi +
    eta`` its gradient and Hessian if they are the same at every point
    (:func:`_probe`), else None; ``sparse`` is the field's sparse plan if
    every coefficient's slopes are held and two rules cover them, else
    None.  A xi^k whose gradient is 0 in every field slot and whose
    Hessian is all 0 has D_i xi^k equal to its gradient entry where that
    is not 0, a zero elsewhere, and every D_j D_i xi^k a zero; an eta_r of
    that kind whose base-slot gradient has no -0.0 part and whose Hessian
    is all +0.0 has D_i eta_r equal to that entry and every D_j D_i eta_r
    +0.0.  At a point where every du and ddu entry is a finite float, or
    every one a finite complex, and every part of every du entry is below
    2**500 (:func:`_plan_kind`), a planned field's flow row
    (:meth:`ProlongedOperator._flow`) takes those values from its plan and
    leaves out each term with such a zero factor.  ``tables`` has per
    coefficient the +0.0 D_j D_i tables (:func:`_tables`) of one whose held
    field-slot gradient is 0 and Hessian 0, +0.0 where both indices are
    base ones, which a dense row reads at such a point too.  A coefficient
    without held slopes may have a held Hessian (:func:`_hessians`).
    """

    __slots__ = ("n_base", "n_fields", "xi", "eta", "label", "moves", "plan")

    def __init__(self, n_base, n_fields, xi, eta, label, moves=None,
                 plan=None):
        if len(xi) != n_base or len(eta) != n_fields:
            raise ValueError("coefficient count does not match dimensions")
        self.n_base = n_base
        self.n_fields = n_fields
        self.xi = tuple(xi)
        self.eta = tuple(eta)
        self.label = label
        self.moves = moves
        self.plan = plan

    def __repr__(self):
        return f"VectorField({self.label})"


# (point, {function: jets there}, arguments, {depth: seeded jets, Jet1:
# the seeded Jet1 arguments}, [the point's plan kind, once asked],
# {(function of u, depth): its two-argument pass, function without held
# slopes: ((its gradient, held Hessian), its tables), or False where its
# Hessian is not held or its Jet1 pass is not finite}) of the last point a
# flow row was built at, replaced whole by the next point
_LAST = (None, {}, (), {}, [], {})


def _at(point):
    """The shared state of ``point``, made afresh when the point is not
    the last one's.  The point is matched by identity, never by equality,
    which would merge -0.0 and 0.0."""
    global _LAST
    if _LAST[0] is not point:
        _LAST = point, {}, (*point.x, *point.u), {}, [], {}
    return _LAST


@functools.cache
def _probe(fn, n, m):
    """The gradient and Hessian of a coefficient ``fn`` of n base
    coordinates and m fields if they are the same at every point, else
    None, by one full-depth ``value_grad_hess`` call at all-NaN arguments,
    made once per function (``exprlang.bind_coefficient`` keeps each
    compiled text's for good): each operation of its jet pass carries a
    NaN operand into its result, so a slot with no NaN part read no value.
    A jet raised to a number power breaks this (a float NaN to the power 0
    is 1.0, a complex value (1+0j)), but exprlang takes integer powers by
    products and any other by exp and log.  Held slopes hold at every
    point; a Hessian may be held where they are not (:func:`_hessians`)."""
    _, grad, hess = value_grad_hess(lambda a: fn(a[:n], a[n:]),
                                    (math.nan,) * (n + m))
    if any(map(cmath.isnan, (*grad, *itertools.chain(*hess)))):
        return None
    return grad, hess


class _Sign:
    """A number of :func:`_hessians`' pass, standing for every point:
    ``vals``, the numbers it may be, which differ at most in the signs of
    zero parts; else a finite number of type ``kind``, or any number where
    ``kind`` is None.  ``deg`` is 0 in a value, 1 in a gradient and 2 in a
    Hessian slot: a finite Jet1 pass makes every value and gradient it
    reads finite, but not a Hessian term, so an unknown one is refused, as
    the slot it goes into, and every slot a jet rule makes from that, can
    then be any number.  It takes + - * and / by a number; any other
    operation raises TypeError."""

    __slots__ = ("vals", "deg", "kind")

    def __init__(self, vals, deg, kind=None):
        if vals is None and deg > 1:
            raise ArithmeticError("a Hessian term may be any number")
        self.vals, self.deg, self.kind = vals, deg, kind

    def __add__(self, b): return _sign_op(self, b, operator.add)
    def __radd__(self, b): return _sign_op(b, self, operator.add)
    def __sub__(self, b): return _sign_op(self, b, operator.sub)
    def __rsub__(self, b): return _sign_op(b, self, operator.sub)
    def __mul__(self, b): return _sign_op(self, b, operator.mul)
    def __rmul__(self, b): return _sign_op(b, self, operator.mul)
    def __truediv__(self, b): return _sign_op(self, b, operator.truediv)

    def __neg__(self):
        return _Sign(self.vals and tuple(-z for z in self.vals), self.deg,
                     self.kind)


_SIGNED_ZEROS = {float: (0.0, -0.0), complex: tuple(
    complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0))}


def _sign_op(a, b, op):
    """``op`` on :class:`_Sign` numbers or plain ones: a finite number
    times a zero is a zero of either sign."""
    if type(a) is not _Sign:
        if type(a) not in (int, float, complex):
            return NotImplemented
        a = _Sign((a,), 0)
    if type(b) is not _Sign:
        if type(b) not in (int, float, complex):
            return NotImplemented
        b = _Sign((b,), 0)
    mul = op is operator.mul
    deg = min(a.deg + b.deg, 2) if mul else max(a.deg, b.deg)
    x, y = a.vals, b.vals
    if x is not None and y is not None:
        if len(x) == len(y) == 1:
            return _Sign((op(x[0], y[0]),), deg)
        out = itertools.starmap(op, itertools.product(x, y))
        return _Sign(tuple({repr(z): z for z in out}.values()), deg)
    known = x or y or ()
    kinds = {s.kind for s in (a, b) if s.vals is None} | set(map(type, known))
    if kinds <= {int, float, complex} and all(map(cmath.isfinite, known)):
        kind = complex if complex in kinds else float
        if mul and known and not any(known):
            return _Sign(_SIGNED_ZEROS[kind], deg)
        if op in (operator.add, operator.sub) or all(known):
            return _Sign(None, deg, kind)
    return _Sign(None, deg)


@functools.cache
def _hessians(fn, n, m, types):
    """(Hessian, D_j D_i tables) of a coefficient ``fn`` of n base
    coordinates and m fields whose :class:`Jet2` Hessian has the same bits
    at every point of the argument ``types`` where a Jet1 pass of it is
    finite, else None, decided once per function and types by one pass over
    :class:`_Sign` numbers, every x a finite float and every u a finite
    float, or a finite complex, as ``types`` has it (:func:`_tables` gives
    the tables).  Refusing any jet operation but + - * and / by a number
    makes a Jet1 pass give the value and gradient's bits."""
    k = n + m
    if {*types[:n]} != {float} or {*types[n:]} not in ({float}, {complex}):
        return None
    shape, seeds, places = _jet_seeds(k, True)
    args = [Jet2(_Sign(None, 0, types[a]), [
        _Sign((z,), 1 + (p >= 2 * k)) for p, z in enumerate(d)], shape)
        for a, d in enumerate(seeds)]
    try:  # an unknown Hessian term, fn's own error or a refused operation
        jet = fn(args[:n], args[n:])
    except (ArithmeticError, TypeError):
        return None
    if type(jet) is not Jet2:
        return None
    cells = [[jet.d[q].vals for q in row] for row in places]
    if not all(c and len(c) == 1 for c in itertools.chain(*cells)):
        return None
    hess = tuple(tuple(c[0] for c in row) for row in cells)
    zeros = [z for g in jet.d[k + n:2 * k] for z in g.vals or [None]]
    return hess, _tables(zeros, hess, n)


def _jets(fn, point, depth, slopes=None, tables=None):
    """[value, [D_i g], [[D_j D_i g]]] of a coefficient g = ``fn`` at a
    point, built once per point for all operators up to ``depth`` (0: the
    value, 1: and the first total derivatives, 2: and the second ones);
    the deeper lists are None until some caller asks for them.  A
    coefficient with held ``slopes`` (:attr:`VectorField.plan`), or a read
    at depth 0, makes the value pass alone; held slopes stand for a pass's
    gradient and Hessian, and the total derivatives are expanded from them
    as from a pass's (with one field, one comprehension per row, the loop's
    terms in its order), but D_j D_i g is the table of ``tables``
    (:func:`_tables`) for the point's :func:`_plan_kind` where it has one.
    Without them a held Hessian and table (:func:`_hessians`) stand for a
    pass's, and one :class:`Jet1` pass, kept for a deeper read, for its
    value and gradient, unless it is not finite.  Any other read
    makes one ``value_grad_hess`` call, or for an AP_inf coefficient
    (:class:`EikonalCoefficient`) its lane kernel, which returns that
    call's bits; either carries Hessian pairs only at depth 2, so a deeper
    read of a coefficient memoized by a first-order one runs it again at
    full depth.  The passes share the point's one argument tuple and, per
    depth, its one list of seeded jets, made by the first pass that needs
    it, or its one-variable passes.  A planned field
    (:attr:`VectorField.plan`) reads its coefficients at depth 0."""
    # the last point's state read inline, as are its seeded jets below:
    # a dense row makes this call once per coefficient
    _, memo, args, seeded, _, passes = \
        _LAST if _LAST[0] is point else _at(point)
    jets = memo.get(fn)
    if jets is not None and jets[depth] is not None:
        return jets
    n, m, du = point.n_base, point.n_fields, point.du
    second = depth == 2
    if depth and slopes is None and type(fn) is not EikonalCoefficient:
        held = passes.get(fn)
        if held is None:
            held = passes[fn] = _hessians(
                fn, n, m, tuple(map(type, args))) or False
            if held:
                ones = seeded.get(Jet1)
                if ones is None:
                    seeds = _jet_seeds(n + m, False)[1]
                    ones = seeded[Jet1] = [Jet1(a, e[:n + m])
                                           for a, e in zip(args, seeds)]
                out = fn(ones[:n], ones[n:])
                finite = all(map(cmath.isfinite, (out.value, *out.d)))
                held = passes[fn] = finite and ((out.d, held[0]), held[1])
                if finite:
                    jets = memo.setdefault(fn, [out.value, None, None])
        if held:
            slopes, tables = held
    if depth and slopes is None:
        if type(fn) is EikonalCoefficient:
            val, grad, hess = fn.value_grad_hess(args, second, passes)
        else:
            jet = seeded.get(second)
            if jet is None:
                jet = seeded[second] = seed_jets(args, second)
            val, grad, hess = value_grad_hess(
                lambda a: fn(a[:n], a[n:]), args, hessian=second, seeded=jet)
    elif jets is None:
        val = fn(args[:n], args[n:])
    if jets is None:
        jets = memo[fn] = [val, None, None]
    if not depth:
        return jets
    if slopes is not None:
        grad, hess = slopes
    # range objects made once: in these short nests a range() call per
    # loop is a large share of the loop's cost
    rn, rm = range(n), range(m)
    if jets[1] is None:
        # D_i g = g_x_i + sum_s u^s_i g_u^s  for g = g(x, u)
        if m == 1:
            jets[1] = [g + d * grad[n] for g, d in zip(grad, du[0])]
        else:
            jets[1] = d = []
            for i in rn:
                out = grad[i]
                for s in rm:
                    out = out + du[s][i] * grad[n + s]
                d.append(out)
    if second:
        # D_j D_i g for g = g(x, u)
        table = tables and tables.get(_plan_kind(point))
        if table:
            jets[2] = table
        elif m == 1:
            du0, ddu0, g_u, h_uu = du[0], point.ddu[0], grad[n], hess[n][n]
            h_u = [h[n] for h in hess]
            jets[2] = [[h_ij + d_j * h_in + d_i * h_jn + dd_ij * g_u
                        + d_i * d_j * h_uu
                        for h_ij, d_j, h_jn, dd_ij in zip(h_i, du0, h_u, dd_i)]
                       for h_i, d_i, h_in, dd_i in zip(hess, du0, h_u, ddu0)]
        else:
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


# True where float + complex gives the float a +0.0 imaginary part, as
# Python 3.10-3.13 do; a complex point's plan rests on it
_PROMOTES = math.copysign(1.0, (0.0 + complex(0.0, -0.0)).imag) > 0.0
_DU_BOUND = 2.0 ** 500
_TABLES = {}  # _tables' tables, one per distinct value


def _plan_kind(point):
    """float or complex, the number type of every du and ddu entry of a
    point a sparse plan serves, or None.  Every entry must be finite and
    every part of a du entry below 2**500, so a product of two du entries
    is finite and its product with a zero is a zero; a complex point needs
    :data:`_PROMOTES`.  Decided once per point."""
    box = _at(point)[4]
    if not box:
        du = [z for row in point.du for z in row]
        ddu = [z for mat in point.ddu for row in mat for z in row]
        kind = type(du[0])
        ok = (kind is float or kind is complex and _PROMOTES) and \
            all(type(z) is kind for z in du + ddu)
        if ok and kind is complex:
            du = [p for z in du for p in (z.real, z.imag)]
            ddu = [p for z in ddu for p in (z.real, z.imag)]
        box.append(kind if ok and all(abs(p) < _DU_BOUND for p in du)
                   and all(map(math.isfinite, ddu)) else None)
    return box[0]


def _minus_zero(z):
    """Whether a float or complex has a -0.0 part."""
    return any(p == 0.0 and math.copysign(1.0, p) < 0.0
               for p in (z.real, z.imag))


def _tables(zeros, hess, n):
    """Per number type of :func:`_plan_kind`, the D_j D_i g table of a
    coefficient g whose gradient may be only the numbers ``zeros`` in its
    field slots and whose Hessian is ``hess``, else None.  Where those
    numbers and every Hessian entry in a field row or column are zeros and
    no entry of the x-block (i, j < n) has a -0.0 part, each term of
    :func:`_jets`' sum but the first is a zero at such a point, so it keeps
    its x-block start, complex where the point or an entry is
    (:data:`_PROMOTES`), so float takes a table only when every such entry
    is a float.  Equal tables are one list, shared by every field."""
    block = [row[:n] for row in hess[:n]]
    zeros = (*zeros, *(z for i, row in enumerate(hess) for z in
                       (row if i >= n else row[n:])))
    cells = (*zeros, *itertools.chain(*block))
    if any(type(z) not in (float, complex) for z in cells) or any(zeros) \
            or any(map(_minus_zero, itertools.chain(*block))):
        return None
    floats = all(type(z) is float for z in cells)
    return _TABLES.setdefault((repr(block), floats), {
        kind: [[kind(z) for z in row] for row in block]
        for kind in (complex,) + (float,) * floats})


def _plan(field):
    """(held, sparse, tables) of :attr:`VectorField.plan`, ``tables`` each
    coefficient's :func:`_tables` of its held slopes.  The sparse plan of a
    field whose slopes are all held is: per i, the k whose D_i xi^k is not
    0; per pair i < j, the terms (p, q, k), u_pk D_q xi^k, of eta_ij and of
    eta_ji whose D_q xi^k is not 0, in the formula's order; and per number
    type of :func:`_plan_kind`, the D_i xi^k (cols[i][k]), the D_i eta_r
    and the +0.0 D_j D_i eta_r table of that type (every eta's
    :func:`_tables`).  float takes a plan only when every slot is a
    float."""
    n, m = field.n_base, field.n_fields
    held = tuple(_probe(f, n, m) for f in field.xi + field.eta)
    tables = tuple(h and _tables(h[0][n:], h[1], n) for h in held)
    if None in held:
        return held, None, tables
    cells = [z for g, h in held for z in (*g, *itertools.chain(*h))]
    if any(type(z) not in (float, complex) for z in cells):
        return held, None, tables
    for c, (grad, hess) in enumerate(held):
        # every Hessian entry is 0; an eta has its +0.0 table and no -0.0
        # base slot; a xi is 0 in each field slot, and no nonzero slot is
        # -0.0
        flat = not any(itertools.chain(*hess)) and (
            tables[c] if c >= n else not any(grad[n:]))
        signed = grad[:n] if c >= n else [z for z in grad[:n] if z != 0]
        if not flat or any(map(_minus_zero, signed)):
            return held, None, tables
    rn = range(n)
    grads = [g for g, _ in held]
    ks = [tuple(k for k in rn if grads[k][i] != 0) for i in rn]
    # per pair i < j and per k, u_jk D_i xi^k then u_ik D_j xi^k for
    # eta_ij, the other order for eta_ji, each where its D xi^k is not 0
    terms = [[[[(j, i, k)] * (k in ks[i]) + [(i, j, k)] * (k in ks[j])
               for k in rn] for j in range(i + 1, n)] for i in rn]
    pairs = [[(sum(ts, []), sum((t[::-1] for t in ts), [])) for ts in row]
             for row in terms]
    kinds = (complex,) + (float,) * all(type(z) is float for z in cells)
    return held, (ks, pairs, {
        kind: ([[kind(grads[k][i]) for k in rn] for i in rn],
               [[kind(g) for g in grads[n + r][:n]] for r in range(m)],
               tables[n][kind])
        for kind in kinds}), tables


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
        """Flow row at a point, None in each block ``at`` does not read.

        Each entry is a running difference: a start value (D_i eta, or
        D_j D_i eta) minus the terms that read D_i xi^k and D_j D_i xi^k,
        in the order of the prolongation formula.  A dense row has every k
        and takes its values from the coefficients' jets (:func:`_jets`).
        A field's sparse plan (:attr:`VectorField.plan`), at a point of its
        number type (:func:`_plan_kind`), takes the start values and D_i
        xi^k from the plan and only the values from the jets, and drops
        every D_j D_i xi^k term and every term whose D xi^k factor is a
        zero.  Every row keeps its bits: its start has no -0.0 part, a
        difference that does not start at -0.0 never becomes -0.0, and
        subtracting a zero of either sign from it changes nothing.  A
        dense off-diagonal pair's eta_ij and eta_ji come from one k-loop
        that forms u_kj D_i xi^k and u_ik D_j xi^k once for both, reading
        u_jk for u_kj (a :class:`JetPoint` holds mirrored entries as one
        number)."""
        src = self.source
        n, m = src.n_base, src.n_fields
        if point.n_base != n or point.n_fields != m:
            raise ValueError("jet point does not match the operator's space")
        first, second = _blocks(n, m, at if at is None else tuple(at))
        du, ddu = point.du, point.ddu
        if src.plan is None:
            src.plan = _plan(src)
        held, plan, tables = src.plan
        sparse = plan and plan[2].get(_plan_kind(point))
        rn = range(n)  # made once, as in _jets
        if sparse:
            ks, pairs = plan[:2]
            cols, d_etas, dd_eta = sparse
            row = [_jets(f, point, 0, h)[0] for f, h in zip(src.xi, held)]
        else:
            ks = (rn,) * n
            xi, d_xi, dd_xi = zip(*[_jets(f, point, 1 + bool(second), h, t)
                                    for f, h, t in zip(src.xi, held, tables)])
            cols = list(zip(*d_xi))  # cols[i][k] = D_i xi^k
            row = list(xi)
        for r in range(m):
            if r not in first:
                row += [None] * (n + 1)
                continue
            if sparse:
                row.append(_jets(src.eta[r], point, 0, held[n + r])[0])
                d_eta = d_etas[r]
            else:
                eta, d_eta = _jets(src.eta[r], point, 1 + (r in second),
                                   held[n + r], tables[n + r])[:2]
                row.append(eta)
            du_r = du[r]
            for i in rn:
                val, col_i = d_eta[i], cols[i]
                for k in ks[i]:
                    val = val - du_r[k] * col_i[k]
                row.append(val)
        for r in range(m):
            if r not in second:
                row += [None] * (n * (n + 1) // 2)
                continue
            # eta_ij = D_j D_i eta - u_kj D_i xi^k - u_k D_j D_i xi^k
            #          - u_ik D_j xi^k
            du_r, ddu_r = du[r], ddu[r]
            if sparse:
                for i in rn:
                    col_i, ddu_ri, dd_eta_i = cols[i], ddu_r[i], dd_eta[i]
                    val = dd_eta_i[i]
                    for k in ks[i]:
                        a = ddu_ri[k] * col_i[k]
                        val = val - a - a
                    row.append(val)
                    for j, (terms_ij, terms_ji) in enumerate(pairs[i], i + 1):
                        ij, ji = dd_eta_i[j], dd_eta[j][i]
                        for p, q, k in terms_ij:
                            ij = ij - ddu_r[p][k] * cols[q][k]
                        for p, q, k in terms_ji:
                            ji = ji - ddu_r[p][k] * cols[q][k]
                        row.append((ij + ji) / 2.0)
                continue
            dd_eta = _jets(src.eta[r], point, 2, held[n + r], tables[n + r])[2]
            for i in rn:
                col_i, ddu_ri, dd_eta_i = cols[i], ddu_r[i], dd_eta[i]
                val = dd_eta_i[i]
                for k in rn:
                    a = ddu_ri[k] * col_i[k]
                    val = val - a - du_r[k] * dd_xi[k][i][i] - a
                row.append(val)
                for j in range(i + 1, n):
                    col_j, ddu_rj = cols[j], ddu_r[j]
                    ij, ji = dd_eta_i[j], dd_eta[j][i]
                    for k in rn:
                        a, c = ddu_rj[k] * col_i[k], ddu_ri[k] * col_j[k]
                        dd_k, du_rk = dd_xi[k], du_r[k]
                        ij = ij - a - du_rk * dd_k[i][j] - c
                        ji = ji - c - du_rk * dd_k[j][i] - a
                    row.append((ij + ji) / 2.0)
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


class Geometry(Record):
    """Base coordinates ``x1..xn`` after the ``leading`` ones (``x0``, or a
    time ``t`` that no contraction reads), under a ``metric_kind`` metric,
    and fields of ``field_kind``, complex on the slot pair (phi, phi*)."""

    leading: tuple
    metric_kind: str
    field_kind: FieldKind

    @property
    def time(self) -> bool:
        return self.leading == ("t",)

    def space(self, n: int):
        """(base names, compiler metric, contracted metric) in n dims."""
        names = [*self.leading, *(f"x{k}" for k in range(1, n + 1))]
        kind, nb = self.metric_kind, len(names)
        return names, Metric(kind, nb), Metric(kind, nb - self.time)


EUCLID = Geometry((), "euclidean", REAL)
MINKOWSKI = Geometry(("x0",), "minkowski", REAL)
GALILEI = Geometry(("t",), "euclidean", REAL)
GALILEI_PAIR = Geometry(("t",), "euclidean", COMPLEX)
# each family: its geometry; whether its points draw u > 0 (its basis
# takes fractional powers of u or divides by it); the spec parameters its
# generators and basis read, the only ones the CLI takes; its list line
_FAMILIES = {
    "AO": (EUCLID, False, ("m",), "rotations only; n >= 3, any m"),
    "AE": (EUCLID, False, ("m",), "translations + rotations; n >= 3, any m"),
    "AE1": (EUCLID, True, ("m", "lam"), "AE plus dilation (parameter lambda)"),
    "AC": (EUCLID, True, ("m", "lam"),
           "AE1 plus special conformal generators"),
    "AP": (MINKOWSKI, False, ("m",),
           "spacetime translations + pseudo-rotations; n >= 3"),
    "APtilde": (MINKOWSKI, True, ("m", "lam"),
                "AP plus dilation (parameter lambda)"),
    "AC1n": (MINKOWSKI, True, ("m", "lam"),
             "APtilde plus special conformal generators"),
    "AG_I": (GALILEI, False, ("m", "mu"), "time/space translations, "
             "rotations, boosts, field scaling (parameter mu)"),
    "AG1_I": (GALILEI, False, ("m", "lam", "mu"),
              "AG_I plus dilation (parameter lambda)"),
    "AG2_I": (GALILEI, False, ("m", "lam", "mu"), "AG1_I plus the "
              "projective generator (lambda = -n/2 when mu != 0)"),
    "AG_II": (GALILEI_PAIR, False, ("m", "mass"),
              "complex-pair analogue of AG_I (parameter mass)"),
    "AG1_II": (GALILEI_PAIR, False, ("m", "lam", "mass"),
               "complex-pair analogue of AG1_I"),
    "AG2_II": (GALILEI_PAIR, False, ("m", "lam", "mass"),
               "complex-pair analogue of AG2_I"),
    "AP_inf": (MINKOWSKI, False, ("functions",), "sampled generators of the "
               "eikonal equation's infinite algebra (seed, instances, "
               "extended)"),
    "AP_BornInfeld": (MINKOWSKI, False, (), "pseudo-rotations treating the "
                      "field as an extra base coordinate"),
}


class AlgebraSpec(Record, not_compared=("functions",)):
    """Named algebra with its parameters.

    ``n`` is the spatial dimension; the family's :class:`Geometry` names
    the base coordinates.  ``rep`` selects the representation for Galilei
    catalogs: "u" acts by u d/du, "log" acts on jets of log u (or log
    psi).  For AP_inf, ``seed`` and ``instances`` control the sampled
    coefficient functions and ``extended`` adds the u-dependent dilation
    term.
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
    functions: tuple = ()

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
        if self.geometry is GALILEI_PAIR and self.field_kind is not COMPLEX:
            raise ValueError(f"{self.name} acts on a complex field pair")
        if self.geometry is GALILEI_PAIR and self.m != 2:
            raise ValueError(f"{self.name} uses the slot pair (phi, phi*)")
        if self.rep not in ("u", "log"):
            raise ValueError("rep must be 'u' or 'log'")
        if not all(map(math.isfinite, (self.lam, self.mu, self.mass))):
            raise ValueError("lam, mu and mass must be finite")

    @property
    def geometry(self) -> Geometry:
        return _FAMILIES[self.name][0]

    @property
    def n_base(self) -> int:
        return self.n + len(self.geometry.leading)

    @property
    def n_fields(self) -> int:
        return self.m

    @property
    def boost(self) -> float:
        """exprlang's ``bth<r>`` weight: mu, or the pair's mass."""
        return self.mass if self.geometry is GALILEI_PAIR else self.mu


def make_spec(name: str, n: int, **kw) -> AlgebraSpec:
    """AlgebraSpec with family defaults applied."""
    pair = name in _FAMILIES and _FAMILIES[name][0] is GALILEI_PAIR
    if name.startswith("AG2") and kw.get("mass" if pair else "mu", 1.0) != 0:
        kw.setdefault("lam", -n / 2)
    if pair:
        kw = {"field_kind": GALILEI_PAIR.field_kind, "m": 2, **kw}
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


def algebra_space(spec: AlgebraSpec) -> dict:
    """The keyword arguments of ``exprlang.compiler`` that bind every text
    under ``spec`` (``invcat.text_binding``).  lam is pinned to 1.0 under a
    time binding, which never reads it, so the Galilei families of one
    boost weight share one compiler."""
    _, metric, _ = spec.geometry.space(spec.n)
    time = spec.geometry.time
    return {"n_base": metric.dim, "n_fields": spec.m, "metric": metric,
            "field_kind": spec.field_kind, "time_mode": time,
            "lam": 1.0 if time else spec.lam, "mu": spec.boost}


def bind_generators(spec: AlgebraSpec, rows) -> list:
    """Vector fields of (label, xi texts, eta texts) rows over the space of
    ``spec``, each text compiled once by ``exprlang.bind_coefficient``.  A
    row whose texts read no argument is marked with the coordinates its
    nonzero constants move (:attr:`VectorField.moves`)."""
    # imported here: exprlang imports invcat, which imports this module
    from .exprlang import bind_coefficient
    nb, m = spec.n_base, spec.m
    args = algebra_space(spec)
    binding = args["metric"], args["field_kind"], args["time_mode"]
    zeros = (0.0,) * nb, (0.0,) * m
    # per distinct text: its function; for an argument-free text whether
    # its constant is nonzero (None when it reads an argument)
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
    x, metric, _ = spec.geometry.space(spec.n)
    u = [f"u{r}" for r in range(1, spec.m + 1)]
    if spec.geometry.time:
        return _galilei_rows(spec, x, u)
    # the Euclid families, or the Poincare ones with their metric signs
    nb, lam = len(x), spec.lam
    g = None if metric.kind == "euclidean" else metric.signs
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
    nb, cplx, lam = len(x), spec.geometry is GALILEI_PAIR, repr(spec.lam)
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

    def lanes(self, w, second):
        """Horner's rule at u = ``w`` on the two-argument :class:`Jet2`
        pass over (phantom, u), in floats: the jet's value and its lanes,
        the inner and outer gradients, then with ``second`` the Hessian
        entries (phantom, phantom), (phantom, u) and (u, u).  Each lane
        repeats its jet rule's operations in their order, u's seed lanes
        the constants 0.0 and 1.0, from out = 0.0, whose product with u is
        w * 0.0 and all +0.0 lanes.  With no coefficient it is the number
        0.0, as in the plain pass."""
        cs = reversed(self.coeffs)
        v = next(cs, None)
        if v is None:
            return 0.0
        v = w * 0.0 + v
        i0 = i1 = o0 = o1 = h00 = h01 = h11 = 0.0
        for c in cs:
            z, e = v * 0.0, v * 1.0
            if second:
                h00, h01, h11 = (
                    (z + i0 * 0.0) + (o0 * 0.0 + h00 * w),
                    (z + i0 * 1.0) + (o1 * 0.0 + h01 * w),
                    (z + i1 * 1.0) + (o1 * 1.0 + h11 * w))
            i0, i1, o0, o1 = z + i0 * w, e + i1 * w, z + o0 * w, e + o1 * w
            v = v * w + c
        return v, [i0, i1, o0, o1, h00, h01, h11] if second else \
            [i0, i1, o0, o1]


def _alone(fn, w, second, passes):
    """The two-argument pass over (phantom, u) of a function ``fn`` of u
    alone at u = ``w``, kept in ``passes`` by function and depth: (the
    jet's value, its lanes), or the number ``fn`` returns.  Jet rules are
    slot-wise, so each lane of a wider pass of ``fn`` is one of these: a
    lane of an argument other than u is the phantom's."""
    out = passes.get((fn, second))
    if out is None:
        if type(fn) is PolynomialOfU:
            out = fn.lanes(w, second)
        else:
            out = fn(seed_jets((w, w), second)[1])
            if isinstance(out, Jet2):
                out = out.value, out.d
        passes[fn, second] = out
    return out


def _term(b, sign, x, second):
    """The distinct lanes of a pass's product (sign * b(u)) * x_nu, or
    b(u) * x_nu when ``sign`` is None, at x_nu = ``x`` from b's pass
    (:func:`_alone`), no inner lane among them: the outer lanes of x_nu,
    u and any other x, then with ``second`` the Hessian lanes (x, x),
    (x_nu, x), (x, x_nu), (x_nu, x_nu), (x, u), (x_nu, u) and (u, u), x
    standing for any x but x_nu.  They repeat ``Jet2._mul``'s operations
    and order, x_nu's seed lanes the constants 0.0 and 1.0; a number b(u)
    takes the constant branch, x_nu's seed lanes times it."""
    if type(b) is not tuple:
        c = b if sign is None else sign * b
        one, zero = 1.0 * c, 0.0 * c
        return [one, zero, zero] + [zero] * 7 if second else [one, zero, zero]
    v, lanes = b
    if sign is not None:
        v, lanes = v * sign, [a * sign for a in lanes]
    i0, i1, o0, o1 = lanes[:4]
    z = v * 0.0
    out = [v * 1.0 + o0 * x, z + o1 * x, z + o0 * x]
    if second:
        h00, h01, h11 = lanes[4:]
        a0, a1, hx, hu = z + i0 * 0.0, z + i0 * 1.0, h00 * x, h01 * x
        c0, c1, d0, d1 = o0 * 0.0 + hx, o0 * 1.0 + hx, o1 * 0.0 + hu, \
            o1 * 1.0 + hu
        out += [a0 + c0, a0 + c1, a1 + c0, a1 + c1, a0 + d0, a0 + d1,
                (z + i1 * 0.0) + (o1 * 0.0 + h11 * x)]
    return out


@functools.cache
def _lane_tables(k, second):
    """Index tables of :meth:`EikonalCoefficient.value_grad_hess` over k
    arguments, u the last.  The lanes it reads are the outer gradient,
    then with ``second`` the Hessian entries (i, j), i <= j, row by row.
    Per lane: the lane of a function of u alone's two-argument pass
    (:func:`_alone`), and per nu < k - 1 the place in :func:`_term`'s list
    of a product with x_nu; then the lane of each Hessian entry, by row."""
    u = k - 1
    pairs = [(i, j) for i in range(k) for j in range(i, k)] if second else []
    alone = [3 if j == u else 2 for j in range(k)] + [
        6 if i == u else 5 if j == u else 4 for i, j in pairs]
    terms = [[0 if j == nu else 1 if j == u else 2 for j in range(k)] + [
        9 if i == u else (8 if i == nu else 7) if j == u else
        3 + (i == nu) + 2 * (j == nu) for i, j in pairs] for nu in range(u)]
    places = [[None] * k for _ in range(k)]
    for p, (i, j) in enumerate(pairs, k):
        places[i][j] = places[j][i] = p
    return tuple(alone), tuple(map(tuple, terms)), tuple(map(tuple, places))


class EikonalCoefficient:
    """A coefficient of an AP_inf generator (:func:`_eikonal_family`),
    a(u) plus one term (s * b(u)) * x_nu per (b, nu, s) of ``terms``, or
    b(u) * x_nu where s is None, for functions a and b of u alone.

    :meth:`value_grad_hess` gives a coefficient jet pass's bits from
    each function's one-variable pass (:func:`_alone`): no pass is made
    at full width."""

    __slots__ = ("a", "terms")

    def __init__(self, a, terms=()):
        self.a = a
        self.terms = tuple(terms)

    def __call__(self, xs, us):
        u = us[0]
        val = self.a(u)
        for b, nu, sign in self.terms:
            val = val + (b(u) if sign is None else sign * b(u)) * xs[nu]
        return val

    def value_grad_hess(self, args, hessian=True, passes=None):
        """What ``dual.value_grad_hess(lambda a: self(a[:n], a[n:]),
        args, hessian)`` returns, n = len(args) - 1, bit for bit.  The
        value is the plain pass's; each lane read sums a(u)'s lane and each
        term's (:func:`_term`) in the pass's order.  ``passes`` keeps the
        one-variable passes (:func:`_alone`) of the functions at ``args``
        for other coefficients there."""
        k, w = len(args), args[-1]
        val = self(args[:-1], args[-1:])
        passes = {} if passes is None else passes
        alone, terms, places = _lane_tables(k, hessian)
        a = _alone(self.a, w, hessian, passes)
        acc = [a[1][c] for c in alone] if type(a) is tuple else None
        for b, nu, sign in self.terms:
            lanes = _term(_alone(b, w, hessian, passes), sign, args[nu],
                          hessian)
            acc = [lanes[c] for c in terms[nu]] if acc is None else \
                [s + lanes[c] for s, c in zip(acc, terms[nu])]
        if acc is None:
            return val, [0.0] * k, \
                [[0.0] * k for _ in range(k)] if hessian else None
        return val, acc[:k], \
            [[acc[q] for q in row] for row in places] if hessian else None


def _sample_poly(rng):
    return PolynomialOfU([_signed(rng) for _ in range(3)])


def sample_eikonal_functions(n: int, seed: int, extended: bool) -> dict:
    """One draw of the arbitrary functions, in this order by the names that
    override them: ``b{mu}{nu}`` (mu < nu), ``a{mu}``, ``eta`` [, ``d``]."""
    rng = random.Random(f"apinf:{n}:{seed}")
    nb = n + 1
    names = [f"b{mu}{nu}" for mu in range(nb) for nu in range(mu + 1, nb)]
    names += [f"a{mu}" for mu in range(nb)] + ["eta"] + ["d"] * extended
    return {name: _sample_poly(rng) for name in names}


# AP_inf's override names; an index is decimal digits, which int() reads
_OVERRIDE = re.compile(r"eta|d|b(\d)(\d)|a(\d+)")


def _eikonal_family(spec: AlgebraSpec):
    """Sampled generators of the infinite symmetry algebra of the eikonal
    equation: (b^{mu nu}(u) x_nu + a^mu(u)) d/dx_mu + eta(u) d/du, with the
    repeated Greek index contracted through the metric, optionally extended
    by d(u) x_mu d/dx_mu (plain dilation sum).

    ``spec.functions`` may override sampled components by name: ``b{mu}{nu}``
    (mu < nu), ``a{mu}``, ``eta``, ``d``; overrides apply to every instance,
    and a name given twice is refused.
    """
    nb, g = spec.n_base, spec.geometry.space(spec.n)[1].signs
    # the functions given, by the sampled name each replaces: its indices
    # read by int(), so a٣ and a00 replace a3 and a0
    overrides = {}
    for name, fn in spec.functions:
        m = _OVERRIDE.fullmatch(name)
        if m is None:
            raise ValueError(f"unknown coefficient function {name!r}")
        if name == "d" and not spec.extended:
            raise ValueError("a 'd' function needs extended=True")
        if m[1] and not 0 <= int(m[1]) < int(m[2]) <= spec.n:
            raise ValueError(f"bad antisymmetric component {name!r}")
        if m[3] and not 0 <= int(m[3]) <= spec.n:
            raise ValueError(f"bad translation component {name!r}")
        key = f"b{int(m[1])}{int(m[2])}" if m[1] else \
            f"a{int(m[3])}" if m[3] else name
        if key in overrides:
            raise ValueError(f"coefficient function {key!r} given twice")
        overrides[key] = fn

    def make_xi(k, fns):
        # g_nu b^{k nu}(u) x_nu for each nu != k, where b^{nu k} = -b^{k nu}
        terms = [(fns[f"b{min(k, nu)}{max(k, nu)}"], nu,
                  g[nu] if k < nu else -g[nu]) for nu in range(nb) if nu != k]
        if "d" in fns:
            terms.append((fns["d"], k, None))
        return EikonalCoefficient(fns[f"a{k}"], terms)

    fields = []
    for inst in range(spec.instances):
        fns = {**sample_eikonal_functions(spec.n, spec.seed + inst,
                                          spec.extended), **overrides}
        # coefficients made afresh per call hold no slopes: probing them
        # would cost each call a pass per coefficient and grow _probe's
        # cache; their lane kernel stands for a pass (_jets)
        fields.append(VectorField(
            nb, 1, [make_xi(k, fns) for k in range(nb)],
            [EikonalCoefficient(fns["eta"])],
            f"X{inst}{'+d' if spec.extended else ''}",
            plan=((None,) * (nb + 1), None, (None,) * (nb + 1))))
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
