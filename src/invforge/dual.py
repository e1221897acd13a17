"""Forward-mode differentiation on dual numbers and flat jets.

A :class:`Dual` carries a value together with the derivative of that value
along a seeded input direction.  Arithmetic is generic over the payload:
the two slots may hold floats, complex numbers, or further ``Dual`` values
(nesting one level gives exact second derivatives).  All rules are the
algebraic product/quotient/chain rules, so results are exact to rounding.

Vector mode is a :class:`Jet1`: a value and one flat list of its
derivatives along k directions, so one evaluation gives a whole gradient.
Every operation applies the scalar ``Dual`` formula to each slot with the
operands in the same order, so slot j equals a scalar pass seeded along
direction j bit for bit, signed zeros included.  An unseeded read carries
a list of k zeros.

Hessians (:func:`value_grad_hess`) come from one pass on flat
second-order jets (:class:`Jet2`; Griewank & Walther, *Evaluating
Derivatives*, ch. 13; the hyper-dual numbers of Fike & Alonso, 2011).
A jet stands for the nested dual whose both layers are vectors over every
direction and makes, slot by slot, that dual's IEEE operations in the same
order, so every entry equals a nested pass's bit for bit.  Because the
rules are slot-wise, ``liealg.EikonalCoefficient`` replays them in floats
from two-argument passes and gets a wider pass's bits without making it.
Under ``+ - *`` and ``/`` by a constant a :class:`Jet1` slot takes the
same operations as a :class:`Jet2` outer gradient slot, so where
``liealg._hessians`` holds a coefficient's Hessian a Jet1 pass gives the
rest of the Jet2 pass's bits.

Both jets share one base, ``_Jet``, that writes once each rule treating
every slot alike: ``+``, ``-`` (both reflected), unary ``-``, ``*`` and
``/`` by a constant, and ``**`` with a jet exponent or a jet as exponent.
A jet takes any non-jet operand as a constant, whatever its number type,
as operator-overloading AD treats every passive value.  Jets combined in
one operation must come from one pass; nothing compares their k.
"""

from __future__ import annotations

import cmath
import functools
import math

_NUMBERS = (int, float, complex)


class EvaluationError(ArithmeticError):
    """A numeric evaluation could not proceed (non-finite intermediate,
    singular linear solve, or domain violation)."""


class Dual:
    """Value plus directional derivative along a single seeded direction."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0.0):
        self.value = value
        self.deriv = deriv

    def __repr__(self):
        return f"Dual({self.value!r}, {self.deriv!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        if isinstance(other, _NUMBERS):
            return Dual(self.value + other, self.deriv)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.deriv - other.deriv)
        if isinstance(other, _NUMBERS):
            return Dual(self.value - other, self.deriv)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBERS):
            return Dual(other - self.value, -self.deriv)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.value * other.deriv + self.deriv * other.value,
            )
        if isinstance(other, _NUMBERS):
            return Dual(self.value * other, self.deriv * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            return Dual(
                self.value * inv,
                (self.deriv - self.value * inv * other.deriv) * inv,
            )
        if isinstance(other, _NUMBERS):
            return Dual(self.value / other, self.deriv / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBERS):
            inv = 1.0 / self.value
            return Dual(other * inv, -other * inv * inv * self.deriv)
        return NotImplemented

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __pos__(self):
        return self

    def __pow__(self, expo):
        if isinstance(expo, Dual):
            # f^g = exp(g log f); requires f away from the branch cut.
            return dexp(expo * dlog(self))
        if isinstance(expo, int) and expo == 0:
            return Dual(self.value ** 0, 0.0 * self.deriv)
        if isinstance(expo, _NUMBERS):
            return Dual(
                self.value ** expo,
                expo * self.value ** (expo - 1) * self.deriv,
            )
        return NotImplemented

    def __rpow__(self, base):
        if isinstance(base, _NUMBERS):
            return dexp(self * _scalar_log(base))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.value == other.value and self.deriv == other.deriv
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.deriv))


class _Jet:
    """The slot-wise rules of both jets.  A subclass supplies ``_new``,
    ``_mul``, ``_div``, ``__rtruediv__``, ``_power``, ``_exp`` and ``_log``."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, _Jet):
            return self._new(self.value + other.value,
                             [a + b for a, b in zip(self.d, other.d)])
        return self._new(self.value + other, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Jet):
            return self._new(self.value - other.value,
                             [a - b for a, b in zip(self.d, other.d)])
        return self._new(self.value - other, self.d)

    def __rsub__(self, other):
        return self._new(other - self.value, [-a for a in self.d])

    def __neg__(self):
        return self._new(-self.value, [-a for a in self.d])

    def __mul__(self, other):
        if isinstance(other, _Jet):
            return self._mul(other)
        return self._new(self.value * other, [a * other for a in self.d])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Jet):
            return self._div(other)
        return self._new(self.value / other, [a / other for a in self.d])

    def __pow__(self, expo):
        if isinstance(expo, _Jet):
            # f^g = exp(g log f); requires f away from the branch cut.
            return dexp(expo * dlog(self))
        return self._power(expo)

    def __rpow__(self, base):
        return dexp(self * _scalar_log(base))


class Jet1(_Jet):
    """First-order forward-mode jet over k directions, held flat: the value
    and the list ``d`` of its k directional derivatives.

    Slot j of every result is what the scalar :class:`Dual` formula gives
    for slot j of the operands: ``vx*b + a*vy`` for a product, ``(a -
    t*b)*inv`` with ``t = vx*inv`` for a quotient.  No slot is ever changed
    in place, so seeds and zero lists may be shared by every jet built from
    them.
    """

    __slots__ = ("value", "d")

    def __init__(self, value, d):
        self.value = value
        self.d = d

    def __repr__(self):
        return f"Jet1({self.value!r}, {self.d!r})"

    def _new(self, value, d):
        return Jet1(value, d)

    def _mul(self, other):
        vx, vy = self.value, other.value
        return Jet1(vx * vy,
                    [vx * b + a * vy for a, b in zip(self.d, other.d)])

    def _div(self, other):
        inv = 1.0 / other.value
        t = self.value * inv
        return Jet1(t, [(a - t * b) * inv for a, b in zip(self.d, other.d)])

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        c = -other * inv * inv
        return Jet1(other * inv, [c * a for a in self.d])

    def _power(self, expo):
        v = self.value
        if isinstance(expo, int) and expo == 0:
            return Jet1(v ** 0, [0.0 * a for a in self.d])
        c = expo * v ** (expo - 1)
        return Jet1(v ** expo, [c * a for a in self.d])

    def _exp(self):
        e = _scalar_exp(self.value)
        return Jet1(e, [e * a for a in self.d])

    def _log(self):
        v = self.value
        return Jet1(_scalar_log(v), [a / v for a in self.d])


class Jet2(_Jet):
    """Second-order forward-mode jet over k arguments, held flat.

    It stands for the nested dual ``Dual(Dual(value, inner), outer')``
    whose outer component j is ``Dual(outer[j], column j of the Hessian)``.
    ``d`` lists the inner gradient, the outer gradient and the Hessian
    entries the pass carries.  ``shape`` (:func:`jet2_shape`) is (k, slots,
    pairs): pairs[p] = (q, i, j), the places in ``d`` of Hessian entry p
    and of the gradient entries it reads; slots is (g, g, g) per gradient
    place g, then pairs.  The two gradients start equal but part after
    ``/``, ``1/x`` and :func:`dlog`, and Hessian entries read both, so both
    are kept.  No value or gradient slot reads a Hessian entry, and no slot
    is ever changed in place.
    """

    __slots__ = ("value", "d", "shape")

    def __init__(self, value, d, shape):
        self.value = value
        self.d = d
        self.shape = shape

    def _new(self, value, d):
        return Jet2(value, d, self.shape)

    def _mul(self, other):
        vx, dx, vy, dy = self.value, self.d, other.value, other.d
        return Jet2(vx * vy, [
            vx * dy[p] + dx[p] * vy if p == i else
            (vx * dy[p] + dx[i] * dy[j]) + (dx[j] * dy[i] + dx[p] * vy)
            for p, i, j in self.shape[1]], self.shape)

    def _div(self, other):
        (k, _, pairs), vx, dx, dy = self.shape, self.value, self.d, other.d
        w = 1.0 / other.value  # 1.0 / y as Dual.__rtruediv__ forms it
        iv, s = 1.0 * w, -1.0 * w * w
        ig = [s * a for a in dy[:k]]
        p = vx * iv
        # the quotient's inner gradient, then the outer numerators
        t = [vx * b + a * iv for a, b in zip(dx, ig)]
        t += [a - p * b for a, b in zip(dx[k:2 * k], dy[k:])]
        out = t[:k] + [a * iv for a in t[k:]]
        out += [t[j] * ig[i] + (dx[q] - (p * dy[q] + t[i] * dy[j])) * iv
                for q, i, j in pairs]
        return Jet2(p, out, self.shape)

    def __rtruediv__(self, other):
        (k, _, pairs), d = self.shape, self.d
        w = 1.0 / self.value
        iv, s = 1.0 * w, -1.0 * w * w
        ig = [s * a for a in d[:k]]
        neg = -other
        c = iv * neg
        cc = c * iv
        cg = [c * a + (a * neg) * iv for a in ig]
        out = [a * other for a in ig] + [cc * a for a in d[k:2 * k]]
        out += [cc * d[q] + cg[i] * d[j] for q, i, j in pairs]
        return Jet2(iv * other, out, self.shape)

    def _power(self, expo):
        (k, _, pairs), v, d = self.shape, self.value, self.d
        if isinstance(expo, int) and expo == 0:
            return Jet2(v ** 0, [0.0 * a for a in d[:k]]
                        + [a * 0.0 for a in d[k:]], self.shape)
        # the nested pass's expo * x ** (expo - 1) * outer', the inner power
        # taken as Dual.__pow__ takes it
        e1 = expo - 1
        c = expo * v ** e1
        if isinstance(e1, int) and e1 == 0:
            ek, ekg = v ** 0 * expo, [(0.0 * a) * expo for a in d[:k]]
        else:
            c1 = e1 * v ** (e1 - 1)
            ek, ekg = v ** e1 * expo, [(c1 * a) * expo for a in d[:k]]
        out = [c * a for a in d[:k]] + [ek * a for a in d[k:2 * k]]
        out += [ek * d[q] + ekg[i] * d[j] for q, i, j in pairs]
        return Jet2(v ** expo, out, self.shape)

    def _exp(self):
        (k, _, pairs), d = self.shape, self.d
        e = _scalar_exp(self.value)
        out = [e * a for a in d[:2 * k]]
        out += [e * d[q] + out[i] * d[j] for q, i, j in pairs]
        return Jet2(e, out, self.shape)

    def _log(self):
        # the inner gradient divides by x, the outer one multiplies by 1/x
        (k, _, pairs), v, d = self.shape, self.value, self.d
        lg = _scalar_log(v)
        w = 1.0 / v
        out = [a / v for a in d[:k]] + [a * w for a in d[k:2 * k]]
        out += [(d[q] - out[j] * d[i]) * w for q, i, j in pairs]
        return Jet2(lg, out, self.shape)


def derivs(x, k):
    """The k directional derivatives of a vector-mode result ``x``; a
    non-jet has derivative 0.0 along each direction."""
    return x.d if isinstance(x, Jet1) else [0.0] * k


def value_of(x):
    """Strip all dual and jet layers and return the underlying number."""
    while isinstance(x, (Dual, _Jet)):
        x = x.value
    return x


def magnitude(x):
    """Absolute value of the underlying number (pivoting / tolerances)."""
    return abs(value_of(x))


def _scalar_exp(v):
    return cmath.exp(v) if isinstance(v, complex) else math.exp(v)


def _scalar_log(v):
    if v == 0:
        raise EvaluationError("log of zero")
    if isinstance(v, complex):
        return cmath.log(v)
    if v <= 0.0:
        return cmath.log(complex(v))
    return math.log(v)


def dexp(x):
    if isinstance(x, _Jet):
        return x._exp()
    if isinstance(x, Dual):
        e = dexp(x.value)
        return Dual(e, e * x.deriv)
    return _scalar_exp(x)


def dlog(x):
    if isinstance(x, _Jet):
        return x._log()
    if isinstance(x, Dual):
        return Dual(dlog(x.value), x.deriv / x.value)
    return _scalar_log(x)


def is_finite(x) -> bool:
    v = value_of(x)
    if isinstance(v, complex):
        return math.isfinite(v.real) and math.isfinite(v.imag)
    return math.isfinite(v)


def jet2_shape(k, pairs):
    """:class:`Jet2` shape over k arguments carrying the Hessian entries
    ``pairs``, each a pair (i, j) of argument indices."""
    hess = tuple((2 * k + p, i, k + j) for p, (i, j) in enumerate(pairs))
    return k, tuple((p, p, p) for p in range(2 * k)) + hess, hess


@functools.cache
def _jet_seeds(k, hessian):
    """Shape and slots of the k seeded arguments of a pass at a depth, and
    with ``hessian`` the place in ``d`` of each Hessian entry (i, j), row
    by row, made once: argument a has the unit vector along a as both
    gradients."""
    pairs = [(i, j) for i in range(k) for j in range(i, k)] if hessian else []
    units = [tuple(float(i == a) for i in range(k)) for a in range(k)]
    shape = jet2_shape(k, pairs)
    places = [[None] * k for _ in range(k)]
    for q, i, j in shape[2]:
        places[i][j - k] = places[j - k][i] = q
    return shape, tuple(e + e + (0.0,) * len(pairs) for e in units), \
        tuple(map(tuple, places)) if hessian else None


def seed_jets(args, hessian=True):
    """The seeded :class:`Jet2` arguments of a pass over ``args`` at a
    depth.  No jet is changed in place, so passes may share them."""
    shape, seeds, _ = _jet_seeds(len(args), hessian)
    return [Jet2(a, d, shape) for a, d in zip(args, seeds)]


def value_grad_hess(fn, args, hessian=True, seeded=None):
    """Value, gradient, and full Hessian of ``fn(args)``: a coefficient's
    jet pass, made where neither its slopes nor its Hessian are held
    (``liealg._probe``, ``liealg._hessians``) or its Jet1 pass is not
    finite, but not for AP_inf's, whose lane kernel
    (``liealg.EikonalCoefficient``) returns this call's bits.

    Two passes: the plain value pass and one :class:`Jet2` pass, whose
    outer gradient is the gradient and whose Hessian entry (i, j), i <= j,
    is one slot placed at ``hess[i][j]`` and ``hess[j][i]`` by the index
    table of :func:`_jet_seeds`.  With ``hessian`` false the pass carries
    no Hessian entries, ``hess`` is None and the rest keeps its bits.  A
    caller making several passes over one ``args`` may hand each the same
    ``seeded`` = ``seed_jets(args, hessian)``.

    If the jet pass returns a non-jet, ``fn`` combined no seeded argument
    and the gradient and Hessian are returned as zeros.  That is exact
    provided whether ``fn`` uses an argument does not depend on argument
    values, i.e. ``fn`` never branches on a jet's value; no catalog
    coefficient and no ``exprlang``-bound function does.
    """
    n = len(args)
    val = value_of(fn(list(args)))
    out = fn(list(seeded or seed_jets(args, hessian)))
    if not isinstance(out, Jet2):
        return val, [0.0] * n, \
            [[0.0] * n for _ in range(n)] if hessian else None
    d = out.d
    hess = [[d[q] for q in row] for row in _jet_seeds(n, True)[2]] \
        if hessian else None
    return val, list(d[n:2 * n]), hess
