"""Forward-mode differentiation on dual numbers.

A :class:`Dual` carries a value together with the derivative of that value
along a seeded input direction.  Arithmetic is generic over the payload:
the two slots may hold floats, complex numbers, or further ``Dual`` values
(nesting one level gives exact second derivatives).  All rules are the
algebraic product/quotient/chain rules, so results are exact to rounding.

Vector mode: the derivative slot may hold a :class:`DerivVector`, the
derivatives along k directions at once, so one evaluation gives a whole
gradient.  A derivative slot only ever meets another derivative slot, a
number or, when duals are nested, a value of the inner layer (a ``Dual``
that multiplies or divides it).  Every such operation applies the scalar
formula to each component with the operands in the same order.  Component
k therefore goes through the same IEEE operations as a scalar pass seeded
along direction k and equals it bit for bit, signed zeros included.  A
scalar ``0.0`` in a derivative slot (an unseeded read) stands for the same
value in every direction, and combining it with a vector gives what a zero
vector would.

Both layers of a nested pass can be vectors: the inner derivative slot
holds numbers along every direction i, the outer one inner duals along
every direction j.  Outer component j then runs exactly the operations of
a nested pass seeded along j alone, so one pass gives the whole Hessian
with every entry equal to the one that pass would give (see
:func:`value_grad_hess`).
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
        if isinstance(expo, int):
            if expo == 0:
                return Dual(self.value ** 0, 0.0 * self.deriv)
            return Dual(
                self.value ** expo,
                expo * self.value ** (expo - 1) * self.deriv,
            )
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


def derivs(x, k):
    """The k directional derivatives of a vector-mode result ``x``.

    A scalar derivative slot never met a seeded read, so it is the value
    along every direction; a non-dual has derivative 0.0 along each.
    """
    d = x.deriv if isinstance(x, Dual) else 0.0
    return d.comps if isinstance(d, DerivVector) else [d] * k


def value_of(x):
    """Strip all dual layers and return the underlying number."""
    while isinstance(x, Dual):
        x = x.value
    return x


def magnitude(x):
    """Absolute value of the underlying number (pivoting / tolerances)."""
    return abs(value_of(x))


def _scalar_exp(v):
    return cmath.exp(v) if isinstance(v, complex) else math.exp(v)


def _scalar_log(v):
    if isinstance(v, complex):
        return cmath.log(v)
    if v <= 0.0:
        return cmath.log(complex(v))
    return math.log(v)


def dexp(x):
    if isinstance(x, Dual):
        e = dexp(x.value)
        return Dual(e, e * x.deriv)
    return _scalar_exp(x)


def dlog(x):
    if isinstance(x, Dual):
        return Dual(dlog(x.value), x.deriv / x.value)
    return _scalar_log(x)


def is_finite(x) -> bool:
    v = value_of(x)
    if isinstance(v, complex):
        return math.isfinite(v.real) and math.isfinite(v.imag)
    return math.isfinite(v)


def value_grad(fn, args):
    """Value of ``fn(args)`` and its gradient with respect to each arg.

    One vector-mode forward pass; exact derivatives.
    """
    n = len(args)
    out = fn([Dual(a, e) for a, e in zip(args, unit_derivs(n))])
    return value_of(out), list(derivs(out, n))


@functools.cache
def _hess_seeds(k):
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


def value_grad_hess(fn, args):
    """Value, gradient, and full Hessian of ``fn(args)`` via nested duals.

    Two passes: the plain value pass and one nested pass in which both dual
    layers are vectors over every direction (see :class:`DerivVector`).
    Outer component j is the derivative along j, still in the inner ring:
    its value part is ``grad[j]`` and its inner component i the (i, j)
    Hessian entry.  Entry (i, j) for i <= j is taken from component j, and
    ``hess[j][i]`` is a copy of it.  Each component goes through the same
    operations as a nested pass seeded along j alone, so every entry equals
    the one such a pass gives, bit for bit.

    If the nested pass returns a non-dual, ``fn`` combined no seeded
    argument and the gradient and Hessian are returned as zeros.  That is
    exact provided whether ``fn`` uses an argument does not depend on
    argument values, i.e. ``fn`` never branches on a dual's value; no
    catalog coefficient and no ``exprlang``-bound function does.
    """
    n = len(args)
    val = value_of(fn(list(args)))
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    out = fn([Dual(Dual(a, e), d) for a, (e, d) in zip(args, _hess_seeds(n))])
    if not isinstance(out, Dual):
        return val, grad, hess
    for j, dj in enumerate(derivs(out, n)):
        col = derivs(dj, n)
        for i in range(j + 1):
            hess[i][j] = hess[j][i] = col[i]
        grad[j] = value_of(dj)
    return val, grad, hess
