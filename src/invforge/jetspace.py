"""Second-order jet coordinates for m scalar fields over N base coordinates.

A :class:`JetPoint` stores numeric values for the base coordinates ``x_i``,
the field values ``u^r``, all first derivatives ``u^r_i`` and all second
derivatives ``u^r_ij``.  The second derivatives of field r form the full
symmetric matrix U_r = (u^r_ij), stored as a tuple of row tuples, so
``ddu[r-1][i][j]`` and ``ddu[r-1][j][i]`` read the same number.  The
coordinate ids still name one unordered pair once (``d2_coord`` puts
i <= j).

Base indices are 0-based (index 0 is the timelike coordinate for the
Minkowski metric and the time coordinate in Galilean setups); field indices
are 1-based.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from itertools import compress


class _Signature:
    """A record class's ``__signature__``: its fields in order, each by
    position or keyword, with its default where it has one.  Built when
    read, so ``inspect`` is imported only by a caller that asks for it."""

    def __get__(self, record, cls):
        from inspect import Parameter, Signature
        return Signature([Parameter(
            name, Parameter.POSITIONAL_OR_KEYWORD,
            default=cls._defaults.get(name, Parameter.empty))
            for name in cls._fields])


class Record:
    """Base of invforge's frozen records.

    A subclass's fields are its bases' fields, then its own annotated
    names in order, read once when the class is made.  A field's default
    is the class attribute of its name; a class whose fields are
    ``__slots__`` gives its defaults as the ``defaults`` class keyword.
    The fields the ``not_compared`` class keyword names are left out of
    ``==`` and the hash.

    A record is built by position or keyword, then checked by its
    ``__post_init__``, if it has one.  It refuses assignment and deletion,
    equals only a record of its own class whose compared fields are equal,
    hashes as the tuple of those fields, has the repr
    ``Name(field=value, ...)`` and is copied and pickled by its fields.
    :meth:`copy_with` makes a changed copy.  ``inspect.signature`` of a
    record class reads its fields and defaults.
    """

    __slots__ = ("_key",)  # the tuple of the compared fields
    __signature__ = _Signature()
    _fields = ()
    _defaults = {}
    _not_compared = ()

    def __init_subclass__(cls, defaults=None, not_compared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = fields = (*cls._fields, *own)
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in own
            if name in cls.__dict__ and name not in slots}, **(defaults or {})}
        cls._not_compared = skip = (*cls._not_compared, *not_compared)
        compared = tuple(name not in skip for name in fields)
        cls.__init__ = _initializer(cls, None if all(compared) else compared)

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values, in order, of a call with ``args`` and
        ``kwargs``; a call that names no value for a field without a
        default, too many values or an unknown field raises TypeError."""
        fields, where = cls._fields, f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{where} takes {len(fields) + 1} positional "
                            f"arguments but {len(args) + 1} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(
                    f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(
                    f"{where} got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in fields
                   if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required "
                            f"argument(s): {', '.join(map(repr, missing))}")
        return tuple(values[name] if name in values else cls._defaults[name]
                     for name in fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __reduce__(self):
        # copies and pickles are built by the constructor
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def copy_with(self, **changes):
        """A record of this class with the fields ``changes`` names set to
        its values and every other field as here, built and checked as a
        new one."""
        return type(self)(*[changes.pop(name) if name in changes
                            else getattr(self, name)
                            for name in self._fields], **changes)


def _initializer(cls, mask):
    """``cls.__init__``: binds a call's arguments to the fields, stores
    them and the tuple of the compared ones (all, or those ``mask`` marks)
    and runs ``__post_init__``, if ``cls`` has one.  Each value is stored
    by ``object.__setattr__``, as a frozen dataclass stores it, so a record
    keeps its fields in slots or in the inline instance values that
    CPython reads fastest: filling the instance ``__dict__`` instead made
    every field read several times slower on CPython 3.11."""
    fields, bind = cls._fields, cls._bind
    arity = len(fields)
    checked = hasattr(cls, "__post_init__")
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for name, value in zip(fields, args):
            set_field(self, name, value)
        set_field(self, "_key", args if mask is None
                  else tuple(compress(args, mask)))
        if checked:
            self.__post_init__()

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return __init__


class FieldKind(Enum):
    REAL = "real"
    COMPLEX = "complex"

    def conjugate_index(self, r: int, n_fields: int) -> int:
        """Slot holding the conjugate of field ``r``.

        Complex fields occupy paired slots: fields 1..m/2 and their
        conjugates m/2+1..m.  For real fields the partner is the field
        itself.
        """
        if self is FieldKind.REAL:
            return r
        half = n_fields // 2
        return r + half if r <= half else r - half


REAL = FieldKind.REAL
COMPLEX = FieldKind.COMPLEX


class Metric(Record):
    """Diagonal contraction weights: euclidean identity or diag(1,-1,...,-1)."""

    kind: str  # "euclidean" | "minkowski"
    dim: int

    def __post_init__(self):
        if self.kind not in ("euclidean", "minkowski"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("metric dimension must be positive")

    def sign(self, i: int) -> float:
        if self.kind == "euclidean":
            return 1.0
        return 1.0 if i == 0 else -1.0

    @property
    def signs(self) -> tuple:
        return tuple(self.sign(i) for i in range(self.dim))


def euclidean(dim: int) -> Metric:
    return Metric("euclidean", dim)


def minkowski(dim: int) -> Metric:
    return Metric("minkowski", dim)


class JetCoordinateId(Record):
    """Tag for one jet coordinate: base(i), field(r), d1(r,i) or d2(r,i<=j)."""

    kind: str  # "base" | "field" | "d1" | "d2"
    r: int = 0
    i: int = 0
    j: int = 0

    def __str__(self):
        if self.kind == "base":
            return f"x{self.i}"
        if self.kind == "field":
            return f"u{self.r}"
        if self.kind == "d1":
            return f"u{self.r}_{self.i}"
        return f"u{self.r}_{self.i}{self.j}"


def base_coord(i: int) -> JetCoordinateId:
    return JetCoordinateId("base", 0, i, 0)


def field_coord(r: int) -> JetCoordinateId:
    return JetCoordinateId("field", r, 0, 0)


def d1_coord(r: int, i: int) -> JetCoordinateId:
    return JetCoordinateId("d1", r, i, 0)


def d2_coord(r: int, i: int, j: int) -> JetCoordinateId:
    if i > j:
        i, j = j, i
    return JetCoordinateId("d2", r, i, j)


def enumerate_coords(n_base: int, n_fields: int) -> list:
    """Canonical ordering of all jet coordinates for (N, m)."""
    coords = [base_coord(i) for i in range(n_base)]
    coords += [field_coord(r) for r in range(1, n_fields + 1)]
    for r in range(1, n_fields + 1):
        coords += [d1_coord(r, i) for i in range(n_base)]
    for r in range(1, n_fields + 1):
        for i in range(n_base):
            for j in range(i, n_base):
                coords.append(d2_coord(r, i, j))
    return coords


def _zero_signs(v):
    """Signs of a number's real and imaginary parts, zeros' included."""
    return math.copysign(1.0, v.real), math.copysign(1.0, v.imag)


def _symmetric(n: int, entry) -> tuple:
    """Full symmetric n x n matrix, a tuple of row tuples, with (i, j) and
    (j, i) both set to ``entry(i, j)``; ``entry`` is called once per pair
    i <= j, in row-major order."""
    mat = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = entry(i, j)
    return tuple(map(tuple, mat))


class JetPoint(Record):
    """Immutable numeric point of the second-order jet space."""

    n_base: int
    n_fields: int
    field_kind: FieldKind
    x: tuple
    u: tuple
    du: tuple  # du[r-1][i]
    ddu: tuple  # ddu[r-1][i][j]: the symmetric n x n matrix U_r

    def __post_init__(self):
        n, m = self.n_base, self.n_fields
        if len(self.x) != n or len(self.u) != m:
            raise ValueError("inconsistent base/field array sizes")
        if len(self.du) != m or any(len(row) != n for row in self.du):
            raise ValueError("inconsistent first-derivative array sizes")
        if len(self.ddu) != m or any(
                len(mat) != n or any(len(row) != n for row in mat)
                for mat in self.ddu):
            raise ValueError("inconsistent second-derivative array sizes")
        # tuple comparison tries identity first, so a NaN written into
        # both slots of a pair still compares equal; equal entries may
        # still differ in number type or in the sign of a zero part
        for mat in self.ddu:
            cols = tuple(zip(*mat))
            if cols != mat or any(
                    a is not b and (type(a) is not type(b)
                                    or _zero_signs(a) != _zero_signs(b))
                    for row, col in zip(mat, cols) for a, b in zip(row, col)):
                raise ValueError("second derivatives must be symmetric")

    def _check(self, cid: JetCoordinateId):
        if cid.kind == "base":
            if not 0 <= cid.i < self.n_base:
                raise ValueError(f"base index out of range: {cid}")
        elif not 1 <= cid.r <= self.n_fields:
            raise ValueError(f"field index out of range: {cid}")
        elif cid.kind == "d1":
            if not 0 <= cid.i < self.n_base:
                raise ValueError(f"derivative index out of range: {cid}")
        elif cid.kind == "d2":
            if not (0 <= cid.i < self.n_base and 0 <= cid.j < self.n_base):
                raise ValueError(f"derivative index out of range: {cid}")

    def value(self, cid: JetCoordinateId):
        self._check(cid)
        if cid.kind == "base":
            return self.x[cid.i]
        if cid.kind == "field":
            return self.u[cid.r - 1]
        if cid.kind == "d1":
            return self.du[cid.r - 1][cid.i]
        return self.ddu[cid.r - 1][cid.i][cid.j]

    def replace(self, cid: JetCoordinateId, value) -> "JetPoint":
        """A new point with one coordinate, both slots of a d2 pair, set."""
        self._check(cid)
        r, i, j = cid.r - 1, cid.i, cid.j
        name, *places = {"base": ("x", (i,)), "field": ("u", (r,)),
                         "d1": ("du", (r, i)),
                         "d2": ("ddu", (r, i, j), (r, j, i))}[cid.kind]
        entries = getattr(self, name)
        for place in places:
            entries = _set(entries, place, value)
        return self.copy_with(**{name: entries})

    def conjugate_index(self, r: int) -> int:
        return self.field_kind.conjugate_index(r, self.n_fields)

    def coords(self) -> list:
        return enumerate_coords(self.n_base, self.n_fields)


def _set(entries, place, value):
    """Nested tuples ``entries`` with the entry at index path ``place`` set."""
    k, *rest = place
    return (*entries[:k], _set(entries[k], rest, value) if rest else value,
            *entries[k + 1:])


def _signed(rng: random.Random) -> float:
    mag = rng.uniform(0.5, 2.0)
    return mag if rng.random() < 0.5 else -mag


def sample_generic(n_base: int, n_fields: int, field_kind: FieldKind = REAL,
                   seed: int = 0, positive_fields: bool = False) -> JetPoint:
    """Deterministic generic point: every component has magnitude in
    [0.5, 2.0] with random sign.

    ``positive_fields`` forces real field values into [0.5, 2.0] (needed by
    expressions with fractional powers of u).  For the complex kind the
    conjugate slots are filled with the conjugates of their partners.
    """
    if n_base < 1 or n_fields < 1:
        raise ValueError("n_base and n_fields must be at least 1")
    if field_kind is COMPLEX and n_fields % 2 != 0:
        raise ValueError("complex field kind requires an even slot count")
    rng = random.Random(f"jet:{n_base}:{n_fields}:{field_kind.value}:{seed}")
    n, m = n_base, n_fields

    def scalar():
        if field_kind is COMPLEX:
            return complex(_signed(rng), _signed(rng))
        return _signed(rng)

    x = tuple(_signed(rng) for _ in range(n))
    if field_kind is REAL:
        u = [rng.uniform(0.5, 2.0) if positive_fields else _signed(rng)
             for _ in range(m)]
        du = [[_signed(rng) for _ in range(n)] for _ in range(m)]
        ddu = [_symmetric(n, lambda i, j: _signed(rng)) for _ in range(m)]
    else:
        half = m // 2
        u = [scalar() for _ in range(half)]
        du = [[scalar() for _ in range(n)] for _ in range(half)]
        ddu = [_symmetric(n, lambda i, j: scalar()) for _ in range(half)]
        u += [v.conjugate() for v in u]
        du += [[v.conjugate() for v in row] for row in du[:half]]
        ddu += [_symmetric(n, lambda i, j: mat[i][j].conjugate())
                for mat in ddu[:half]]
    return JetPoint(n, m, field_kind, x, tuple(u),
                    tuple(tuple(row) for row in du), tuple(ddu))


def to_log_jets(point: JetPoint) -> JetPoint:
    """Convert u-jets to jets of log(u), field by field (chain rule to
    second order): v = log u, v_i = u_i/u, v_ij = u_ij/u - u_i u_j / u^2.
    """
    from .dual import dlog  # local import keeps module load light

    n, m = point.n_base, point.n_fields
    u = []
    du = []
    ddu = []
    for r in range(1, m + 1):
        ur, d, h = point.u[r - 1], point.du[r - 1], point.ddu[r - 1]
        u.append(dlog(ur))
        du.append(tuple(d[i] / ur for i in range(n)))
        ddu.append(_symmetric(
            n, lambda i, j: h[i][j] / ur - d[i] * d[j] / (ur * ur)))
    return JetPoint(n, m, point.field_kind, point.x, tuple(u), tuple(du),
                    tuple(ddu))
