"""Small expression language over jet coordinates.

Users submit candidate invariants and equation residuals as text, e.g.
``"(1 - R(1)) * S(1) + R(2)"`` or ``"u_x1x2 ^ 2 + S(2)"``.  Precedence,
lowest to highest: ``+ -``; ``* /``; unary ``-``; ``^`` (right
associative); calls; atoms.

Jet symbols: ``x1..xN`` (plus ``x0``/``t`` when the binding has a time
coordinate), ``u1..um`` (``u`` means ``u1``), derivatives by suffix:
``u_x1``, ``u2_x1x3``, ``u_t``, ``u_tt``, ``u_x1t``.  Builtins: the power
trace ``S(k; A)``, the mixed trace ``Sjk(j, k; A, B)`` = tr(A^j B^(k-j))
and the power form ``R(k; v, A)`` = v.(A)^(k-1).v, all metric-weighted, of
any order k >= 1, with optional selectors after ``;``; ``tr``/``det`` of a
matrix; ``contract(v, w)`` of two vectors and the unweighted
``quad(v, A)`` = v.A.v; and ``exp``, ``log``, ``conj``.  ``i`` is the
imaginary unit, valid only in complex bindings.  In a time binding the
builtins and selectors run over x1..xN-1 only, as the Galilei invariants
are spatial contractions; ``t`` enters where a symbol names it.

Selectors, each ``x`` or a prefix and a field index r (default 1), as
``_SELECTORS`` lists them with the binding each needs.  Matrices: an integer
``r`` or ``ddu<r>`` is the Hessian U_r (Sjk's B defaults to 2 when there
are two fields), ``theta<r>`` and ``w<r>`` those covariant tensors of
field r (Minkowski variants under a Minkowski metric), ``eik<r>`` the
eikonal theta and ``inv<r>`` U_r^-1.  Vectors: an integer ``r`` or
``du<r>`` is the gradient du_r, ``x`` the position, ``thvec<r>``
du_r/u_r - du_1/u_1, ``dut<r>`` the u_{r,x_a t}, ``bth<r>`` the boost
theta c u_{r,x_a t} + (U_r du_r)_a (c as in :func:`compiler`), ``ith<r>``
the theta solving U_r theta = dut<r>, ``tau<r>(lam)`` the tau of the
massless Schroedinger N3, solving (lam U_r + du_r du_r^T) tau = du_r
u_{r,t} + lam dut<r> with the number literal lam, ``r4vec<r>`` the vector
of the massless R^4 of field r and its conjugate partner, and ``v + w``
and ``v - w`` a sum and a difference.  For example
``S(2; theta1) * u1 ^ 2.0``, ``Sjk(1, 2; w2, w1)``, ``R(3; x, 1)``,
``R(1; du1 + du2, 1)``, ``contract(tau1(0.4), du1 - du2)``.

The same compiler binds generator coefficients, such as ``-1.0 * x3`` or
``(-1.5 * t + 1.0 * (x1 * x1 + x2 * x2) / 2.0) * u1``, and ``--function``
texts (:func:`bind_coefficient`); these read only base coordinates and
field values.
"""

from __future__ import annotations

import functools
import math
import operator
import re

from .dual import EvaluationError, dexp, dlog, value_of
from .invcat import (
    JetSpace,
    ScalarJetFunction,
    _R,
    _S,
    _Sjk,
    _View,
    _boost_theta,
    _dot,
    _eikonal_theta,
    _gvec,
    _gvec_t,
    _hess,
    _implicit_theta,
    _jets,
    _power,
    _quad,
    _r4_vector,
    _rinv,
    _tau,
    _tensor_cached,
    _theta,
    _w,
    determinant,
)
from .jetspace import (
    COMPLEX,
    REAL,
    FieldKind,
    Metric,
    Record,
    base_coord,
    d1_coord,
    d2_coord,
    euclidean,
    field_coord,
)


class SourceSpan(Record):
    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


class BindError(ValueError):
    pass


# AST ------------------------------------------------------------------------


class Num(Record):
    __slots__ = ("value",)
    value: float


class Sym(Record):
    __slots__ = ("name",)
    name: str


class Neg(Record):
    __slots__ = ("arg",)
    arg: object


class Bin(Record):
    __slots__ = ("op", "left", "right")
    op: str
    left: object
    right: object


class Call(Record, defaults={"fields": ()}):
    __slots__ = ("name", "args", "fields")
    name: str
    args: tuple
    fields: tuple


# parser ----------------------------------------------------------------------

# blanks, then a number, a name, an operator or any other character
_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?"
                    r"|\.\d+(?:[eE][+-]?\d+)?)"
                    r"|([^\W\d]\w*)|([-+*/^(),;])|(\S))")
_NUM, _NAME, _OP = 1, 2, 3
_PARENS = re.compile(r"[()]")
# the AST of every text, call and parenthesized group parsed so far, by its
# text: the catalog rows repeat their leaders and traces many times, and a
# repeat is read as one token; compilers compile each such node once
_GROUPS = {}
_GROUPED = set()


class _Parser:
    """Recursive descent over the tokens of ``text``, read one at a time
    into ``tok``, its ``kind`` (_NUM, _NAME, _OP, or 0 past the end with
    ``tok`` empty) and its ``start`` and ``end``."""

    def __init__(self, text):
        self.text = text
        # the end of the group that each "(" opens
        self.closes, opened = {}, []
        for m in _PARENS.finditer(text):
            if m.group() == "(":
                opened.append(m.start())
            elif opened:
                self.closes[opened.pop()] = m.end()
        self.end = 0
        self.advance()

    def advance(self):
        m = _TOKEN.match(self.text, self.end)
        if m is None:
            self.kind, self.tok, self.start = 0, "", len(self.text)
            self.end = self.start
            return
        self.kind = kind = m.lastindex
        self.start, self.end = m.span(kind)
        self.tok = m.group(kind)
        if kind > _OP:
            raise self.error(f"unexpected character {self.tok!r}")

    def error(self, message):
        return ParseError(message, SourceSpan(self.start, self.end))

    def expect(self, symbol):
        if self.tok != symbol:
            raise self.error(f"expected {symbol!r}")
        self.advance()

    def expr(self):
        node = self.term()
        while self.tok in ("+", "-"):
            op = self.tok
            self.advance()
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.tok in ("*", "/"):
            op = self.tok
            self.advance()
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        """A negation, or an atom with its power, right associative; the
        exponent may carry its own unary minus."""
        if self.tok == "-":
            self.advance()
            return Neg(self.unary())
        node = self.atom()
        if self.tok == "^":
            self.advance()
            node = Bin("^", node, self.unary())
        return node

    def atom(self):
        tok, kind, start, key = self.tok, self.kind, self.start, None
        if kind == _NUM:
            value = float(tok)
            if not math.isfinite(value):
                raise self.error(f"number literal {tok} is not finite")
            self.advance()
            return Num(value)
        if tok == "(" or kind == _NAME and self.text.startswith(
                "(", self.end):
            close = self.closes.get(start if tok == "(" else self.end)
            key = close and self.text[start:close]
            if key in _GROUPS:
                self.end = close
                self.advance()
                return _GROUPS[key]
        elif kind != _NAME:
            raise self.error("expected an expression")
        self.advance()
        if tok == "(":
            node = self.expr()
            self.expect(")")
        elif self.tok != "(":
            return Sym(tok)
        else:
            self.advance()
            node = Call(tok, *self.arguments())
        if key:
            _GROUPS[key] = node
            _GROUPED.add(id(node))
        return node

    def arguments(self):
        """The arguments and the selectors of a call, through its ")"."""
        args, fields = [], []
        bucket = args
        if self.tok != ")":
            bucket.append(self.expr())
            while self.tok in (",", ";"):
                if self.tok == ";":
                    if bucket is fields:
                        raise self.error("only one ';' allowed")
                    bucket = fields
                self.advance()
                bucket.append(self.expr())
        self.expect(")")
        return tuple(args), tuple(fields)


def parse(text: str):
    """Parse to an AST; raises ParseError with a source span.  A text is
    parsed once, as a group that later texts may repeat."""
    key = f"({text})"
    if key not in _GROUPS:
        parser = _Parser(text)
        node = parser.expr()
        if parser.kind:
            raise parser.error("trailing input")
        _GROUPS[key] = node
        _GROUPED.add(id(node))
    return _GROUPS[key]


def to_text(node) -> str:
    """Print an AST back to parseable text (round-trips to an equal AST)."""
    def prec(nd):
        if isinstance(nd, Bin):
            return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[nd.op]
        if isinstance(nd, Neg):
            return 3
        return 9

    def wrap(nd, parent_prec):
        s = to_text(nd)
        return f"({s})" if prec(nd) < parent_prec else s

    if isinstance(node, Num):
        # :g keeps six digits; repr where they do not parse back
        text = f"{node.value:g}"
        return text if float(text) == node.value else repr(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        return "-" + wrap(node.arg, 3)
    if isinstance(node, Bin):
        if node.op == "^":
            return wrap(node.left, 5) + " ^ " + wrap(node.right, 4)
        p = prec(node)
        return (wrap(node.left, p) + f" {node.op} "
                + wrap(node.right, p + 1))
    if isinstance(node, Call):
        inner = ", ".join(to_text(a) for a in node.args)
        if node.fields:
            inner += "; " + ", ".join(to_text(a) for a in node.fields)
        return f"{node.name}({inner})"
    raise TypeError(node)


# binding ---------------------------------------------------------------------


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
# the largest order k of S(k), R(k) and Sjk(j, k): a view keeps every power
# or form iterate up to k, so an order in the millions held hundreds of MiB
# before its sum overflowed; the bases and equations read k <= n + 1
MAX_ORDER = 64
# a jet symbol: t or x<k>, or u<r> (u is u1) with a suffix _<d> of
# derivatives d, each t or x<k>; an index is decimal digits, which int() reads
_COORD = r"t|x\d+"
_SYMBOL = re.compile(rf"({_COORD})|u(\d*)(?:_(.+))?")
# every named matrix and vector, by prefix: its position ("matrix" or
# "vector"); what it reads of its field r, and of the other field that
# thvec<r> and r4vec<r> name: u_r ("u"), u_{r,a} ("a") and u_{r,ab} ("ab")
# over the indices a, b it contracts over, u_{r,at} ("at") and u_{r,t}
# ("t", of field r only), or the x_a ("x"); and what its binding must
# have, in the order checked.  A selector is x, or a prefix and its field
# index r (none is r = 1), with the index digits of a jet symbol; a bare
# integer r is ddu<r> or du<r>.  Its source's key starts with its prefix.
_SELECTORS = {
    "ddu": ("matrix", ("ab",), ()),
    "theta": ("matrix", ("u", "a", "ab"), ("space",)),
    "w": ("matrix", ("a", "ab"), ("space",)),
    "eik": ("matrix", ("a", "ab"), ("minkowski", "space")),
    "inv": ("matrix", ("ab",), ("time",)),
    "x": ("vector", ("x",), ()),
    "du": ("vector", ("a",), ()),
    "thvec": ("vector", ("u", "a"), ()),
    "dut": ("vector", ("at",), ("time",)),
    "bth": ("vector", ("a", "ab", "at"), ("time",)),
    "ith": ("vector", ("ab", "at"), ("time",)),
    "tau": ("vector", ("a", "t", "ab", "at"), ("time",)),
    "r4vec": ("vector", ("a", "t", "ab", "at"), ("time", "pair")),
}
_SELECTOR = re.compile(
    r"x|(%s)(\d*)" % "|".join(p for p in _SELECTORS if p != "x"))
# the selectors whose value is fn(view, r, idx), kept under (prefix, r, idx)
_PLAIN = {"ddu": _hess, "inv": _rinv, "du": _gvec, "dut": _gvec_t,
          "ith": _implicit_theta}
# the error of a selector whose binding lacks what it needs
_NEEDS = {"minkowski": "needs a Minkowski metric",
          "space": "is not available in time bindings",
          "time": "is only valid in a time binding",
          "pair": "needs a conjugate pair of fields"}


@functools.cache
def _reads(reads, rs, idx):
    """The coordinates a selector's ``reads`` name (see _SELECTORS) of the
    fields ``rs``, its own first, over the indices ``idx``, hashed once."""
    return frozenset(
        [base_coord(a) for a in idx if "x" in reads]
        + [field_coord(r) for r in rs if "u" in reads]
        + [d1_coord(r, a) for r in rs for a in idx if "a" in reads]
        + [d1_coord(r, 0) for r in rs[:1] if "t" in reads]
        + [d2_coord(r, a, b) for r in rs for a in idx for b in idx
           if "ab" in reads]
        + [d2_coord(r, a, 0) for r in rs for a in idx if "at" in reads])


def _literal(node):
    """The value of a number literal, negated or not, else None."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg) and isinstance(node.arg, Num):
        return -node.arg.value
    return None


def _is_int_literal(node):
    value = _literal(node)
    return value is not None and float(value).is_integer()


def _int_arg(node, what):
    if not _is_int_literal(node):
        raise BindError(f"{what} must be an integer literal")
    return int(_literal(node))


def _memoized(fn):
    """``fn`` keeping its first value on each view in ``view.cache``, under
    a key of its own, and returning it on every later read of that view.
    A view's reads never change, so the value is the one ``fn`` would give
    again, to the bit."""
    key = object()
    return lambda view: _tensor_cached(view, key, fn)


def compiler(n_base: int, n_fields: int = 1, metric: Metric = None,
             field_kind: FieldKind = REAL, time_mode: bool = False,
             lam: float = 1.0, mu: float = 1.0):
    """The one compiler of a jet space (:func:`_compiler`), which every
    text bound there shares; no metric is the Euclidean one, and lam and mu
    that compare equal but print apart, as -0.0 and 0.0, compile apart.
    A lam or mu that is not finite is refused."""
    for name, value in (("lam", lam), ("mu", mu)):
        if not math.isfinite(value):
            raise BindError(f"{name} must be finite, got {value!r}")
    return _compiler(n_base, n_fields, metric or euclidean(n_base),
                     field_kind, time_mode, lam, mu, repr((lam, mu)))


@functools.cache
def _compiler(n_base, n_fields, metric, field_kind, time_mode, lam, mu,
              _reprs):
    """Compiler for one (N, m, metric) space: maps an AST to a pair
    (evaluator on a jet view, set of the jet coordinates it reads), or
    with ``selector`` a selector's name to the pair (its source (key,
    build), set of the jet coordinates it reads).

    ``time_mode`` names base coordinate 0 ``t`` (Galilean setups) and
    leaves it out of every contraction; a Minkowski metric names the
    coordinates ``x0..x{N-1}``.  Inside ``conj(e)`` every field index
    resolves to its conjugate partner, so ``e`` reads the conjugate slots;
    coordinates and constants are real.  ``bth<r>`` reads the boost weight
    ``mu`` as c = mu, or on a conjugate pair of slots, where mu is the
    mass, as c = -i mu on the field slot and +i mu on its conjugate.
    ``tau<r>(lam)`` takes its lam from the text, so that a time binding
    reads no ``lam`` (``liealg.algebra_space`` pins it).

    Every text, call and group that the parser interns, but a symbol, is
    compiled once per conjugation and keeps its value per view
    (:func:`_memoized`): the members evaluated on one view, such as a
    family's rows repeating the leader N1, evaluate it once.  The key is
    that compiled entry's own, so members of other compilers or under
    ``conj`` never read it, and the value read is the one the node would
    give again on that view, to the bit.
    """
    if metric.dim != n_base:
        raise BindError("metric dimension must match the base dimension")
    idx = tuple(range(1 if time_mode else 0, n_base))
    euclid = metric.kind == "euclidean"
    # one sign per contracted index, t left out as every contraction does
    signs = tuple(metric.signs[i] for i in idx)
    # the coordinate set of each leaf compiled for the current text, and
    # per shared node compiled so far its evaluator and its leaves' sets
    reads = []
    compiled = {}
    conjugated = False

    def resolve_base(token):
        if token == "t":
            if not time_mode:
                raise BindError("'t' is only valid in a time binding")
            return 0
        # x0 names the time or timelike coordinate where there is one
        lo = 0 if time_mode or metric.kind == "minkowski" else 1
        k = int(token[1:])
        if not lo <= k < n_base + lo:
            raise BindError(f"index out of range: {token}")
        return k - lo

    def resolve_field(fname):
        r = 1 if fname == "" else int(fname)
        if not 1 <= r <= n_fields:
            raise BindError(f"field index out of range: u{fname}")
        return field_kind.conjugate_index(r, n_fields) if conjugated else r

    def compile_node(node):
        """Evaluator of ``node``, adding what it reads to ``reads``; a
        symbol, or a text or group the parser hands out again as the same
        node, is compiled once per conjugation.  Such a text or group
        keeps its value per view (:func:`_memoized`), so the members
        evaluated on one view evaluate it once."""
        c = _literal(node)
        if c is not None:
            return lambda view: c
        if not isinstance(node, Sym) and id(node) not in _GROUPED:
            return compile_new(node)
        key = (node.name if isinstance(node, Sym) else id(node), conjugated)
        hit = compiled.get(key)
        if hit is None:
            start = len(reads)
            fn = compile_new(node)
            if not isinstance(node, Sym):
                fn = _memoized(fn)
            # the node rides along so that its id is not reused
            hit = compiled[key] = fn, reads[start:], node
        else:
            reads.extend(hit[1])
        return hit[0]

    def compile_new(node):
        if isinstance(node, Neg):
            inner = compile_node(node.arg)
            return lambda view: -inner(view)
        if isinstance(node, Bin):
            lf = compile_node(node.left)
            if node.op == "^":
                return _compile_pow(lf, compile_node(node.right), node)
            op = _OPERATORS[node.op]
            if isinstance(node.right, Num):
                c = node.right.value
                return lambda view: op(lf(view), c)
            rf = compile_node(node.right)
            return lambda view: op(lf(view), rf(view))
        if isinstance(node, Sym):
            return compile_sym(node)
        if isinstance(node, Call):
            return compile_call(node)
        raise TypeError(node)

    def _compile_pow(lf, rf, node):
        if _is_int_literal(node.right):
            e = int(_literal(node.right))
            return lambda view: _power(lf(view), e)

        def powfn(view):
            base = lf(view)
            expo = rf(view)
            eval_ = value_of(expo)
            if not isinstance(eval_, complex) and float(eval_).is_integer():
                return _power(base, int(eval_))
            bval = value_of(base)
            if not isinstance(bval, complex) and bval <= 0:
                raise EvaluationError(
                    "fractional power needs a positive base")
            return dexp(expo * dlog(base))

        return powfn

    def compile_sym(node):
        name = node.name
        if name == "i":
            if field_kind is not COMPLEX:
                raise BindError("'i' requires a complex field binding")
            return lambda view: 1j
        m = _SYMBOL.fullmatch(name)
        if m is None:
            raise BindError(f"unknown symbol {name!r}")
        coord, fpart, suffix = m.groups(default="")
        if coord:
            i = resolve_base(coord)
            reads.append({base_coord(i)})
            return lambda view, i=i: view.x(i)
        r = resolve_field(fpart)
        parts = re.findall(_COORD, suffix)
        if "".join(parts) != suffix:
            raise BindError(f"bad derivative suffix {suffix!r}")
        if not parts:
            reads.append({field_coord(r)})
            return lambda view, r=r: view.u(r)
        if len(parts) == 1:
            i = resolve_base(parts[0])
            reads.append({d1_coord(r, i)})
            return lambda view, r=r, i=i: view.du(r, i)
        if len(parts) > 2:
            raise BindError(f"derivative order above two: {name!r}")
        i, j = map(resolve_base, parts)
        reads.append({d2_coord(r, i, j)})
        return lambda view, r=r, i=i, j=j: view.ddu(r, i, j)

    def _selectors(node, defaults):
        if len(node.fields) > len(defaults):
            raise BindError(f"{node.name} takes at most {len(defaults)} "
                            "selectors")
        return list(node.fields) + list(defaults[len(node.fields):])

    def source(sel, want=None):
        """Source (key, build) of the selector ``sel`` in ``want`` position,
        "matrix" or "vector", or in its own (see _SELECTORS), its key naming
        all the value depends on but the view.  ``a + b`` and ``a - b`` are
        the sum and the difference of two vectors."""
        if want != "matrix" and isinstance(sel, Bin) and sel.op in ("+", "-"):
            op = _OPERATORS[sel.op]
            (ka, va), (kb, vb) = (source(sel.left, "vector"),
                                  source(sel.right, "vector"))
            return (sel.op, ka, kb), lambda view: [
                op(a, b) for a, b in zip(va(view), vb(view))]
        if isinstance(sel, (Sym, Call)):
            name, m = sel.name, _SELECTOR.fullmatch(sel.name)
            prefix, digits = (m[1] or "x", m[2] or "") if m else ("", "")
        else:
            name = prefix = "ddu" if want == "matrix" else "du"
            digits = str(_int_arg(sel, "field index"))
        entry = _SELECTORS.get(prefix)
        if entry is None or want not in (None, entry[0]) \
                or isinstance(sel, Call) != (prefix == "tau"):
            what = "tensor" if want == "matrix" else "vector"
            raise BindError(f"unknown {what} {name!r}")
        r = resolve_field(digits)
        partner = field_kind.conjugate_index(r, n_fields)
        lacks = {"minkowski": euclid, "space": time_mode,
                 "time": not time_mode, "pair": partner == r}
        for need in entry[2]:
            if lacks[need]:
                raise BindError(f"{name} {_NEEDS[need]}")
        rs = {"thvec": (r, resolve_field("")),
              "r4vec": (r, partner)}.get(prefix, (r,))
        reads.append(_reads(entry[1], rs, idx))
        if prefix == "x":  # the x_i it contracts over, so no t
            return ("x", idx), lambda view: [view.x(i) for i in idx]
        if prefix in _PLAIN:
            fn = _PLAIN[prefix]
            return (prefix, r, idx), lambda view: fn(view, r, idx)
        if prefix == "theta":
            return ("theta", r, metric.kind, lam), _theta(r, idx, signs, lam)
        if prefix == "w":
            return ("w", r, metric.kind), \
                _w(r, idx, signs, 1.0 if euclid else 0.5)
        if prefix == "eik":
            return ("eik", r), _eikonal_theta(r, idx, signs)
        if prefix == "thvec":
            r1 = rs[1]
            return ("thvec", r1, r, idx), lambda view: [
                view.du(r, i) / view.u(r) - view.du(r1, i) / view.u(r1)
                for i in idx]
        if prefix == "r4vec":
            return ("r4vec", r, partner, idx), \
                lambda view: _r4_vector(view, r, partner, idx)
        if prefix == "tau":
            lam_ = _literal(sel.args[0]) if len(sel.args) == 1 else None
            if lam_ is None or sel.fields:
                raise BindError(f"{name} takes one number literal, lambda")
            return ("tau", r, idx, lam_), lambda view: _tau(view, r, idx, lam_)
        # bth; sgn = +1 on a field slot, -1 on its conjugate, as printed
        c = mu if partner == r else -(1.0 if partner > r else -1.0) * (1j * mu)
        return ("bth", r, idx, c), \
            lambda view: _boost_theta(c, *_jets(view, r, idx))

    def _order(node, k):
        if not 1 <= k <= MAX_ORDER:
            raise BindError(
                f"{node.name} order {k} out of range 1..{MAX_ORDER}")
        return k

    def compile_call(node):
        nonlocal conjugated
        name = node.name
        if name in ("exp", "log"):
            if len(node.args) != 1 or node.fields:
                raise BindError(f"{name} takes one argument")
            inner = compile_node(node.args[0])
            fun = dexp if name == "exp" else dlog
            return lambda view: fun(inner(view))
        if name == "conj":
            if len(node.args) != 1 or node.fields:
                raise BindError("conj takes one argument")
            if field_kind is not COMPLEX:
                raise BindError("conj requires a complex field binding")
            conjugated = not conjugated
            try:
                return compile_node(node.args[0])
            finally:
                conjugated = not conjugated
        if name == "S":
            if len(node.args) != 1:
                raise BindError("S takes one argument S(k) or S(k; A)")
            k = _order(node, _int_arg(node.args[0], "k"))
            mat = source(*_selectors(node, (Num(1),)), "matrix")
            return lambda view: _S(view, mat, signs, k)
        if name == "R":
            if len(node.args) != 1:
                raise BindError("R takes one argument R(k) or R(k; v, A)")
            k = _order(node, _int_arg(node.args[0], "k"))
            vsel, msel = _selectors(node, (Num(1), Num(1)))
            vec, mat = source(vsel, "vector"), source(msel, "matrix")
            return lambda view: _R(view, vec, mat, signs, k)
        if name == "Sjk":
            if len(node.args) != 2:
                raise BindError("Sjk takes two arguments Sjk(j, k)")
            j = _int_arg(node.args[0], "j")
            k = _order(node, _int_arg(node.args[1], "k"))
            first, second = (source(sel, "matrix") for sel in _selectors(
                node, (Num(1), Num(2 if n_fields > 1 else 1))))
            if not 0 <= j <= k:
                raise BindError("need 0 <= j <= k")
            return lambda view: _Sjk(view, first, second, signs, j, k)
        if name in ("tr", "det"):
            if len(node.args) != 1 or node.fields \
                    or not isinstance(node.args[0], Sym):
                raise BindError(f"{name} expects a tensor name")
            mat = source(node.args[0], "matrix")
            if name == "tr":
                # tr(G A) is S_1, the metric trace
                return lambda view: _S(view, mat, signs, 1)
            return lambda view: determinant(_tensor_cached(view, *mat))
        if name == "contract":
            if len(node.args) != 2 or node.fields:
                raise BindError("contract takes two vectors")
            (_, va), (_, vb) = (source(sel, "vector") for sel in node.args)
            # every Euclidean sign is 1.0, so it is left out
            gsigns = None if euclid else signs
            return lambda view: _dot(va(view), vb(view), gsigns)
        if name == "quad":
            if len(node.args) != 2 or node.fields:
                raise BindError("quad takes a vector and a matrix")
            (_, vec), mat = (source(node.args[0], "vector"),
                             source(node.args[1], "matrix"))
            return lambda view: _quad(vec(view), _tensor_cached(view, *mat))
        raise BindError(f"unknown function {node.name!r}")

    def compile_expr(node, selector=False):
        del reads[:]
        fn = source(node) if selector else compile_node(node)
        return fn, set().union(*reads)

    return compile_expr


def bind(expr, n_base: int, n_fields: int = 1, metric: Metric = None,
         field_kind: FieldKind = REAL, time_mode: bool = False,
         lam: float = 1.0, mu: float = 1.0) -> ScalarJetFunction:
    """Resolve symbols against an (N, m, metric) space and return a
    differentiable evaluator (see :func:`compiler`) on that space."""
    if isinstance(expr, str):
        expr = parse(expr)
    compile_ = compiler(n_base, n_fields, metric, field_kind, time_mode,
                        lam, mu)
    return bind_on(expr, JetSpace(n_base, n_fields, field_kind,
                                  metric or euclidean(n_base)), compile_)


def bind_on(expr, space, compile_) -> ScalarJetFunction:
    """``expr`` as a function on ``space``, compiled by ``compile_``, a
    :func:`compiler` of that space; ``invcat.text_binding(spec)`` gives
    the pair of every text under an algebra."""
    if isinstance(expr, str):
        expr = parse(expr)
    fn, deps = compile_(expr)
    return ScalarJetFunction(to_text(expr), fn, tuple(
        c for c in space.coords() if c in deps), space)


@functools.cache
def bind_coefficient(text: str, n_base: int, n_fields: int = 1,
                     metric: Metric = None, field_kind: FieldKind = REAL,
                     time_mode: bool = False):
    """Compile a coefficient text over the symbols of an (N, m) space:
    ``x1..xN``, ``x0..x{N-1}`` under a Minkowski metric, or ``t, x1..``
    with ``time_mode``.  Returns ``(f, deps)``: ``f(xs, us)`` evaluates the
    text at base coordinates ``xs`` and field values ``us``, which may be
    dual numbers; ``deps`` is the set of jet coordinates it reads.
    Memoized per (text, space): catalog() calls share compiled texts."""
    fn, deps = compiler(n_base, n_fields, metric, field_kind,
                        time_mode)(parse(text))
    if any(c.kind not in ("base", "field") for c in deps):
        raise BindError("a coefficient reads only coordinates and field "
                        f"values: {text!r}")

    def coefficient(xs, us):
        return fn(_View(xs, us, (), ()))
    return coefficient, frozenset(deps)


def bind_scalar_function(text: str):
    """Compile an expression in the single variable ``u`` (or ``u1``) to a
    callable usable as an algebra coefficient function (dual-capable).

    The text is bound by :func:`bind_coefficient` over one coordinate and
    one field, and may read nothing but the field value."""
    fn, deps = bind_coefficient(text, 1)
    if not deps <= {field_coord(1)}:
        raise BindError(f"coefficient functions may only use 'u': {text!r}")
    return lambda u: fn((), (u,))


def needs_positive_u(text: str, compile_=None) -> bool:
    """Whether a text takes a log, or a power other than an integer
    literal, of a part that reads a field value: it is real only at
    positive u.  The parts are compiled by ``compile_``, a
    :func:`compiler` (by default that of one coordinate and one field, as
    a coefficient text is)."""
    compile_ = compile_ or compiler(1)

    def walk(node):
        parts = ((node.arg,) if isinstance(node, Neg) else
                 (node.left, node.right) if isinstance(node, Bin) else
                 getattr(node, "args", ()))
        root = isinstance(node, Call) and node.name == "log" or isinstance(
            node, Bin) and node.op == "^" and not _is_int_literal(node.right)
        return root and any(c.kind == "field" for p in parts[:1]
                            for c in compile_(p)[1]) \
            or any(map(walk, parts))

    return walk(parse(text))
