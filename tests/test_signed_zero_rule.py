"""The rule a sparse prolongation plan rests on (``liealg._plan``).

A chain of subtractions over float operands, or over complex ones, that
does not start at -0.0 (a complex start: at no part -0.0) gives the same
bits whether its zero terms, of either sign, are kept or dropped: a
difference that does not start at -0.0 never becomes -0.0, and taking a
zero of either sign from it changes nothing.  A start made as a planned
coefficient's is, its held gradient entry plus zeros, keeps that entry's
bits.  And a product of a finite number with a zero is a zero, as is a
product of two du entries whose parts are below 2**500 with a zero.
These are each interpreter's signed-zero rules, so CI runs this file on
every supported Python.
"""

import math
import random

import pytest

from invforge import liealg

ZEROS = (0.0, -0.0)
COMPLEX_ZEROS = tuple(complex(a, b) for a in ZEROS for b in ZEROS)
SPECIAL = (math.inf, -math.inf, math.nan)


def _minus_zero(z):
    return any(p == 0.0 and math.copysign(1.0, p) < 0.0
               for p in (z.real, z.imag))


def _number(kind, rng):
    """A float or complex whose parts are drawn from a few magnitudes,
    signed zeros and, rarely, inf and nan."""
    def part():
        r = rng.random()
        if r < 0.2:
            return rng.choice(ZEROS)
        if r < 0.25:
            return rng.choice(SPECIAL)
        return rng.choice((-1.0, 1.0)) * rng.choice(
            (1.0, 0.5, 3.0, 1e-300, 1e300, rng.uniform(0.0, 2.0)))
    return part() if kind is float else complex(part(), part())


def _zero(kind, rng):
    return rng.choice(ZEROS if kind is float else COMPLEX_ZEROS)


def _chain(kind, rng, length):
    """A start with no -0.0 part and the terms of a chain from it: zeros
    of either sign, drawn numbers, and now and then the running value
    itself, so that the difference is an exact zero."""
    start = _number(kind, rng)
    while _minus_zero(start):
        start = _number(kind, rng)
    terms, val = [], start
    for _ in range(length):
        r = rng.random()
        term = _zero(kind, rng) if r < 0.4 else val if r < 0.55 else \
            _number(kind, rng)
        terms.append(term)
        val = val - term
    return start, terms, val


@pytest.mark.parametrize("kind", [float, complex])
@pytest.mark.parametrize("seed", range(20))
def test_dropping_zero_terms_keeps_the_bits(kind, seed):
    rng = random.Random(f"signed-zero-rule:{kind.__name__}:{seed}")
    for _ in range(200):
        start, terms, kept = _chain(kind, rng, rng.randint(1, 12))
        dropped = start
        for term in terms:
            if term != 0:
                dropped = dropped - term
        assert repr(dropped) == repr(kept), (start, terms)
        assert type(dropped) is kind
        assert not _minus_zero(kept)


@pytest.mark.parametrize("kind", [float, complex])
def test_a_start_at_minus_zero_does_not_keep_them(kind):
    # the negative control: from -0.0, taking -0.0 gives +0.0
    start, zero = kind(-0.0), kind(-0.0)
    if kind is complex:
        start = zero = complex(-0.0, -0.0)
    assert repr(start - zero) != repr(start)


@pytest.mark.parametrize("seed", range(10))
def test_a_planned_start_keeps_its_entry(seed):
    # D_i g = g_x_i + sum_s u^s_i g_u^s, every g_u^s a zero: the sum is
    # the entry where it has no -0.0 part; at a complex point, the entry
    # made complex, where float + complex gives the float a +0.0
    # imaginary part (liealg._PROMOTES), and complex plans run only there
    rng = random.Random(f"planned-start:{seed}")
    for _ in range(200):
        kind = rng.choice((float, complex))
        entry = _number(rng.choice((float, kind)), rng)
        if _minus_zero(entry) or kind is float and type(entry) is complex:
            continue
        du = [_number(kind, rng) for _ in range(rng.randint(1, 3))]
        du = [z for z in du if all(map(math.isfinite, (z.real, z.imag)))]
        total = entry
        for z in du:
            total = total + z * _zero(rng.choice((float, kind)), rng)
        if kind is complex and du and liealg._PROMOTES:
            assert repr(total) == repr(complex(entry))
        elif kind is float:
            assert repr(total) == repr(entry)


def test_the_guard_reads_the_promotion_rule():
    assert liealg._PROMOTES == (math.copysign(
        1.0, (0.0 + complex(0.0, -0.0)).imag) > 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_products_with_a_zero_are_zeros(seed):
    # a dropped term is du * 0, ddu * 0 or du * du * 0 with every part of
    # du below 2**500 and every ddu entry finite
    rng = random.Random(f"zero-products:{seed}")
    bound = math.nextafter(2.0 ** 500, 0.0)
    edges = (bound, -bound, 0.0, -0.0, 1e-320)
    for _ in range(500):
        kind = rng.choice((float, complex))

        def part():
            return rng.choice(edges) if rng.random() < 0.5 else \
                rng.uniform(-bound, bound)

        a, b = (part() if kind is float else complex(part(), part())
                for _ in range(2))
        for out in (a * _zero(kind, rng), a * b * _zero(kind, rng),
                    a * b * 0.0):
            assert out == 0 and not math.isnan(abs(out))
