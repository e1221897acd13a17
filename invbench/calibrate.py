"""Host-speed calibration: a fixed pure-Python kernel timed beside the
measured work.

The reference machine shares its host, and its speed drifts by 10-60% over
seconds to minutes; the drift slows invforge and this kernel alike.  A
time ``t`` measured right after a kernel time ``c`` is scaled to
``t * REFERENCE_S / c``: the seconds it would have taken at the reference
machine's usual speed.  The kernel does what invforge's hot path does -- small
objects built per operation, attribute reads, dict merges keyed by tuples,
float arithmetic -- and imports nothing from invforge, so a change to
invforge cannot move it.
"""

import statistics
import time

# usual time of ``kernel()`` on the reference machine (see README)
REFERENCE_S = 0.006


class _Jet:
    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = g

    def __mul__(self, o):
        return _Jet(self.v * o.v, {k: self.v * o.g.get(k, 0.0) + o.v * x
                                   for k, x in self.g.items()})

    def __add__(self, o):
        g = dict(self.g)
        for k, x in o.g.items():
            g[k] = g.get(k, 0.0) + x
        return _Jet(self.v + o.v, g)


def kernel(n=1600):
    """Seconds one fixed pass of the kernel takes now."""
    clock = time.perf_counter
    start = clock()
    keys = [("u", (i,)) for i in range(4)]
    acc = _Jet(0.0, {})
    for i in range(n):
        a = _Jet(1.0 + i * 1e-3, {keys[i & 3]: 1.0, keys[(i + 1) & 3]: 0.5})
        b = _Jet(0.5, {keys[(i + 2) & 3]: 2.0})
        acc = acc + a * b
        acc = _Jet(acc.v * 0.5, {k: x * 0.5 for k, x in acc.g.items()})
    return clock() - start


def scaled(times, kernels):
    """Median of ``times`` at reference speed; ``kernels[i]`` is the kernel
    time taken right before ``times[i]``."""
    return statistics.median(t * REFERENCE_S / k
                             for t, k in zip(times, kernels))
