import itertools
import os
import random
from pathlib import Path

import pytest

import invforge
from invforge.jetspace import JetPoint, d2_coord

# the CLI tests run ``python -m invforge`` in a child process, which must
# import this same package, also when only pytest's ``pythonpath`` setting
# put it on this process's path
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(invforge.__file__).parents[1]), os.environ.get("PYTHONPATH"))))


def brute_power_trace(mat, signs, k):
    """Index-sum oracle: sum over all index chains with metric weights."""
    dim = len(mat)
    total = 0.0
    for chain in itertools.product(range(dim), repeat=k):
        term = 1.0
        for pos in range(k):
            term *= signs[chain[pos]]
            term *= mat[chain[pos]][chain[(pos + 1) % k]]
        total += term
    return total


def brute_power_form(vec, mat, signs, k):
    """Index-sum oracle for v g (M g)^(k-1) v."""
    dim = len(vec)
    total = 0.0
    for chain in itertools.product(range(dim), repeat=k):
        term = vec[chain[0]] * vec[chain[-1]]
        for pos in range(k):
            term *= signs[chain[pos]]
        for pos in range(k - 1):
            term *= mat[chain[pos]][chain[pos + 1]]
        total += term
    return total


def brute_mixed_trace(u, v, signs, j, k):
    dim = len(u)
    total = 0.0
    for chain in itertools.product(range(dim), repeat=k):
        term = 1.0
        for pos in range(k):
            term *= signs[chain[pos]]
            mat = u if pos < j else v
            term *= mat[chain[pos]][chain[(pos + 1) % k]]
        total += term
    return total


def random_symmetric(n, rng):
    mat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = rng.uniform(-2.0, 2.0)
    return mat


def finite_difference(fn, point: JetPoint, cid, h=1e-6):
    """Central difference of a ScalarJetFunction along one jet coordinate."""
    up = fn.eval(point.replace(cid, point.value(cid) + h))
    down = fn.eval(point.replace(cid, point.value(cid) - h))
    return (up - down) / (2.0 * h)


@pytest.fixture
def rng():
    return random.Random(20240811)
