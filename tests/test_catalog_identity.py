"""Member-identity guard for the Euclid, Poincare and conformal catalog
families and the three special rotation families.

For every family over a grid of (n, m, lam) this pins the family label,
expected count, dependency set and space, and per member its label, its
dependencies (``"family"`` when they are the family's) and a sha256 of
the ``repr`` of its value and of its family Jacobian row at sampled
points.  A rewrite of how the members are built
must leave every entry byte-identical.  Running this file records the
entries that are missing and leaves the others alone:

    PYTHONPATH=src python tests/test_catalog_identity.py
"""

import hashlib
import json
import os

import pytest

from invforge.dual import EvaluationError
from invforge.invcat import (
    basis,
    rotation_dilation_family,
    rotation_pair_family,
    two_matrix_trace_family,
)
from invforge.liealg import AlgebraSpec
from invforge.verify import family_jacobian

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "catalog_identity.json")
POINTS = 2
NS = (3, 4)
MS = (1, 2, 3)
LAMS = (0.0, 0.4, 0.6, 1.0, 2.0)


def _configs():
    """(key, builder) for every family configuration in the grid."""
    out = []
    for n in NS:
        for m in MS:
            for name in ("AO", "AE", "AP"):
                out.append((f"{name} n={n} m={m}",
                            lambda name=name, n=n, m=m:
                            basis(AlgebraSpec(name, n, m=m))))
            for lam in LAMS:
                for name in ("AE1", "AC", "APtilde", "AC1n"):
                    out.append((f"{name} n={n} m={m} lam={lam:g}",
                                lambda name=name, n=n, m=m, lam=lam:
                                basis(AlgebraSpec(name, n, m=m, lam=lam))))
                out.append((f"rotation_dilation n={n} m={m} lam={lam:g}",
                            lambda n=n, m=m, lam=lam:
                            rotation_dilation_family(n, m, lam)))
        out.append((f"two_matrix_trace n={n}",
                    lambda n=n: two_matrix_trace_family(n)))
        out.append((f"rotation_pair n={n}",
                    lambda n=n: rotation_pair_family(n)))
    return out


CONFIGS = _configs()


def describe(family):
    """The pinned view of one family: structure in clear, numbers hashed."""
    digests = [hashlib.sha256() for _ in family.members]
    sampler = family.space.sampler(seed=0)
    for idx in range(POINTS):
        point = sampler(idx)
        for mem, h in zip(family.members, digests):
            try:
                h.update(repr(mem.eval(point)).encode())
            except EvaluationError as exc:
                h.update(f"error {exc}".encode())
        rows = family_jacobian(family.members, point, family.deps)
        for row, h in zip(rows, digests):
            h.update(repr(row).encode())
    deps = [str(c) for c in family.deps]

    def member_deps(mem):
        # "family" stands for the family's own dependency list
        own = [str(c) for c in mem.deps]
        return "family" if own == deps else own

    return {
        "label": family.label,
        "expected_count": family.expected_count,
        "deps": deps,
        "space": repr(family.space),
        "members": [[mem.label, member_deps(mem), h.hexdigest()]
                    for mem, h in zip(family.members, digests)],
    }


@pytest.fixture(scope="module")
def fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,build", CONFIGS, ids=[k for k, _ in CONFIGS])
def test_family_is_member_identical(key, build, fixture):
    assert describe(build()) == fixture[key]


def record():
    out = {}
    if os.path.exists(FIXTURE):
        with open(FIXTURE, encoding="utf-8") as fh:
            out = json.load(fh)
    for key, build in CONFIGS:
        if key not in out:
            out[key] = describe(build())
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
