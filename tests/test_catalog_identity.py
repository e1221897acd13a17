"""Member-identity guard for the catalog families, the three special
rotation families, and the Galilei families with their tensors and
projective equations, and the components of the other covariant tensors
and the other equation residuals.

For every family over a grid of (n, m, lam) this pins the family label,
expected count, dependency set and space, and per member its label, its
dependencies (``"family"`` when they are the family's) and a sha256 of
the ``repr`` of its value and of its family Jacobian row at sampled
points; for the other tensors and residuals the row is each member's own
``ScalarJetFunction.grad`` over the dependency set.  A rewrite of how the
members are built must leave every entry byte-identical.  Running this file records the
entries that are missing and leaves the others alone:

    PYTHONPATH=src python tests/test_catalog_identity.py
"""

import hashlib
import json
import os

import pytest

from invforge.dual import EvaluationError
from invforge.invcat import (
    BasisFamily,
    basis,
    covariant_tensor,
    equation_function,
    galilei_mu0_determinant_family,
    rotation_dilation_family,
    rotation_pair_family,
    two_matrix_trace_family,
)
from invforge.liealg import AlgebraSpec, make_spec
from invforge.verify import family_jacobian

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "catalog_identity.json")
POINTS = 2
NS = (3, 4)
MS = (1, 2, 3)
LAMS = (0.0, 0.4, 0.6, 1.0, 2.0)
# Galilei grid: boost weights, masses, and the lam values of the families
# that read lam
MUS = (1.0, 0.5, 0.0)
MASSES = (1.0, 0.5)
GALILEI_LAMS = (0.0, 0.4, 1.0)
HATS = ("printed", "uniform")
# (tensor, whether it reads mu)
GALILEI_TENSORS = (("galilei_theta", True), ("galilei_theta2", True),
                   ("galilei_h", True), ("galilei_hhat_mu0", False),
                   ("implicit_theta", False))
# the other tensors, with the lam values of those that read lam, and the
# other equations, with the power of the eikonal trace
OTHER_TENSORS = (("theta", (1.0, 0.4)), ("w", (1.0,)),
                 ("theta_minkowski", (1.0, 0.4)), ("w_minkowski", (1.0,)),
                 ("theta_vector_minkowski", (1.0,)), ("eikonal_theta", (1.0,)),
                 ("hessian", (1.0,)), ("position", (1.0,)))
OTHER_EQUATIONS = (("heat", {}), ("schrodinger", {}), ("born-infeld", {}),
                   ("eikonal", {}), ("eikonal-quasilinear", {}),
                   ("eikonal-trace", {"k": 1}), ("eikonal-trace", {"k": 2}),
                   ("eikonal-trace", {"k": 3}), ("conformal-power", {}))
# the parameters those entries leave at their defaults: zero and negative
# boost weights and masses, where a complex constant's zero real part may
# carry either sign, and the eikonal trace's higher powers
EQUATION_PARAMS = (("heat", {"mu": 0.5}), ("heat", {"mu": 0.0}),
                   ("heat", {"mu": -1.0}), ("schrodinger", {"mass": 0.5}),
                   ("schrodinger", {"mass": 0.0}),
                   ("schrodinger", {"mass": -0.5}),
                   ("eikonal-trace", {"k": 4}), ("eikonal-trace", {"k": 5}),
                   ("eikonal-trace", {"k": 6}))
PROJECTIVE_MUS = (0.0, -1.0)
PROJECTIVE_MASSES = (0.0, -0.5)
# every equation is also pinned at this dimension
EQUATION_N = 5


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
    return out + _galilei_configs() + _member_grad_configs()


def _galilei_spec(name, n, **kw):
    return make_spec(name, n, rep="log", **kw)


def _as_family(label, members, space, deps):
    """Tensor components or an equation residual, described like a basis."""
    return BasisFamily(label, None, tuple(members), len(members), space, deps)


def _tensor_family(name, n, **kw):
    t = covariant_tensor(name, n, **kw)
    return _as_family(t.label, t.components(), t.space, t.deps)


def _residual_family(name, n, **kw):
    e = equation_function(name, n, **kw)
    return _as_family(e.label, [e], e.space, e.deps)


def _galilei_configs():
    """The real and complex Galilei bases under both hat variants, the
    bordered-determinant family, the Galilei tensors and the projective
    residuals."""
    out = []
    for n in NS:
        params = []
        for mu in MUS:
            params += [("AG_I", {"mu": mu}), ("AG1_I", {"mu": mu})]
            params += ([("AG2_I", {"mu": mu})] if mu != 0 else
                       [("AG2_I", {"mu": mu, "lam": lam})
                        for lam in GALILEI_LAMS])
        for mass in MASSES:
            params += [("AG_II", {"mass": mass}), ("AG2_II", {"mass": mass})]
            params += [("AG1_II", {"mass": mass, "lam": lam})
                       for lam in GALILEI_LAMS]
        params += [("AG2_II", {"mass": 0.0, "lam": lam})
                   for lam in GALILEI_LAMS]
        for name, kw in params:
            text = " ".join(f"{k}={v:g}" for k, v in kw.items())
            for hat in HATS:
                out.append((f"{name} n={n} {text} [{hat}]",
                            lambda name=name, n=n, kw=kw, hat=hat:
                            basis(_galilei_spec(name, n, **kw), hat)))
        out.append((f"galilei_mu0_determinant n={n}",
                    lambda n=n: galilei_mu0_determinant_family(n)))
        for tname, reads_mu in GALILEI_TENSORS:
            for mu in MUS[:2] if reads_mu else MUS[:1]:
                out.append((f"tensor {tname} n={n} mu={mu:g}",
                            lambda tname=tname, n=n, mu=mu:
                            _tensor_family(tname, n, mu=mu)))
    for n in (*NS, EQUATION_N):
        for mu in MUS[:2] + PROJECTIVE_MUS:
            out.append((f"equation galilei-projective n={n} mu={mu:g}",
                        lambda n=n, mu=mu:
                        _residual_family("galilei-projective", n, mu=mu)))
        for mass in MASSES + PROJECTIVE_MASSES:
            out.append((f"equation schrodinger-projective n={n} "
                        f"mass={mass:g}",
                        lambda n=n, mass=mass:
                        _residual_family("schrodinger-projective", n,
                                         mass=mass)))
    return out


def _member_grads(members, point, coords):
    """Each member's own gradient over ``coords``."""
    return [mem.grad(point, coords) for mem in members]


def _member_grad_configs():
    """The tensors and residuals not pinned above, each row its member's
    ``ScalarJetFunction.grad``; the key starts with "grad"."""
    out = []
    for n in NS:
        for tname, lams in OTHER_TENSORS:
            for lam in lams:
                out.append((f"grad tensor {tname} n={n} lam={lam:g}",
                            lambda tname=tname, n=n, lam=lam:
                            _tensor_family(tname, n, lam=lam)))
    for n in (*NS, EQUATION_N):
        for ename, kw in OTHER_EQUATIONS + EQUATION_PARAMS:
            text = "".join(f" {k}={v:g}" for k, v in kw.items())
            out.append((f"grad equation {ename} n={n}{text}",
                        lambda ename=ename, n=n, kw=kw:
                        _residual_family(ename, n, **kw)))
    return out


CONFIGS = _configs()


def _rows(key):
    return _member_grads if key.startswith("grad ") else family_jacobian


def describe(family, rows=family_jacobian):
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
        for row, h in zip(rows(family.members, point, family.deps),
                          digests):
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
    assert describe(build(), _rows(key)) == fixture[key]


def record():
    out = {}
    if os.path.exists(FIXTURE):
        with open(FIXTURE, encoding="utf-8") as fh:
            out = json.load(fh)
    for key, build in CONFIGS:
        if key not in out:
            out[key] = describe(build(), _rows(key))
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
