"""Verdict-only digest of every equation, basis and expression check, and
of the rank and completeness counts, for changes that may move residual
digits or the work done but must not move a verdict, a count or an exit
code.

Runs, in process, at seeds 0-20:

- ``verify --equation E --n N --samples 5`` for all nine equations and
  n in {3, 4} (378 calls), and for seven equations at other parameters
  (``heat --mu 0``, ``schrodinger --mass 0``, ``galilei-projective --mu
  0.5``, ``schrodinger-projective --mass 0.5``, ``eikonal-trace --k 2``
  and ``--k 6``, and the benchmark's ``eikonal --function eta=u^2
  --function a0=1+u``; 294 calls), keeping each check line without its
  residual;
- ``rank --algebra A --n 3`` for all fifteen algebras (315 calls) and
  ``completeness --algebra A --n 3`` for the seven non-Galilei algebras
  (147 calls), keeping their whole output, which prints no residual;
- ``verify --algebra A --n 3 --samples 3`` for the thirteen cataloged
  bases (273 calls), for the massless AG2_II at lambda in {0, 0.4} (42
  calls: the R^4 branch and the N3 branch), and the seven ``verify
  --expr`` calls of the benchmark's ``structure`` workload (147 calls),
  keeping each check line without its residual;
- ``check_covariance`` with 4 samples for the six covariance pairs of the
  benchmark's ``structure`` workload and two negative controls (the
  Hessian, and theta at lambda = 0.6, under AC at lambda = 1), at n in
  {3, 4} (336 calls), keeping each record's operator and verdict.

It prints each call's exit code, or for a covariance call its overall
verdict, and its lines, then one sha256 of those lines.  Two trees agree
on this grid exactly when the last lines match:

    PYTHONPATH=src python tests/verdict_digest.py

With ``--expect SHA`` a mismatch prints both hashes and exits 1, so a
change that must move no verdict checks its gate with one command:

    PYTHONPATH=src python tests/verdict_digest.py --expect \
        7daf9c405af60fb424c3d20d8ccdd163b7caae8d938019561ab9170b6366b37a
"""

import argparse
import contextlib
import hashlib
import io
import sys

from invforge import check_covariance, cli, covariant_tensor
from invforge.invcat import EQUATIONS
from invforge.liealg import catalog, make_spec, prolong2

DIMENSIONS = (3, 4)
# equations checked again at other parameters than their defaults
EQUATION_PARAMS = (
    ("heat", ("--mu", "0")),
    ("schrodinger", ("--mass", "0")),
    ("galilei-projective", ("--mu", "0.5")),
    ("schrodinger-projective", ("--mass", "0.5")),
    ("eikonal-trace", ("--k", "2")),
    ("eikonal-trace", ("--k", "6")),
    ("eikonal", ("--function", "eta=u^2", "--function", "a0=1+u")),
)
SEEDS = range(21)
SAMPLES = 5
RANK_ALGEBRAS = ("AO", "AE", "AE1", "AC", "AP", "APtilde", "AC1n", "AG_I",
                 "AG1_I", "AG2_I", "AG_II", "AG1_II", "AG2_II", "AP_inf",
                 "AP_BornInfeld")
COMPLETENESS_ALGEBRAS = RANK_ALGEBRAS[:7]
BASIS_ALGEBRAS = RANK_ALGEBRAS[:13]
BASIS_SAMPLES = 3
# lambda of the massless AG2_II family: R^4 at 0, N3 elsewhere
MASSLESS_LAMBDAS = ("0", "0.4")
# (algebra, n, extra flags, expression), as in invbench/workloads.py
EXPRESSIONS = (
    ("AE", "3", (), "u_x1"),
    ("AE", "3", (), "S(2) + R(1) * u"),
    ("AO", "3", (), "S(3) - S(1)^3"),
    ("AP", "3", (), "(1 - R(1)) * S(1) + R(2)"),
    ("AP", "3", (), "u_x0"),
    ("AE", "4", (), "S(4) / S(2)^2"),
    ("AE", "3", ("--m", "2"), "contract(du1, du2)"),
)
EXPR_SAMPLES = 4
# (tensor, tensor kwargs, algebra, algebra kwargs), as in invbench/workloads.py,
# then two controls that FAIL K1..Kn and PASS every other generator
COVARIANCE = (
    ("theta", {"lam": 1.0}, "AC", {"lam": 1.0}),
    ("w", {}, "AC", {"lam": 0.0}),
    ("theta_minkowski", {"lam": 1.0}, "AC1n", {"lam": 1.0}),
    ("w_minkowski", {}, "AC1n", {"lam": 0.0}),
    ("implicit_theta", {}, "AG2_I", {"mu": 0.0, "rep": "u"}),
    ("hessian", {}, "AE1", {"lam": 0.6}),
    ("hessian", {}, "AC", {"lam": 1.0}),
    ("theta", {"lam": 0.6}, "AC", {"lam": 1.0}),
)
COVARIANCE_SAMPLES = 4


def verdict_lines(argv, seed):
    """The exit code, then each printed line with its residual removed."""
    argv = [*argv, "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv, stream=out)
    lines = [f"{' '.join(argv)} exit={code}"]
    lines += ["  " + line.split(" residual=")[0]
              for line in out.getvalue().splitlines()]
    return code, lines


def calls():
    for name in EQUATIONS:
        for n in DIMENSIONS:
            yield ["verify", "--equation", name, "--n", str(n), "--samples",
                   str(SAMPLES)]
    for name, extra in EQUATION_PARAMS:
        for n in DIMENSIONS:
            yield ["verify", "--equation", name, "--n", str(n), *extra,
                   "--samples", str(SAMPLES)]
    for command, algebras in (("rank", RANK_ALGEBRAS),
                              ("completeness", COMPLETENESS_ALGEBRAS)):
        for name in algebras:
            yield [command, "--algebra", name, "--n", "3"]
    for name in BASIS_ALGEBRAS:
        yield ["verify", "--algebra", name, "--n", "3", "--samples",
               str(BASIS_SAMPLES)]
    for lam in MASSLESS_LAMBDAS:
        yield ["verify", "--algebra", "AG2_II", "--mass", "0", "--lambda",
               lam, "--n", "3", "--samples", str(BASIS_SAMPLES)]
    for name, n, extra, expr in EXPRESSIONS:
        yield ["verify", "--algebra", name, "--n", n, *extra, "--expr", expr,
               "--samples", str(EXPR_SAMPLES)]


def covariance_calls():
    """Per covariance pair and n: a call's name and a function of the seed
    giving its report."""
    for tname, tkw, aname, akw in COVARIANCE:
        for n in DIMENSIONS:
            tensor = covariant_tensor(tname, n, **tkw)
            ops = [prolong2(f) for f in catalog(make_spec(aname, n, **akw))]
            yield (f"check_covariance {tname}{tkw} {aname}{akw} --n {n}",
                   lambda seed, tensor=tensor, ops=ops: check_covariance(
                       tensor, ops, n_samples=COVARIANCE_SAMPLES, seed=seed))


def covariance_lines(call, seed):
    """The overall verdict, then each record's verdict and operator."""
    name, run = call
    rep = run(seed)
    return rep.verdict != "PASS", \
        [f"{name} --seed {seed} verdict={rep.verdict}"] + \
        [f"  {r.verdict} covariance:{r.operator}" for r in rep.records]


def main(argv=None):
    ap = argparse.ArgumentParser(description="verdict-only digest")
    ap.add_argument("--expect", metavar="SHA",
                    help="exit 1 unless the digest is this sha256")
    args = ap.parse_args(argv)
    digest = hashlib.sha256()
    runs = nonzero = 0
    jobs = [(verdict_lines, call) for call in calls()]
    jobs += [(covariance_lines, call) for call in covariance_calls()]
    for lines_of, call in jobs:
        for seed in SEEDS:
            code, lines = lines_of(call, seed)
            runs += 1
            nonzero += code != 0
            for line in lines:
                print(line)
                digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()} runs={runs} nonzero_exits={nonzero}")
    if args.expect is not None and digest.hexdigest() != args.expect:
        print(f"digest mismatch: expected {args.expect}, "
              f"got {digest.hexdigest()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
