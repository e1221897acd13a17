"""Verdict-only digest of every equation, basis and expression check, and
of the rank and completeness counts, for changes that may move residual
digits or the work done but must not move a verdict, a count or an exit
code.

Runs, in process, at seeds 0-20:

- ``verify --equation E --n N --samples 5`` for all nine equations and
  n in {3, 4} (378 calls), keeping each check line without its residual;
- ``rank --algebra A --n 3`` for all fifteen algebras (315 calls) and
  ``completeness --algebra A --n 3`` for the seven non-Galilei algebras
  (147 calls), keeping their whole output, which prints no residual;
- ``verify --algebra A --n 3 --samples 3`` for the thirteen cataloged
  bases (273 calls) and the seven ``verify --expr`` calls of the
  benchmark's ``structure`` workload (147 calls), keeping each check line
  without its residual.

It prints each call's exit code and its lines, then one sha256 of those
lines.  Two trees agree on this grid exactly when the last lines match:

    PYTHONPATH=src python tests/verdict_digest.py
"""

import contextlib
import hashlib
import io

from invforge import cli
from invforge.invcat import EQUATIONS

DIMENSIONS = (3, 4)
SEEDS = range(21)
SAMPLES = 5
RANK_ALGEBRAS = ("AO", "AE", "AE1", "AC", "AP", "APtilde", "AC1n", "AG_I",
                 "AG1_I", "AG2_I", "AG_II", "AG1_II", "AG2_II", "AP_inf",
                 "AP_BornInfeld")
COMPLETENESS_ALGEBRAS = RANK_ALGEBRAS[:7]
BASIS_ALGEBRAS = RANK_ALGEBRAS[:13]
BASIS_SAMPLES = 3
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
    for command, algebras in (("rank", RANK_ALGEBRAS),
                              ("completeness", COMPLETENESS_ALGEBRAS)):
        for name in algebras:
            yield [command, "--algebra", name, "--n", "3"]
    for name in BASIS_ALGEBRAS:
        yield ["verify", "--algebra", name, "--n", "3", "--samples",
               str(BASIS_SAMPLES)]
    for name, n, extra, expr in EXPRESSIONS:
        yield ["verify", "--algebra", name, "--n", n, *extra, "--expr", expr,
               "--samples", str(EXPR_SAMPLES)]


def main():
    digest = hashlib.sha256()
    runs = nonzero = 0
    for argv in calls():
        for seed in SEEDS:
            code, lines = verdict_lines(argv, seed)
            runs += 1
            nonzero += code != 0
            for line in lines:
                print(line)
                digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()} runs={runs} nonzero_exits={nonzero}")


if __name__ == "__main__":
    main()
