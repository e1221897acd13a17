"""Verdict-only digest of every equation check, for changes that may move
residual digits but must not move a verdict or an exit code.

Runs ``verify --equation E --n N --samples 5 --seed S`` for all nine
equations, n in {3, 4} and seeds 0-20 (378 calls, in process), prints
each call's exit code and its check lines with the residuals stripped,
then one sha256 of those lines.  Two trees have the same verdicts on this
grid exactly when the last lines match:

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


def verdict_lines(name, n, seed):
    """The exit code, then each printed line with its residual removed."""
    argv = ["verify", "--equation", name, "--n", str(n), "--samples",
            str(SAMPLES), "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv, stream=out)
    lines = [f"{name} n={n} seed={seed} exit={code}"]
    lines += ["  " + line.split(" residual=")[0]
              for line in out.getvalue().splitlines()]
    return code, lines


def main():
    digest = hashlib.sha256()
    runs = nonzero = 0
    for name in EQUATIONS:
        for n in DIMENSIONS:
            for seed in SEEDS:
                code, lines = verdict_lines(name, n, seed)
                runs += 1
                nonzero += code != 0
                for line in lines:
                    print(line)
                    digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()} runs={runs} nonzero_exits={nonzero}")


if __name__ == "__main__":
    main()
