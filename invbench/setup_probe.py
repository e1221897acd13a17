"""Set-up time of one workload in a fresh interpreter.

Times importing invforge and building every basis, operator list, equation
residual and tensor the workload uses.  Prints those seconds, then the
median seconds of three calibration kernel runs in the same process (see
``calibrate.py``), on one line.

    python3 invbench/setup_probe.py catalog
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS, build_objects

    build_objects(WORKLOADS[argv[0]])
    setup = time.perf_counter() - START
    from calibrate import kernel

    print(repr(setup), repr(statistics.median(kernel() for _ in range(3))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
