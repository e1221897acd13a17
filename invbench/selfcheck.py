"""Checks on the benchmark itself.

    python3 invbench/selfcheck.py

* Negative control: one verdict in a copy of the expected table is flipped;
  a run against that copy must exit non-zero and report failed calls.
* Count determinism: two traced runs with the same seed, in separate
  processes, must report identical values for every count metric
  (``*_calls``, ``*_passes``, ``*_reads``, ``*_inits``, ``*_ratio`` of the
  layers; the timing ratios under ``trace.`` are excluded).
* Trace coverage: in both traced runs, the layer self times, without
  ``cli.main``'s, must add up to at least ``MIN_COVERAGE`` of the traced
  wall time, so a layer call that no wrapper catches shows.

Both checks run on every workload at seed ``SEED``.  Prints one PASS/FAIL
line per check; exits 0 only when all pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT_DIR = os.path.join(ROOT, ".invbench_out")
COUNT_SUFFIXES = ("_calls", "_passes", "_reads", "_inits", "_ratio")
SEED = 1
MIN_COVERAGE = 0.9


def _run(workload, seed, trace, expected=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if expected:
        cmd += ["--expected", expected]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout + done.stderr


def negative_control(workload, seed):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    # the first check of the workload's first call that has checks
    key = next(c.key for c in WORKLOADS[workload].calls
               if "checks" in doc["calls"][c.key])
    check = doc["calls"][key]["checks"][0]
    check["verdict"] = "FAIL" if check["verdict"] == "PASS" else "PASS"
    os.makedirs(OUT_DIR, exist_ok=True)
    flipped = os.path.join(OUT_DIR, f"flipped-{workload}.json")
    with open(flipped, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, result, output = _run(workload, seed, 0, expected=flipped)
    ok = (code != 0 and result is not None and result["failed"] > 0
          and not result["correct"])
    detail = (f"exit {code}, failed {result['failed']} of "
              f"{result['attempted']}" if result else f"exit {code}, no "
              "result line")
    return ok, f"flipped {check['name']!r} of {key!r}: {detail}", output


def count_determinism(workload, seed):
    runs = [_run(workload, seed, 1) for _ in range(2)]
    if any(code != 0 or result is None for code, result, _ in runs):
        return False, "a traced run failed", runs[0][2] + runs[1][2]
    first, second = (r[1]["metrics"] for r in runs)
    names = [n for n in first
             if n.endswith(COUNT_SUFFIXES) and not n.startswith("trace.")]
    differ = [f"{n}: {first[n]['value']} vs {second[n]['value']}"
              for n in names if first[n]["value"] != second[n]["value"]]
    coverage = [m["trace.coverage_ratio"]["value"] for m in (first, second)]
    low = [f"trace coverage {c:.3f} < {MIN_COVERAGE}" for c in coverage
           if c < MIN_COVERAGE]
    ok = not differ and not low
    detail = (f"{len(names)} count metrics identical, trace coverage "
              f"{min(coverage):.3f}" if ok else "; ".join(differ + low))
    return ok, detail, ""


def main():
    all_ok = True
    for workload in WORKLOADS:
        for label, check in (("negative control", negative_control),
                             ("count determinism and trace coverage",
                              count_determinism)):
            ok, detail, output = check(workload, SEED)
            all_ok = all_ok and ok
            print(f"{'PASS' if ok else 'FAIL'} {label} [{workload}]: {detail}")
            if not ok and output:
                print(output, file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
