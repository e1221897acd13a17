"""invforge benchmark: one closed-loop caller runs a workload's calls in
order, each starting after the previous one returns, and checks every
output against the expected-verdict table.

    PYTHONHASHSEED=0 python3 invbench/run.py --workload catalog --seed 1 \
        --seconds 18 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer split of a
traced run.  The lines before it print every metric by name and unit.
Exit code 0 when every call matched the table, 1 when some call did not,
2 when invforge cannot be found, PYTHONHASHSEED is not 0 or the arguments
are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".invbench_out")
EXPECTED = os.path.join(HERE, "expected.json")
# jet coordinate ids hash their kind strings, so str hash randomization
# changes the layout of the dicts and sets on the hot path; with random
# seeds the fastest sweep varied by about 8% from process to process
HASH_SEED = "0"
# every call is repeated at least this often, so each call's median rests
# on at least seven repetitions
MIN_SWEEPS = 7
MIN_TRACED_SWEEPS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_s": "s",
                    "call_tail_s": "s", "peak_rss_mb": "MiB"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="invbench", description=__doc__.split(
        "\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog", "manifold", "structure"))
    ap.add_argument("--seed", type=int, required=True,
                    help="draws invforge's --seed for each timed pass; the "
                         "warm-up and traced passes use it as is")
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length on the reference machine; sets the "
                         "number of repetitions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=EXPECTED,
                    help="expected-verdict table (default: %(default)s)")
    return ap.parse_args(argv)


def sweep(workload, seed, fed, table, failures, tracer=None, kernel=None):
    """One pass over the workload's calls; returns (wall seconds, call
    seconds, kernel seconds).  With ``kernel``, the calibration kernel is
    timed right before each call, outside the call's time.  Appends (call
    key, reason) to ``failures`` for each call whose output differs from
    the table."""
    from workloads import mismatch, run_call

    clock = time.perf_counter
    values = {}
    times, kernels = [], []
    start = clock()
    for call in workload.calls:
        if kernel is not None:
            kernels.append(kernel())
        if tracer is not None:
            tracer.begin_call(call.key)
        t0 = clock()
        try:
            observed = run_call(call, seed, fed)
        except Exception:  # a call that raises is a failed call
            traceback.print_exc()
            observed = None
        times.append(clock() - t0)
        if observed is None:
            failures.append((call.key, "raised"))
            continue
        why = mismatch(call, observed, table.get(call.key), values)
        if "value" in observed:
            values[call.key] = observed["value"]
        if why:
            failures.append((call.key, why))
    return clock() - start, times, kernels


def setup_probe(workload):
    """(set-up seconds, kernel seconds) of ``workload`` in a fresh
    interpreter.  The probes may write the bytecode cache, and write it
    inside the checkout, so that after the first probe every probe imports
    cached bytecode, as an installed package would."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        env=env)
    setup, kernel = done.stdout.split()[-2:]
    return float(setup), float(kernel)


def pass_seeds(seed, count):
    """invforge's seed for each of ``count`` timed passes, drawn from the
    run's ``seed``.  How long a call takes depends on the jet points it
    samples (Newton steps, rejected draws), by up to 70% for one
    ``manifold`` call, so each call is timed at ``count`` sets of points
    and its median taken."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(count)]


def plain_run(args, workload, table, failures):
    from calibrate import REFERENCE_S, kernel, scaled
    from workloads import build_objects

    setup_probe(workload)  # writes the bytecode cache
    fed = build_objects(workload)
    sweep(workload, args.seed, fed, table, failures)  # warm-up
    calls = [([], []) for _ in workload.calls]   # (times, kernels) per call
    probes = ([], [])
    passes = []   # raw seconds of each pass's calls
    # the warm-up pass counts against the run's length
    reps = max(MIN_SWEEPS,
               round(args.seconds / workload.nominal_sweep_s) - 1)
    for seed in pass_seeds(args.seed, reps):
        _, times, kernels = sweep(workload, seed, fed, table, failures,
                                  kernel=kernel)
        passes.append(sum(times))
        for (ts, ks), t, k in zip(calls, times, kernels):
            ts.append(t)
            ks.append(k)
        # one probe per pass spreads them over the run like the calls
        for xs, x in zip(probes, setup_probe(workload)):
            xs.append(x)
    per_call = [scaled(ts, ks) for ts, ks in calls]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": scaled(*probes),
        "wall_s": sum(per_call),
        "call_p50_s": statistics.median(per_call),
        "call_tail_s": max(per_call),
        "peak_rss_mb": rss_mb,
    }
    speed = REFERENCE_S / statistics.median(k for _, ks in calls for k in ks)
    each = (f"each the median of {reps} repetitions at reference speed, "
            "one seed each")
    notes = {
        "setup_s": f"median of {reps} fresh interpreters at reference speed",
        "wall_s": f"sum over {len(per_call)} calls, {each} (raw median pass "
                  f"{statistics.median(passes):.4f} s at host speed "
                  f"{speed:.2f})",
        "call_p50_s": f"median of {len(per_call)} calls, {each}",
        "call_tail_s": f"slowest of {len(per_call)} calls, {each}",
    }
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            notes, (reps + 1) * len(per_call))


def traced_run(args, workload, table, failures):
    from tracer import MODULES, Tracer, layer_metrics, module_self_s
    from workloads import build_objects

    fed = build_objects(workload)
    attempted = len(workload.calls)
    sweep(workload, args.seed, fed, table, failures)  # warm-up
    n = max(MIN_TRACED_SWEEPS,
            round(args.seconds / (3 * workload.nominal_sweep_s)))
    plain = []
    for _ in range(n):
        wall, times, _ = sweep(workload, args.seed, fed, table, failures)
        plain.append(wall)
        attempted += len(times)
    tracer = Tracer()
    tracer.install()
    per_sweep = []
    traced = []
    try:
        for _ in range(n):
            tracer.reset_totals()
            wall, times, _ = sweep(workload, args.seed, fed, table,
                                   failures, tracer)
            traced.append(wall)
            attempted += len(times)
            # cli.main wraps every CLI call, so its self time would absorb
            # any time no layer wrapper caught; coverage leaves it out
            covered = sum(module_self_s(tracer.self_s, m) for m in MODULES
                          if m != "cli")
            per_sweep.append((layer_metrics(tracer.self_s, tracer.counts),
                              covered / wall))
    finally:
        tracer.uninstall()
    _write_spans(args, workload, tracer)

    first = per_sweep[0][0]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(m[name][0] for m, _ in per_sweep)
        else:
            drift = {m[name][0] for m, _ in per_sweep}
            if len(drift) > 1:
                print(f"invbench: count {name} differs between traced "
                      f"sweeps: {sorted(drift)}", file=sys.stderr)
        metrics[name] = (value, unit)
    # the fastest traced pass over the fastest untraced one
    metrics["trace.overhead_ratio"] = (min(traced) / min(plain), "ratio")
    metrics["trace.coverage_ratio"] = (
        statistics.median(c for _, c in per_sweep), "ratio")
    notes = {
        "trace.overhead_ratio": f"traced wall {min(traced):.4f} s / untraced "
                                f"{min(plain):.4f} s, fastest of {n} sweeps "
                                "each",
        "trace.coverage_ratio": "sum of layer self times, cli.main's "
                                "excluded, / traced wall",
    }
    return metrics, notes, attempted


def _write_spans(args, workload, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR,
                        f"spans-{workload.name}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["span", "name", "start", "end", "parent",
                               "call"],
                   "call_keys": tracer.call_keys,
                   "spans": tracer.spans}, fh)
        fh.write("\n")


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "invforge", "__init__.py")):
        print(f"invbench: no invforge package under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        print(f"invbench: run with PYTHONHASHSEED={HASH_SEED} (see "
              "BENCHMARK.json's command)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    with open(args.expected, encoding="utf-8") as fh:
        table = json.load(fh)["calls"]
    failures = []
    run = traced_run if args.trace else plain_run
    metrics, notes, attempted = run(args, workload, table, failures)

    for key, why in failures[:20]:
        print(f"invbench: FAILED {key}: {why}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  closed loop, 1 caller")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:32s} {value:>16.6g} {unit:6s} {note}")
    print(f"  {'fail_ratio':32s} {len(failures) / attempted:>16.6g} "
          f"{'ratio':6s} {len(failures)} of {attempted} calls")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
