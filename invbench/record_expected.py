"""Record or cross-check the expected-verdict table.

    python3 invbench/record_expected.py record          # writes expected.json
    python3 invbench/record_expected.py compare 0 1 2   # checks seeds

``record`` runs every call of every workload once at seed 0 and stores its
exit code and, per check, name, verdict, rank and expected value (the gated
fields) plus the residual (recorded only).  The verdicts are properties of
the catalog, not of the seed: ``compare`` runs the calls at the given seeds
and lists every call whose gated fields differ from the table.  A verdict
that flips on some seed is a finding to report, not an entry to edit.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import EXPECTED  # noqa: E402
from workloads import (WORKLOADS, build_objects, mismatch,  # noqa: E402
                       run_call)


def record():
    table = {}
    for workload in WORKLOADS.values():
        fed = build_objects(workload)
        for call in workload.calls:
            observed = run_call(call, 0, fed)
            entry = observed
            if "value" in observed and not call.constant:
                entry = {"exit": observed["exit"]}
            table[call.key] = entry
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write(_dump(table))
    print(f"wrote {len(table)} entries to {EXPECTED}")


def _dump(table):
    """The table as JSON with one line per check, so diffs stay readable."""
    entries = []
    for key in sorted(table):
        entry = dict(table[key])
        checks = entry.pop("checks", None)
        body = json.dumps(entry, sort_keys=True)
        if checks is not None:
            lines = ",\n".join("    " + json.dumps(c) for c in checks)
            body = body[:-1] + ', "checks": [\n' + lines + "\n  ]}"
        entries.append(f"  {json.dumps(key)}: {body}")
    return ('{"recorded_at_seed": 0,\n'
            ' "gated": ["exit", "name", "verdict", "rank", "expected", '
            '"value"],\n'
            ' "calls": {\n' + ",\n".join(entries) + "\n }}\n")


def compare(seeds):
    with open(EXPECTED, encoding="utf-8") as fh:
        table = json.load(fh)["calls"]
    flips = 0
    for seed in seeds:
        for workload in WORKLOADS.values():
            fed = build_objects(workload)
            values = {}
            for call in workload.calls:
                observed = run_call(call, seed, fed)
                why = mismatch(call, observed, table.get(call.key), values)
                if "value" in observed:
                    values[call.key] = observed["value"]
                if why:
                    flips += 1
                    print(f"seed {seed}: {call.key}: {why}")
    print(f"{flips} differences over seeds {seeds}")
    return 1 if flips else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"]:
        record()
    elif sys.argv[1:2] == ["compare"]:
        raise SystemExit(compare([int(s) for s in sys.argv[2:]] or [0]))
    else:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
