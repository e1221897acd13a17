"""The benchmark's CLI calls and the byte-identity guard's calls give only
settings their runs read.

One table, ``cli._reads``, decides which settings a run reads; any other
setting given is a usage error.  Each call is put through argument
parsing, config merge and the settings check alone, with no run.
``invbench/workloads.py`` is loaded read-only, as ``test_tracer.py`` loads
the tracer.
"""

import importlib.util
import json
import os
import sys

import pytest

from invforge import cli
from test_report_identity import CALLS, FIXTURE

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "invbench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("invbench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


BENCHMARK_ARGVS = [(*call.argv, "--seed", "1")
                   for workload in _load_workloads().WORKLOADS.values()
                   for call in workload.calls if call.argv]
REPORT_ARGVS = [(*argv, "--seed", "0", "--out", "report.json")
                for argv in CALLS]


def _check(argv):
    """Parse ``argv``, merge its config and check its settings; no run."""
    args = cli._build_parser().parse_args(list(argv))
    cli._check_reads(args.command, cli._merge_config(args))


def test_report_calls_are_the_fixtures_calls():
    with open(FIXTURE, encoding="utf-8") as fh:
        assert {" ".join(argv) for argv in CALLS} == set(json.load(fh))


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS + REPORT_ARGVS,
                         ids=" ".join)
def test_benchmark_and_report_calls_give_only_read_settings(argv):
    _check(argv)
