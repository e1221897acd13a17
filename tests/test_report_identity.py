"""Byte-identity guard: the deterministic part of thirty-one JSON reports,
pinned at full precision.

Hot-path refactors must change no number in a report; this compares each
report, ``meta.generated_at`` removed, with the copy in
``data/report_identity.json``.  Running this file records the calls that
have no entry yet and leaves the others alone; a change that alters a
report on purpose deletes that entry first, records it again and says why
in CHANGES.md:

    PYTHONPATH=src python tests/test_report_identity.py
"""

import io
import json
import os
import tempfile

import pytest

from invforge import cli

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "report_identity.json")
CALLS = (
    ("verify", "--algebra", "AE", "--n", "3", "--samples", "3"),
    ("verify", "--equation", "heat", "--n", "3", "--samples", "3"),
    ("rank", "--algebra", "AC", "--n", "3", "--samples", "5"),
    # complex-valued jets and Jacobian
    ("verify", "--algebra", "AG2_II", "--n", "3", "--samples", "2"),
    # generic rank, independence rank and absolute invariance in one report
    ("completeness", "--algebra", "AC", "--n", "3", "--samples", "4"),
    # polynomial coefficients bound from --function, curved in u
    ("verify", "--equation", "eikonal", "--n", "3", "--function", "eta=u^2",
     "--function", "a0=1+u", "--samples", "3"),
    # the conformal K coefficients, quadratic in every argument
    ("rank", "--algebra", "AC1n", "--n", "3", "--samples", "5"),
    # duals through mat_inverse and solve_linear (the mu = 0 theta)
    ("verify", "--algebra", "AG2_I", "--n", "3", "--mu", "0", "--lambda",
     "0.4", "--samples", "2"),
    # the catalog-table branches: rotation, both extended-Euclid branches,
    # conformal (three FAILs) and its lam = 0 branch, extended Poincare,
    # and the lam = 0 Minkowski conformal branch
    ("verify", "--algebra", "AO", "--n", "3", "--m", "2", "--samples", "2"),
    ("verify", "--algebra", "AE1", "--n", "3", "--m", "2", "--lambda", "0",
     "--samples", "2"),
    ("verify", "--algebra", "AE1", "--n", "3", "--lambda", "0.6",
     "--samples", "2"),
    ("verify", "--algebra", "AC", "--n", "3", "--m", "2", "--samples", "2"),
    ("verify", "--algebra", "AC", "--n", "3", "--m", "2", "--lambda", "0",
     "--samples", "2"),
    ("verify", "--algebra", "APtilde", "--n", "3", "--m", "2", "--lambda",
     "0.6", "--samples", "2"),
    ("verify", "--algebra", "AC1n", "--n", "3", "--m", "2", "--lambda", "0",
     "--samples", "2"),
    # the Galilei bases: real and complex, and both readings of the hatted
    # sums of the real projective family
    ("verify", "--algebra", "AG_I", "--n", "3", "--samples", "2"),
    ("verify", "--algebra", "AG1_I", "--n", "3", "--samples", "2"),
    ("verify", "--algebra", "AG_II", "--n", "3", "--samples", "2"),
    ("verify", "--algebra", "AG1_II", "--n", "3", "--samples", "2"),
    ("verify", "--algebra", "AG2_I", "--n", "3", "--samples", "2",
     "--hat-variant", "printed"),
    ("verify", "--algebra", "AG2_I", "--n", "3", "--samples", "2",
     "--hat-variant", "uniform"),
    # conj over explicit field slots only, on a complex binding
    ("verify", "--algebra", "AG_II", "--n", "3", "--expr",
     "u1_x1 * conj(u1_x1) + conj(S(2; 1)) * S(2; 1)", "--samples", "2"),
    # every other equation residual on its manifold, eikonal-trace at a
    # second order and heat at a second boost weight
    ("verify", "--equation", "schrodinger", "--n", "3", "--samples", "3"),
    ("verify", "--equation", "born-infeld", "--n", "3", "--samples", "3"),
    ("verify", "--equation", "eikonal-quasilinear", "--n", "3", "--samples",
     "3"),
    ("verify", "--equation", "eikonal-trace", "--n", "3", "--samples", "3"),
    ("verify", "--equation", "conformal-power", "--n", "3", "--samples", "3"),
    ("verify", "--equation", "galilei-projective", "--n", "3", "--samples",
     "3"),
    ("verify", "--equation", "schrodinger-projective", "--n", "3",
     "--samples", "3"),
    ("verify", "--equation", "eikonal-trace", "--n", "3", "--k", "2",
     "--samples", "3"),
    ("verify", "--equation", "heat", "--n", "3", "--mu", "0.5", "--samples",
     "3"),
)


def deterministic_report(argv, path):
    """(exit code, report without ``meta.generated_at``) at seed 0."""
    code = cli.main(list(argv) + ["--seed", "0", "--out", str(path)],
                    stream=io.StringIO())
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["meta"]["generated_at"]
    return code, doc


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_report_is_byte_identical(argv, tmp_path):
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)[" ".join(argv)]
    code, doc = deterministic_report(argv, tmp_path / "report.json")
    assert code == want["exit"]
    # floats print as their shortest round-trip repr: equal text is equal
    # bits
    assert json.dumps(doc, sort_keys=True) == json.dumps(want["report"],
                                                         sort_keys=True)


def record():
    with open(FIXTURE, encoding="utf-8") as fh:
        out = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CALLS:
            if " ".join(argv) in out:
                continue
            code, doc = deterministic_report(argv,
                                             os.path.join(tmp, "report.json"))
            out[" ".join(argv)] = {"exit": code, "report": doc}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
