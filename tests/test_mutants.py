"""The resolution of the invariance rule against a wrong generator.

A mutant edits one generator row of a cataloged algebra: the row's first
eta text e becomes ``(e) + 1e-06 * x3 * u1``, a term no generator of any
of these algebras has.  Rebound with the other rows unchanged, the basis
check (3 samples, seed 0, the default tolerance) must report a new FAIL:
some (operator, member) record that PASSes under the original rows
FAILs under the mutant.  A member that already FAILs cannot show the
error, so its records do not count.  Every row of the 13 cataloged bases
at n = 3 must be caught; a survivor is a finding about the rule, not a
case for a larger epsilon.
"""

import pytest

from invforge.invcat import BASES, basis
from invforge.liealg import bind_generators, generator_rows, make_spec, \
    prolong2
from invforge.verify import check_absolute

EPS = "1e-06"


def _spec(name):
    return make_spec(name, 3, **({"rep": "log"} if name.startswith("AG")
                                 else {}))


def _verdicts(spec, rows, family):
    ops = [prolong2(f) for f in bind_generators(spec, rows)]
    report = check_absolute(ops, family, n_samples=3, seed=0)
    return {(r.operator, r.invariant): r.verdict for r in report.records}


@pytest.mark.parametrize("name", list(BASES))
def test_every_generator_row_mutant_is_killed(name):
    spec = _spec(name)
    rows = generator_rows(spec)
    family = basis(spec)
    original = _verdicts(spec, rows, family)
    survivors = []
    for i, (label, xi, eta) in enumerate(rows):
        mutant = list(rows)
        mutant[i] = label, xi, [f"({eta[0]}) + {EPS} * x3 * u1", *eta[1:]]
        verdicts = _verdicts(spec, mutant, family)
        if not any(original[key] == "PASS" and v == "FAIL"
                   for key, v in verdicts.items()):
            survivors.append(label)
    assert not survivors, (
        f"{name} at n = 3: the eta + {EPS}*x3*u1 mutant of row(s) "
        f"{', '.join(survivors)} adds no FAIL")
