"""The benchmark's tracer must still find every name it patches.

``invbench/tracer.py`` rebinds functions and methods by name; a refactor
that renames or drops one of them breaks the traced benchmark.  This runs
the tracer's own install and uninstall, so such a change fails here too.
"""

import importlib.util
import io
import os

import invforge
from invforge import cli, dual, exprlang, invcat, jetspace, liealg, verify

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "invbench", "tracer.py")
MODULES = (invforge, cli, dual, exprlang, invcat, jetspace, liealg, verify)
CLASSES = (jetspace.JetPoint, dual.Dual, liealg.ProlongedOperator,
           invcat.ScalarJetFunction, invcat.TensorBuilder)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("invbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    return {(owner.__name__, key): val
            for owner in MODULES + CLASSES
            for key, val in list(vars(owner).items())}


def test_tracer_installs_and_uninstall_restores_every_binding():
    before = _bindings()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key, val in during.items() if val is not before[key]}
        for name in ("verify.seeded_view", "verify.family_jacobian",
                     "liealg.matrix_rank", "liealg.value_grad_hess",
                     "liealg.sample_generic"):
            mod, attr = name.split(".")
            assert (f"invforge.{mod}", attr) in changed, name
        for cls, attr in ((jetspace.JetPoint, "value"),
                          (jetspace.JetPoint, "replace"),
                          (dual.Dual, "__init__"),
                          (invcat.ScalarJetFunction, "eval"),
                          (invcat.ScalarJetFunction, "grad"),
                          (invcat.TensorBuilder, "build")):
            assert (cls.__name__, attr) in changed, (cls.__name__, attr)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_counts_see_every_prolongation_table():
    """Each check reads its tables through the two traced methods: AE at
    n = 3 has 6 operators, of which verify with 2 samples leaves out the 3
    translations, which move no coordinate its basis reads, and so builds
    6 flow tables; rank, allowed 3 trials, reaches full rank 6 on the
    first and stops there after 6 coefficient tables."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for argv in (["verify", "--algebra", "AE", "--n", "3", "--samples",
                      "2", "--seed", "0"],
                     ["rank", "--algebra", "AE", "--n", "3", "--samples",
                      "30", "--seed", "0"]):
            assert cli.main(argv, stream=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts[("liealg.flow_table", "calls")] == 6
    assert tracer.counts[("liealg.coeff_table", "calls")] == 6


def test_every_pass_of_a_d2_read_after_a_first_order_row_is_traced():
    """A d2 read after a first-order row at one point runs each unheld
    coefficient's value_grad_hess call again at full depth, so the traced
    ``dual.hess_passes`` sees both of its calls: AG2_I's one unheld
    function, the projective generator's cubic eta, makes 2 calls over
    k = 5 arguments, each weighed k * k + 1.  Its 7 functions with held
    Hessians make Jet1 passes, which no counter sees (AC's 12 functions
    made 24 calls before their Hessians were held).  The fields are
    planned before the trace, so no probe is counted."""
    spec = liealg.make_spec("AG2_I", 3)
    fields = liealg.catalog(spec)
    for field in fields:
        if field.plan is None:
            field.plan = liealg._plan(field)
    types = (float,) * 5
    unheld = {f for field in fields
              for f, held in zip(field.xi + field.eta, field.plan[0])
              if held is None and liealg._hessians(f, 4, 1, types) is None}
    assert len(unheld) == 1
    ops = [liealg.prolong2(f) for f in fields]
    point = liealg.make_sampler(4, 1, seed=5)(0)
    d1 = liealg.flow_positions(4, 1, [jetspace.d1_coord(1, i)
                                      for i in range(4)])
    d2 = liealg.flow_positions(4, 1, [jetspace.d2_coord(1, 0, 1)])
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for at in (d1, d2):
            for op in ops:
                op.flow_table(point, at)
    finally:
        tracer.uninstall()
    assert tracer.counts[("dual.vgh", "calls")] == 2
    assert tracer.counts["dual.hess_passes"] == 2 * (5 * 5 + 1)
