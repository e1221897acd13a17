"""Spans and counts at invforge's layer boundaries, installed from the
benchmark's own files.

Each traced function is replaced, in every invforge module that binds it,
by a wrapper that records a span (id, name, start, end, parent span, call
id) in memory and adds its self time -- duration minus the time its child
spans cover -- to a per-name total.  The very hot leaves (``JetPoint.value``,
``Dual.__init__``, ``seeded_view``) get count-only wrappers.  ``uninstall``
puts every original back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Names whose callers look them up in more than one module; the trace is
# only trustworthy if every one of these bindings was replaced.
MUST_PATCH = ("liealg.matrix_rank", "verify.matrix_rank",
              "verify.family_jacobian", "verify.seeded_view",
              "liealg.value_grad_hess", "liealg.sample_generic")

MODULES = ("jetspace", "dual", "liealg", "invcat", "verify", "exprlang", "cli")


class Tracer:
    def __init__(self):
        # (span id, name, start, end, parent span id, call id)
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = Counter()   # (name, "calls" | "raised") or counter name
        self.call_id = 0          # index into call_keys of the current call
        self.call_keys = []
        self._stack = []          # open spans: [span id, name, child seconds]
        self._next_id = 0
        self._undo = []

    def begin_call(self, key):
        self.call_id = len(self.call_keys)
        self.call_keys.append(key)

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, before=None):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        counts = self.counts
        calls_key = (name, "calls")
        raised_key = (name, "raised")
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if before is not None:
                before(args, parent)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, name, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[2]
                counts[calls_key] += 1
                if not ok:
                    counts[raised_key] += 1
                if parent is not None:
                    parent[2] += dur
                spans.append((sid, name, start, end,
                              parent[0] if parent is not None else -1,
                              tracer.call_id))

        return wrapper

    def _counter(self, name, fn, key_for=None):
        counts = self.counts
        stack = self._stack

        if key_for is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[key_for(stack[-1][1] if stack else "")] += 1
                return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ patching

    def _replace(self, modules, orig, wrapper):
        """Rebind ``orig`` to ``wrapper`` wherever a module binds it."""
        where = []
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))
                    where.append(f"{mod.__name__.rsplit('.', 1)[-1]}.{key}")
        if not where:
            raise RuntimeError(f"no module binds {orig!r}")
        return where

    def _method(self, cls, attr, wrapper_of):
        orig = vars(cls)[attr]
        setattr(cls, attr, wrapper_of(orig))
        self._undo.append((cls, attr, orig))

    def install(self):
        import invforge
        from invforge import cli, dual, exprlang, invcat, jetspace, liealg, \
            verify

        mods = (invforge, cli, dual, exprlang, invcat, jetspace, liealg,
                verify)
        counts = self.counts
        bound = []

        def fn(owner, attr, name, before=None):
            orig = getattr(owner, attr)
            bound.extend(self._replace(mods, orig,
                                       self._span(name, orig, before)))

        def count_draw_samples(args, parent):
            if parent is not None and parent[1] == "verify.draw":
                counts["jetspace.draw_samples"] += 1

        def count_hess_passes(args, parent):
            k = len(args[1])
            counts["dual.hess_passes"] += k * k + 1

        fn(jetspace, "sample_generic", "jetspace.sample", count_draw_samples)
        self._method(jetspace.JetPoint, "value",
                     lambda f: self._counter("jetspace.value_reads", f))
        self._method(jetspace.JetPoint, "replace",
                     lambda f: self._counter("jetspace.replace_calls", f))

        fn(dual, "value_grad_hess", "dual.vgh", count_hess_passes)
        self._method(dual.Dual, "__init__",
                     lambda f: self._counter("dual.inits", f))

        self._method(liealg.ProlongedOperator, "flow_table",
                     lambda f: self._span("liealg.flow_table", f))
        self._method(liealg.ProlongedOperator, "coefficient_table",
                     lambda f: self._span("liealg.coeff_table", f))
        fn(liealg, "matrix_rank", "liealg.matrix_rank")
        fn(liealg, "generic_rank", "liealg.generic_rank")
        fn(liealg, "make_spec", "liealg.make_spec")
        fn(liealg, "catalog", "liealg.catalog")
        fn(liealg, "prolong2", "liealg.prolong2")

        fn(invcat, "basis", "invcat.basis")
        self._method(invcat.ScalarJetFunction, "eval",
                     lambda f: self._span("invcat.eval", f))
        self._method(invcat.ScalarJetFunction, "grad",
                     lambda f: self._span("invcat.grad", f))
        self._method(invcat.TensorBuilder, "build",
                     lambda f: self._span("invcat.tensor_build", f))

        fn(verify, "family_jacobian", "verify.jacobian")
        seeded = verify.seeded_view
        bound.extend(self._replace(mods, seeded, self._counter(
            "", seeded,
            key_for=lambda parent: "verify.jacobian_passes"
            if parent == "verify.jacobian" else "verify.other_passes")))
        fn(verify, "check_absolute", "verify.check_absolute")
        fn(verify, "check_on_manifold", "verify.check_on_manifold")
        fn(verify, "newton_project", "verify.newton")
        fn(verify, "independence_rank", "verify.independence_rank")
        fn(verify, "completeness", "verify.completeness")
        fn(verify, "_draw", "verify.draw")
        fn(verify, "_lstsq", "verify.lstsq")
        fn(verify, "check_covariance", "verify.check_covariance")

        fn(exprlang, "parse", "exprlang.parse")
        fn(exprlang, "bind", "exprlang.bind")
        fn(exprlang, "bind_scalar_function", "exprlang.bind")

        fn(cli, "main", "cli.main")

        missing = [name for name in MUST_PATCH if name not in bound]
        if missing:
            self.uninstall()
            raise RuntimeError(f"trace could not patch {missing}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def reset_totals(self):
        self.self_s.clear()
        self.counts.clear()


def layer_metrics(self_s, counts):
    """Per-layer metrics of one traced sweep, as {name: (value, unit)}."""
    self_s = defaultdict(float, self_s)
    counts = Counter(counts)

    def calls(name):
        return counts[(name, "calls")]

    def ratio(num, den):
        return num / den if den else 0.0

    samples = calls("jetspace.sample")
    draws_ok = calls("verify.draw") - counts[("verify.draw", "raised")]
    newton_ok = calls("verify.newton") - counts[("verify.newton", "raised")]
    rejected = (counts["jetspace.draw_samples"] - draws_ok
                + counts[("verify.newton", "raised")])
    out = {
        "jetspace.sample_calls": (samples, "count"),
        "jetspace.sample_s": (self_s["jetspace.sample"], "s"),
        "jetspace.sample_accept_ratio": (ratio(samples - rejected, samples),
                                         "ratio"),
        "jetspace.value_reads": (counts["jetspace.value_reads"], "count"),
        "jetspace.replace_calls": (counts["jetspace.replace_calls"], "count"),
        "dual.hess_passes": (counts["dual.hess_passes"], "count"),
        "dual.vgh_s": (self_s["dual.vgh"], "s"),
        "dual.inits": (counts["dual.inits"], "count"),
        "liealg.flow_table_calls": (calls("liealg.flow_table"), "count"),
        "liealg.flow_table_s": (self_s["liealg.flow_table"], "s"),
        "liealg.coeff_table_calls": (calls("liealg.coeff_table"), "count"),
        "liealg.coeff_table_s": (self_s["liealg.coeff_table"], "s"),
        "liealg.matrix_rank_calls": (calls("liealg.matrix_rank"), "count"),
        "liealg.matrix_rank_s": (self_s["liealg.matrix_rank"], "s"),
        "liealg.generic_rank_s": (self_s["liealg.generic_rank"], "s"),
        "invcat.basis_s": (self_s["invcat.basis"], "s"),
        "invcat.eval_calls": (calls("invcat.eval"), "count"),
        "invcat.eval_s": (self_s["invcat.eval"], "s"),
        "invcat.grad_calls": (calls("invcat.grad"), "count"),
        "invcat.grad_s": (self_s["invcat.grad"], "s"),
        "invcat.tensor_build_s": (self_s["invcat.tensor_build"], "s"),
        "verify.jacobian_calls": (calls("verify.jacobian"), "count"),
        "verify.jacobian_passes": (counts["verify.jacobian_passes"], "count"),
        "verify.jacobian_s": (self_s["verify.jacobian"], "s"),
        "verify.check_absolute_s": (self_s["verify.check_absolute"], "s"),
        "verify.check_on_manifold_s": (self_s["verify.check_on_manifold"],
                                       "s"),
        "verify.newton_calls": (calls("verify.newton"), "count"),
        "verify.newton_accept_ratio": (
            ratio(newton_ok, calls("verify.newton")), "ratio"),
        "verify.newton_s": (self_s["verify.newton"], "s"),
        "verify.lstsq_calls": (calls("verify.lstsq"), "count"),
        "verify.lstsq_s": (self_s["verify.lstsq"], "s"),
        "verify.check_covariance_s": (self_s["verify.check_covariance"], "s"),
        "exprlang.parse_s": (self_s["exprlang.parse"], "s"),
        "exprlang.bind_calls": (calls("exprlang.bind"), "count"),
        "exprlang.bind_s": (self_s["exprlang.bind"], "s"),
        "cli.main_self_s": (self_s["cli.main"], "s"),
    }
    for mod in MODULES:
        if mod != "cli":
            out[f"{mod}.self_s"] = (module_self_s(self_s, mod), "s")
    return out


def module_self_s(self_s, mod):
    return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == mod)
