"""The three benchmark workloads: their calls, the objects each call
uses, and how one call is run and its output read.

A call is either a CLI invocation (``argv`` handed to ``invforge.cli.main``
with ``--seed`` appended) or a covariance fit (``check_covariance`` has no
CLI surface).  Every call is identified by a stable ``key`` that indexes
the expected-verdict table.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass

CATALOG_SAMPLES = "3"
MANIFOLD_SAMPLES = "5"
STRUCTURE_SAMPLES = "20"
EXPR_SAMPLES = "4"
COVARIANCE_SAMPLES = 4

_CATALOG_N3 = ("AO", "AE", "AE1", "AC", "AP", "APtilde", "AC1n", "AG_I",
               "AG1_I", "AG2_I", "AG_II", "AG1_II", "AG2_II")
_EQUATIONS = ("heat", "schrodinger", "born-infeld", "eikonal",
              "eikonal-quasilinear", "eikonal-trace", "conformal-power",
              "galilei-projective", "schrodinger-projective")
_NO_BASIS = ("AP_inf", "AP_BornInfeld")
_RANK_ALGEBRAS = _CATALOG_N3 + _NO_BASIS
_COMPLETENESS_ALGEBRAS = ("AO", "AE", "AE1", "AC", "AP", "APtilde", "AC1n")
# (tensor, tensor kwargs, algebra, algebra kwargs): each tensor against the
# algebra whose prolonged action it is covariant under
_COVARIANCE = (
    ("theta", {"lam": 1.0}, "AC", {"lam": 1.0}),
    ("w", {}, "AC", {"lam": 0.0}),
    ("theta_minkowski", {"lam": 1.0}, "AC1n", {"lam": 1.0}),
    ("w_minkowski", {}, "AC1n", {"lam": 0.0}),
    ("implicit_theta", {}, "AG2_I", {"mu": 0.0, "rep": "u"}),
    ("hessian", {}, "AE1", {"lam": 0.6}),
)
# verify --expr: invariants that must PASS and two non-invariants that must
# FAIL under the named algebra
_VERIFY_EXPRS = (
    ("AE", "3", (), "u_x1"),
    ("AE", "3", (), "S(2) + R(1) * u"),
    ("AO", "3", (), "S(3) - S(1)^3"),
    ("AP", "3", (), "(1 - R(1)) * S(1) + R(2)"),
    ("AP", "3", (), "u_x0"),
    ("AE", "4", (), "S(4) / S(2)^2"),
    ("AE", "3", ("--m", "2"), "contract(du1, du2)"),
)
# eval --expr: (expression, CONSTANT when its value is the same at every
# point, else the expression whose value it must equal at the same point)
CONSTANT = "constant"
_EVAL_EXPRS = (
    ("2 + 3 * 4 ^ 2", CONSTANT),
    ("u_x1x1 + u_x2x2 + u_x3x3", None),
    ("S(1)", "u_x1x1 + u_x2x2 + u_x3x3"),
    ("u_x1^2 + u_x2^2 + u_x3^2", None),
    ("R(1)", "u_x1^2 + u_x2^2 + u_x3^2"),
)


@dataclass(frozen=True)
class Call:
    """One closed-loop call; ``argv`` for the CLI, else a covariance fit."""

    key: str
    argv: tuple = ()
    tensor: tuple = ()     # (name, kwargs) for check_covariance
    algebra: tuple = ()    # (name, kwargs) for check_covariance
    equals: str = ""       # key of an eval call this one must match
    constant: bool = False  # eval of a constant: the table holds its value


def _cli(*argv, equals="", constant=False):
    return Call(" ".join(argv), argv=tuple(argv), equals=equals,
                constant=constant)


def _eval_key(expr):
    return " ".join(("eval", "--expr", expr, "--n", "3"))


def _catalog():
    calls = [_cli("verify", "--algebra", a, "--n", "3",
                  "--samples", CATALOG_SAMPLES) for a in _CATALOG_N3]
    calls.append(_cli("verify", "--algebra", "AG2_I", "--n", "3", "--mu", "0",
                      "--lambda", "0.4", "--samples", CATALOG_SAMPLES))
    calls += [_cli("verify", "--algebra", "AE", "--n", n,
                   "--samples", CATALOG_SAMPLES) for n in ("4", "5")]
    return calls


def _manifold():
    calls = [_cli("verify", "--equation", e, "--n", "3",
                  "--samples", MANIFOLD_SAMPLES) for e in _EQUATIONS]
    calls.append(_cli("verify", "--equation", "eikonal", "--n", "3",
                      "--function", "eta=u^2", "--function", "a0=1+u",
                      "--samples", MANIFOLD_SAMPLES))
    return calls


def _structure():
    calls = [_cli("rank", "--algebra", a, "--n", "3",
                  "--samples", STRUCTURE_SAMPLES) for a in _RANK_ALGEBRAS]
    calls += [_cli("completeness", "--algebra", a, "--n", "3",
                   "--samples", STRUCTURE_SAMPLES)
              for a in _COMPLETENESS_ALGEBRAS]
    for tname, tkw, aname, akw in _COVARIANCE:
        key = (f"check_covariance {tname}{_kw_text(tkw)} "
               f"{aname}{_kw_text(akw)}")
        calls.append(Call(key, tensor=(tname, tkw), algebra=(aname, akw)))
    for alg, n, extra, expr in _VERIFY_EXPRS:
        calls.append(_cli("verify", "--algebra", alg, "--n", n, *extra,
                          "--expr", expr, "--samples", EXPR_SAMPLES))
    for expr, ref in _EVAL_EXPRS:
        calls.append(_cli("eval", "--expr", expr, "--n", "3",
                          constant=ref == CONSTANT,
                          equals=_eval_key(ref) if ref not in (None, CONSTANT)
                          else ""))
    return calls


def _kw_text(kw):
    return "".join(f"[{k}={v}]" for k, v in sorted(kw.items()))


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    # seconds one repetition took on the reference machine (see README): a
    # pass over ``calls`` with a calibration kernel before each call, and
    # one set-up probe; a run makes seconds / nominal_sweep_s passes, so
    # its amount of work does not depend on the host's speed
    nominal_sweep_s: float


WORKLOADS = {
    "catalog": Workload("catalog", tuple(_catalog()), 2.1),
    "manifold": Workload("manifold", tuple(_manifold()), 1.4),
    "structure": Workload("structure", tuple(_structure()), 2.6),
}


# --------------------------------------------------------------------------
# set-up: every basis, operator list, equation residual and tensor a
# workload uses, built once before the first timed call


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _spec(invforge, name, n, kw):
    kw = dict(kw)
    if name.startswith("AG"):
        kw.setdefault("rep", "log")
    return invforge.make_spec(name, n, **kw)


def _ops(invforge, spec):
    return [invforge.prolong2(f) for f in invforge.catalog(spec)]


def _cli_spec_kwargs(argv):
    kw = {}
    for flag, key, cast in (("--lambda", "lam", float), ("--mu", "mu", float),
                            ("--m", "m", int)):
        if flag in argv:
            kw[key] = cast(_flag(argv, flag))
    return kw


def build_objects(workload):
    """Build what ``workload`` uses; returns {call key: (tensor, ops)} for
    the covariance calls, the only ones the benchmark itself feeds."""
    import invforge
    from invforge.invcat import EQUATIONS

    fed = {}
    for call in workload.calls:
        if call.tensor:
            tname, tkw = call.tensor
            aname, akw = call.algebra
            tensor = invforge.covariant_tensor(tname, 3, **tkw)
            tensor.components()
            fed[call.key] = (tensor, _ops(invforge, _spec(invforge, aname, 3,
                                                          akw)))
            continue
        argv = call.argv
        if argv[0] == "eval":
            continue
        n = int(_flag(argv, "--n"))
        equation = _flag(argv, "--equation")
        if equation is not None:
            info = EQUATIONS[equation]
            invforge.equation_function(equation, n)
            _ops(invforge, info.default_algebra(n, {}))
            continue
        spec = _spec(invforge, _flag(argv, "--algebra"), n,
                     _cli_spec_kwargs(argv))
        _ops(invforge, spec)
        # expressions are bound per call; the two sampled algebras have no
        # basis (rank falls back to a plain sampler for them)
        if "--expr" not in argv and spec.name not in _NO_BASIS:
            invforge.basis(spec)
    return fed


# --------------------------------------------------------------------------
# running one call and reading its output

_CHECK_LINE = re.compile(
    r"^(PASS|FAIL) (.+?)(?: rank=(-?\d+))?(?: expected=(-?\d+))?"
    r"(?: residual=(\S+))?$")
_EVAL_LINE = re.compile(r"^.* = (\S+)$")


def run_call(call, seed, fed):
    """Run one call; returns its observed outcome as a plain dict."""
    if call.tensor:
        from invforge import check_covariance

        tensor, ops = fed[call.key]
        rep = check_covariance(tensor, ops, n_samples=COVARIANCE_SAMPLES,
                               seed=seed)
        return {"exit": 0 if rep.verdict == "PASS" else 1,
                "checks": [{"name": f"covariance:{r.operator}",
                            "verdict": r.verdict, "rank": None,
                            "expected": None, "residual": r.residual}
                           for r in rep.records]}
    from invforge import cli

    out = io.StringIO()
    code = cli.main(list(call.argv) + ["--seed", str(seed)], stream=out)
    return parse_output(call, code, out.getvalue())


def parse_output(call, code, text):
    lines = text.splitlines()
    if call.argv[0] == "eval":
        m = _EVAL_LINE.match(lines[-1]) if lines else None
        return {"exit": code, "value": float(m.group(1)) if m else None}
    checks = []
    for line in lines:
        m = _CHECK_LINE.match(line)
        if m is None:
            continue
        verdict, name, rank, expected, resid = m.groups()
        checks.append({
            "name": name, "verdict": verdict,
            "rank": int(rank) if rank is not None else None,
            "expected": int(expected) if expected is not None else None,
            "residual": float(resid) if resid is not None else None,
        })
    return {"exit": code, "checks": checks}


def mismatch(call, observed, expected, values):
    """Why ``observed`` differs from the table entry, or "" when it agrees.

    Exit code, and each check's name, verdict, rank and expected value are
    gated; residuals are recorded in the table but not compared.  ``values``
    maps eval keys to values already seen at this seed in this sweep."""
    if expected is None:
        return "no entry in the expected table"
    if observed["exit"] != expected["exit"]:
        return f"exit {observed['exit']} != {expected['exit']}"
    if "value" in observed:
        val = observed["value"]
        if val is None or not math.isfinite(val):
            return f"eval printed no finite value ({val!r})"
        if "value" in expected and val != expected["value"]:
            return f"value {val!r} != {expected['value']!r}"
        if call.equals:
            ref = values.get(call.equals)
            if ref is None or abs(val - ref) > 1e-12 * max(1.0, abs(ref)):
                return f"value {val!r} != {call.equals!r} value {ref!r}"
        return ""
    got = [(c["name"], c["verdict"], c["rank"], c["expected"])
           for c in observed["checks"]]
    want = [(c["name"], c["verdict"], c["rank"], c["expected"])
            for c in expected["checks"]]
    if got != want:
        diff = [f"{w} -> {g}" for g, w in zip(got, want) if g != w]
        if len(got) != len(want):
            diff.append(f"{len(want)} checks expected, {len(got)} seen")
        return "; ".join(diff[:3])
    return ""
