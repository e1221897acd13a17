"""Command-line driver: catalog listings, verification runs, rank and
completeness checks, and expression evaluation, with machine-readable
JSON reports.

Exit codes: 0 all checks PASS, 1 at least one FAIL, 2 usage/configuration
error, 3 internal evaluation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .exprlang import BindError, ParseError, bind, bind_scalar_function, \
    needs_positive_u
from .invcat import EQUATIONS, POSITIVE_FIELD_ALGEBRAS, TENSORS, basis
from .jetspace import FieldKind, to_log_jets
from .liealg import _FAMILIES, algebra_space, catalog, generic_rank, \
    make_sampler, make_spec, prolong2
from .verify import (
    DEFAULT_SAMPLES,
    DEFAULT_TOL,
    check_absolute,
    check_on_manifold,
    completeness,
)

_ALGEBRAS = {
    "AO": "rotations only; n >= 3, any m",
    "AE": "translations + rotations; n >= 3, any m",
    "AE1": "AE plus dilation (parameter lambda)",
    "AC": "AE1 plus special conformal generators",
    "AP": "spacetime translations + pseudo-rotations; n >= 3",
    "APtilde": "AP plus dilation (parameter lambda)",
    "AC1n": "APtilde plus special conformal generators",
    "AG_I": "time/space translations, rotations, boosts, field scaling "
            "(parameter mu)",
    "AG1_I": "AG_I plus dilation (parameter lambda)",
    "AG2_I": "AG1_I plus the projective generator (lambda = -n/2 when "
             "mu != 0)",
    "AG_II": "complex-pair analogue of AG_I (parameter mass)",
    "AG1_II": "complex-pair analogue of AG1_I",
    "AG2_II": "complex-pair analogue of AG2_I",
    "AP_inf": "sampled generators of the eikonal equation's infinite "
              "algebra (seed, instances, extended)",
    "AP_BornInfeld": "pseudo-rotations treating the field as an extra "
                     "base coordinate",
}

_BASES = [
    ("AE", "scalar/multi-field jet invariants (power traces and forms)"),
    ("AO", "rotation invariants including the position vector"),
    ("AE1", "dilation-normalized invariants, branches lambda = 0 and != 0"),
    ("AC", "conformal tensor invariants, branches lambda = 0 and != 0"),
    ("AP", "spacetime power-trace invariants (m fields)"),
    ("APtilde", "dilation-normalized spacetime invariants, two branches"),
    ("AC1n", "conformal spacetime tensor invariants, two branches"),
    ("AG_I", "boost-covariant invariants on log-substituted jets"),
    ("AG1_I", "dilation-normalized log-jet invariants"),
    ("AG2_I", "projective combinations (per-member verdicts; mu = 0 "
              "branch uses the implicit theta solve)"),
    ("AG_II", "conjugate-pair invariants on log-substituted jets"),
    ("AG1_II", "dilation-normalized conjugate-pair invariants"),
    ("AG2_II", "projective conjugate-pair combinations (mass = 0 branch "
               "available)"),
]


def _env_seed() -> int:
    raw = os.environ.get("INVFORGE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"INVFORGE_SEED must be an integer, got {raw!r}")


# every setting a config file may hold, by config key: its flag, type,
# choices and help text; a config file may name lam ``lambda``, and
# ``--config`` and ``--function`` are command-line only
_SETTINGS = {
    "algebra": ("--algebra", str, None, "algebra family name"),
    "n": ("--n", int, None, "spatial dimension"),
    "m": ("--m", int, None, "number of field slots"),
    "lam": ("--lambda", float, None, "dilation weight"),
    "mu": ("--mu", float, None, "boost weight"),
    "mass": ("--mass", float, None,
             "mass parameter for the complex families"),
    "field": ("--field", str, ("real", "complex"), "field kind"),
    "seed": ("--seed", int, None,
             "sampling seed (default: INVFORGE_SEED or 0)"),
    "samples": ("--samples", int, None, "sample count"),
    "tol": ("--tol", float, None, "relative tolerance"),
    "out": ("--out", str, None, "write the JSON report here"),
    "expr": ("--expr", str, None, "expression to verify or evaluate"),
    "equation": ("--equation", str, None,
                 "equation name (see 'list equations')"),
    "k": ("--k", int, None, "order parameter for eikonal-trace"),
    "hat_variant": ("--hat-variant", str, ("printed", "uniform"),
                    "reading of the hatted projective sums "
                    "(default: printed)"),
}
# filled in after the reads check, so no default counts as given; the
# seed's default is INVFORGE_SEED, else 0
_DEFAULTS = {"n": 3, "samples": DEFAULT_SAMPLES, "tol": DEFAULT_TOL,
             "hat_variant": "printed"}


@functools.cache
def _build_parser():
    # Built once per process: parsing leaves the parser unchanged (each call
    # gets a fresh namespace, and ``append`` starts a fresh list).
    ap = argparse.ArgumentParser(
        prog="invforge",
        description="catalog and numerically verify second-order jet "
                    "invariants and invariant equations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        for key, (flag, kind, choices, helptext) in _SETTINGS.items():
            p.add_argument(flag, dest=key, type=kind, choices=choices,
                           help=helptext)
        p.add_argument("--function", action="append", metavar="NAME=EXPR",
                       help="override a sampled coefficient function of the "
                            "eikonal algebra (b01, a0, eta, d; expression "
                            "in u); repeatable")

    p_list = sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("kind",
                        choices=("algebras", "bases", "equations", "tensors"))

    for name, helptext in (
            ("verify", "verify a basis, an equation, or an expression"),
            ("rank", "generic rank of a prolonged algebra"),
            ("completeness", "basis-completeness accounting"),
            ("eval", "evaluate an expression at a sampled generic point")):
        p = sub.add_parser(name, help=helptext)
        common(p)
        if name == "eval":
            p.add_argument("--log-jets", action="store_true",
                           help="evaluate on log-substituted jets")
    return ap


def _read_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    return values


def _merge_config(args):
    """The settings given, from the config file and then the flags, which
    override it; no defaults are filled in."""
    cfg = {}
    if getattr(args, "config", None):
        raw = _read_config_file(args.config)
        for key, val in raw.items():
            key = "lam" if key == "lambda" else key
            if key not in _SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            _, kind, choices, _ = _SETTINGS[key]
            try:
                cfg[key] = kind(val)
            except ValueError:
                raise ValueError(f"bad value for {key!r}: {val!r}")
            if choices and val not in choices:
                raise ValueError(f"bad value for {key!r}: {val!r}")
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    funcs = getattr(args, "function", None)
    if funcs:
        cfg["functions"] = tuple(funcs)
    if cfg.get("samples", 1) < 1:
        raise ValueError(f"samples must be at least 1, got {cfg['samples']}")
    if not 0.0 <= cfg.get("tol", 0.0) < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got "
                         f"{cfg['tol']}")
    return cfg


def _reads(command, cfg):
    """The settings a run of ``command`` with the given ``cfg`` reads;
    an unknown algebra or equation name is reported here."""
    if command == "eval":
        return {"expr", "n", "m", "lam", "field", "seed"}
    if command == "verify" and "equation" in cfg:
        info = EQUATIONS.get(cfg["equation"])
        if info is None:
            raise ValueError(f"unknown equation {cfg['equation']!r}")
        reads = {"equation", "n", "seed", "samples", "tol", "out",
                 *info.reads}
        if info.name == "eikonal-trace":
            reads.add("k")
        return reads
    name = cfg.get("algebra")
    if not name:
        raise ValueError("an --algebra name is required")
    if name not in _FAMILIES:
        raise ValueError(f"unknown algebra family {name!r}")
    reads = {"algebra", "n", "seed", "samples", "out", *_FAMILIES[name]}
    if command != "rank":
        # rank's pivot threshold is the constant RANK_PIVOT_RTOL
        reads.add("tol")
    if command == "verify" and "expr" in cfg:
        reads |= {"expr", "field"}
        if not name.startswith("AG"):
            # the theta and w selectors read lam; a Galilei algebra's time
            # binding refuses them
            reads.add("lam")
    elif command != "rank" and name == "AG2_I" and cfg.get("mu", 1.0) != 0:
        # the one basis whose hatted sums have two readings
        reads.add("hat_variant")
    return reads


def _check_reads(command, cfg):
    """Reject the given settings that the run does not read, naming each
    one's flag."""
    reads = _reads(command, cfg)
    run = " ".join([command] + [f"{_SETTINGS[key][0]} {cfg[key]}"
                                for key in ("equation", "algebra")
                                if key in reads])
    unread = [f"{_SETTINGS[key][0] if key in _SETTINGS else '--function'} "
              f"is not read by {run}" for key in cfg if key not in reads]
    if unread:
        raise ValueError("; ".join(unread))


def _functions(cfg):
    """(name, text) pairs of the ``--function NAME=EXPR`` values."""
    pairs = []
    for entry in cfg.get("functions", ()):
        fname, _, text = entry.partition("=")
        if not text:
            raise ValueError(f"expected NAME=EXPR, got {entry!r}")
        pairs.append((fname.strip(), text.strip()))
    return pairs


def _positive_u(name, cfg):
    """Whether a run under the named algebra draws positive u: its basis is
    drawn there, or a ``--function`` text is real only there."""
    return name in POSITIVE_FIELD_ALGEBRAS or any(
        needs_positive_u(text) for _, text in _functions(cfg))


def _sampler(space, name, cfg):
    """The run's points in ``space`` (a jet space or a spec), with u > 0
    where a run under the named algebra needs it (:func:`_positive_u`)."""
    return make_sampler(space.n_base, space.n_fields, space.field_kind,
                        cfg["seed"], positive_fields=_positive_u(name, cfg))


def _bind_functions(cfg):
    """(name, bound function) pairs of the ``--function`` values."""
    return tuple((fname, bind_scalar_function(text))
                 for fname, text in _functions(cfg))


def _spec_from_config(cfg):
    name = cfg["algebra"]
    kw = {key: cfg[key] for key in ("m", "lam", "mu", "mass") if key in cfg}
    if "field" in cfg:
        kw["field_kind"] = FieldKind(cfg["field"])
    if "seed" in cfg and name == "AP_inf":
        kw["seed"] = cfg["seed"]
    if "functions" in cfg:
        kw["functions"] = _bind_functions(cfg)
        if any(fname == "d" for fname, _ in kw["functions"]):
            kw["extended"] = True
    if name.startswith("AG"):
        kw["rep"] = "log"
    return make_spec(name, cfg["n"], **kw)


def _echo_config(cfg):
    out = dict(sorted(cfg.items()))
    out.pop("out", None)
    return out


def _report_doc(cfg, checks):
    checks = sorted(checks, key=lambda c: c["name"])
    verdict = "PASS" if all(c["verdict"] == "PASS" for c in checks) \
        else "FAIL"
    return {
        "schema": 1,
        "meta": {
            "tool": "invforge",
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        },
        "config": _echo_config(cfg),
        "checks": checks,
        "verdict": verdict,
    }


def _emit(doc, cfg, stream):
    for check in doc["checks"]:
        extras = ""
        if "rank" in check:
            extras += f" rank={check['rank']}"
        if "expected" in check:
            extras += f" expected={check['expected']}"
        resid = check.get("residual_max")
        if resid is not None:
            extras += f" residual={resid:.3e}"
        print(f"{check['verdict']:4s} {check['name']}{extras}", file=stream)
    print(f"overall: {doc['verdict']}", file=stream)
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cmd_list(args, stream):
    kind = args.kind
    if kind == "algebras":
        for name, desc in _ALGEBRAS.items():
            print(f"{name:14s} {desc}", file=stream)
    elif kind == "bases":
        for name, desc in _BASES:
            print(f"{name:10s} {desc}", file=stream)
    elif kind == "equations":
        for name, info in EQUATIONS.items():
            print(f"{name:24s} {info.note}", file=stream)
    else:
        for name in TENSORS:
            print(name, file=stream)
    return 0


def _check(name, anchor, verdict, residual=None, **counts):
    """One report check; ``counts`` are a rank check's rank and expected."""
    return {"name": name, "paper_anchor": anchor, "residual_max": residual,
            "verdict": verdict, **counts}


def _record_checks(kind, anchor, records):
    """One report check per (label, invariance record) pair."""
    return [_check(f"{kind}:{label}", anchor, rec.verdict, rec.max_residual)
            for label, rec in records]


def _verify_basis(cfg):
    spec = _spec_from_config(cfg)
    fam = basis(spec, hat_variant=cfg["hat_variant"])
    ops = [prolong2(f) for f in catalog(spec)]
    report = check_absolute(ops, fam, n_samples=cfg["samples"],
                            tol=cfg["tol"], seed=cfg["seed"])
    return _record_checks("invariant", f"basis:{spec.name}",
                          sorted(report.by_invariant().items()))


def _verify_equation(cfg):
    info = EQUATIONS[cfg["equation"]]
    n = cfg["n"]
    params = {k: cfg[k] for k in ("mu", "mass", "k", "seed") if k in cfg}
    residual = info.build(n, **params)
    if "functions" in cfg:
        params["functions"] = _bind_functions(cfg)
    spec = info.default_algebra(n, params)
    ops = [prolong2(f) for f in catalog(spec)]
    report = check_on_manifold(ops, residual, solve_for=info.solve_for,
                               n_samples=min(cfg["samples"], 20),
                               tol=cfg["tol"], seed=cfg["seed"],
                               sampler=_sampler(residual.space,
                                                info.algebra, cfg))
    return _record_checks("operator", f"equation:{info.name}",
                          ((rec.operator, rec) for rec in report.records))


def _verify_expression(cfg):
    spec = _spec_from_config(cfg)
    _, (metric, _, time_mode) = algebra_space(spec)
    fn = bind(cfg["expr"], spec.n_base, spec.n_fields, metric=metric,
              field_kind=spec.field_kind, time_mode=time_mode, lam=spec.lam,
              mu=spec.boost)
    ops = [prolong2(f) for f in catalog(spec)]
    # drawn where the algebra's basis is, so a pasted member's fractional
    # powers of u need no redraws
    report = check_absolute(ops, [fn], n_samples=cfg["samples"],
                            tol=cfg["tol"], seed=cfg["seed"],
                            sampler=_sampler(fn.space, spec.name, cfg))
    return _record_checks("expression", f"expression-under:{spec.name}",
                          ((rec.operator, rec) for rec in report.records))


def _cmd_verify(cfg):
    if "equation" in cfg:
        return _verify_equation(cfg)
    if "expr" in cfg:
        return _verify_expression(cfg)
    return _verify_basis(cfg)


def _cmd_rank(cfg):
    spec = _spec_from_config(cfg)
    ops = [prolong2(f) for f in catalog(spec)]
    # the points the algebra's basis, if it has one, is drawn at
    rank = generic_rank(ops, _sampler(spec, spec.name, cfg),
                        trials=max(3, cfg["samples"] // 10))
    return [_check(f"rank:{spec.name}", f"generic-rank:{spec.name}",
                   "PASS" if rank == len(ops) else "FAIL", rank=rank,
                   expected=len(ops))]


def _cmd_completeness(cfg):
    spec = _spec_from_config(cfg)
    fam = basis(spec, hat_variant=cfg["hat_variant"])
    rep = completeness(spec, fam, n_samples=max(4, cfg["samples"] // 5),
                       tol=cfg["tol"], seed=cfg["seed"])
    checks = [_check(f"completeness:{spec.name}",
                     f"completeness:{spec.name}", rep.verdict,
                     rank=rep.independence_rank, expected=rep.expected)]
    summary = (f"{rep.n_jet_vars} - {rep.algebra_rank} = {rep.expected}, "
               f"family {rep.family_size}, independence "
               f"{rep.independence_rank}, invariance {rep.invariance_verdict}")
    return checks, summary


def _cmd_eval(cfg, args, stream):
    if not cfg.get("expr"):
        raise ValueError("--expr is required for eval")
    n_base = cfg["n"]
    m = cfg.get("m", 1)
    fn = bind(cfg["expr"], n_base, m,
              field_kind=FieldKind(cfg.get("field", "real")),
              lam=cfg.get("lam", 1.0))
    point = fn.space.sampler(cfg["seed"])(0)
    if getattr(args, "log_jets", False):
        point = to_log_jets(point)
    val = fn.eval(point)
    print(f"{cfg['expr']} = {val}", file=stream)
    return 0


def main(argv=None, stream=None) -> int:
    stream = stream or sys.stdout
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "list":
        return _cmd_list(args, stream)
    try:
        cfg = _merge_config(args)
        _check_reads(args.command, cfg)
        cfg = {"seed": _env_seed(), **_DEFAULTS, **cfg}
        if args.command == "eval":
            return _cmd_eval(cfg, args, stream)
        if args.command == "verify":
            checks = _cmd_verify(cfg)
        elif args.command == "rank":
            checks = _cmd_rank(cfg)
        else:
            checks, summary = _cmd_completeness(cfg)
    except (ValueError, ParseError, BindError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ZeroDivisionError) as exc:
        # EvaluationError and raw numeric failures alike
        print(f"evaluation failure: {exc}", file=sys.stderr)
        return 3
    doc = _report_doc(cfg, checks)
    if args.command == "rank":
        print(f"rank = {doc['checks'][0]['rank']}", file=stream)
    if args.command == "completeness":
        print(summary, file=stream)
    _emit(doc, cfg, stream)
    return 0 if doc["verdict"] == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())
