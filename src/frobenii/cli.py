"""Command-line surface with machine-readable JSON reports.

Every subcommand prints one JSON object
{command, inputs, status, results, residuals} to stdout (`wdvv check` adds a
top-level `metrics` block) and exits with
0 (pass/success), 1 (a check failed) or 2 (usage, input or numerical
error: a step-size underflow, colliding eigenvalues, a failed frame check).
An input or numerical error prints the same object with status ERROR, the
parsed arguments as inputs, empty results and residuals, and an "error" key.
`--csv PATH` additionally writes tabular data where available.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

_EXIT_CODES = {"PASS": 0, "FAIL": 1, "ERROR": 2}


def _report(command: str, inputs: dict, status: str, results: dict,
            residuals: dict | None = None, error: str | None = None,
            metrics: dict | None = None) -> int:
    report = {
        "command": command,
        "inputs": inputs,
        "status": status,
        "results": results,
        "residuals": residuals or {},
    }
    if metrics is not None:
        report["metrics"] = metrics
    if error is not None:
        report["error"] = error
    print(json.dumps(report, indent=2, default=str))
    return _EXIT_CODES[status]


def _load_potential(token: str):
    from . import frobenius
    if os.path.exists(token):
        with open(token, "r", encoding="utf-8") as fh:
            return frobenius.potential_from_json(fh.read()), token
    return frobenius.catalog(token), token


def _load_stokes(token: str):
    from . import stokes
    if os.path.exists(token):
        with open(token, "r", encoding="utf-8") as fh:
            return stokes.stokes_from_json(fh.read())
    return stokes.stokes_catalog(token)


# -- catalog ----------------------------------------------------------------

def cmd_catalog(args) -> int:
    from . import frobenius
    if args.action == "list":
        return _report("catalog list", {}, "PASS",
                       {"potentials": frobenius.CATALOG_NAMES})
    P = frobenius.catalog(args.name, order=args.order)
    return _report("catalog show", {"name": args.name}, "PASS",
                   frobenius.potential_to_dict(P))


# -- wdvv -------------------------------------------------------------------

def cmd_wdvv_check(args) -> int:
    from . import frobenius
    P, token = _load_potential(args.target)
    metrics = {}

    def timed(key, fn):
        t0 = time.perf_counter()
        out = fn(P)
        metrics[key] = time.perf_counter() - t0
        return out
    timed("tensors_s", lambda P: P.tensors)
    rep = timed("wdvv1_s", frobenius.check_wdvv1)
    qrep, A, B, C = timed("quasihomogeneity_s", frobenius.check_quasihomogeneity)
    grading = timed("grading_s", frobenius.check_grading_eta)
    metrics.update(wdvv1_entries=rep.entries, wdvv1_products=rep.products,
                   wdvv1_skipped=rep.skipped)
    status = "PASS" if (rep.passed and qrep.passed and grading) else "FAIL"
    nonzero = {"/".join(str(i + 1) for i in key): str(val)
               for key, val in rep.residuals.items() if not val.is_zero()}
    return _report("wdvv check", {"target": token}, status, {
        "wdvv1": rep.passed,
        "quasihomogeneity": qrep.passed,
        "grading_eta": grading,
        "A": [[str(x) for x in row] for row in A],
        "B": [str(x) for x in B],
        "C": str(C),
    }, {"wdvv1_nonzero": nonzero or "0"}, metrics=metrics)


# -- gw ---------------------------------------------------------------------

def cmd_gw(args) -> int:
    from . import gwcp2
    table = None
    if args.action == "nk":
        results, table = gwcp2.nk_report(args.max)
        status = "PASS" if results["ode_pde_agree"] else "FAIL"
    elif args.action == "elliptic":
        results, table = gwcp2.elliptic_report(args.max)
        status = "PASS"
    elif args.action == "fit":
        results = gwcp2.fit_report(args.max)
        status = "PASS" if results["ratio_test_at_log65"] else "FAIL"
    else:
        raise SystemExit(2)
    if args.csv and table:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(gwcp2.rows_csv(table))
    return _report(f"gw {args.action}", {"max": args.max}, status, results)


# -- stokes -------------------------------------------------------------------

def cmd_stokes(args) -> int:
    from . import stokes
    if args.action == "orbit":
        S = _load_stokes(args.target)
        cap = stokes.DEFAULT_ORBIT_CAP if args.max_size is None else args.max_size
        res = stokes.orbit(S, max_size=cap)
        status = "PASS"
        return _report("stokes orbit", {"target": args.target, "max_size": cap},
                       status, stokes.orbit_report(res, cap))
    if args.action == "braid":
        S = _load_stokes(args.target)
        word = stokes.BraidWord.parse(args.word)
        img = stokes.braid_apply(S, word)
        can = stokes.canonical_form(img)
        results = {"image": stokes.stokes_to_dict(img),
                   "canonical": stokes.stokes_to_dict(can)}
        if S.n == 3:
            results["canonical_triple"] = [str(v) for v in can.triple()]
        return _report("stokes braid", {"target": args.target, "word": args.word},
                       "PASS", results)
    if args.action == "cp2-monodromy":
        rep = stokes.cp2_modular_check()
        return _report("stokes cp2-monodromy", {},
                       "PASS" if rep.passed else "FAIL", {
                           "T0^3 = -1": rep.t0_cubed_is_minus_one,
                           "conjugation identities": rep.conjugation_identities,
                           "quadratic form preserved": rep.form_preserved,
                           "B^3 = 1": rep.b_cubed_is_one})
    raise SystemExit(2)


# -- pvi ----------------------------------------------------------------------

def cmd_pvi(args) -> int:
    from . import painleve
    if args.action == "verify":
        fam = painleve.FAMILIES[args.family.upper()]
        rows = painleve.residual_table(fam, args.samples)
        worst = max((row[3] for row in rows), default=0.0)
        status = "PASS" if worst < args.tol else "FAIL"
        out = {"family": fam.name, "mu": str(fam.mu1),
               "samples": args.samples, "max_residual": worst}
        if args.csv:
            import csv as _csv
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                w = _csv.writer(fh)
                w.writerow(["s", "x", "y", "residual"])
                w.writerows([str(s), float(x), float(y), r] for s, x, y, r in rows)
        return _report("pvi verify", {"family": args.family, "tol": args.tol},
                       status, out, {"max_residual": worst})
    if args.action == "integrate":
        fam = painleve.FAMILIES[args.family.upper()]
        s0, s1 = Fraction(args.s0), Fraction(args.s1)
        x0, xs0, _ = fam.x.jet(s0)
        y0, ys0, _ = fam.y.jet(s0)
        x1, y1 = painleve.algebraic_solution(args.family, s1)
        pt = painleve.PviPoint(fam.mu1, complex(x0), complex(y0), complex(ys0 / xs0))
        end = painleve.pvi_integrate(pt, complex(x1), tol=args.tol)
        err = abs(end.y - complex(y1))
        status = "PASS" if err < 1e-6 else "FAIL"
        return _report("pvi integrate",
                       {"family": args.family, "s0": str(s0), "s1": str(s1),
                        "tol": args.tol},
                       status,
                       {"x1": [end.x.real, end.x.imag],
                        "y_numeric": [end.y.real, end.y.imag],
                        "y_exact": [complex(y1).real, complex(y1).imag]},
                       {"endpoint_error": err})
    raise SystemExit(2)


# -- iso ----------------------------------------------------------------------

def cmd_iso(args) -> int:
    from . import semisimple
    with open(args.state, "r", encoding="utf-8") as fh:
        state = semisimple.state_from_dict(json.load(fh))
    with open(args.path, "r", encoding="utf-8") as fh:
        path = semisimple.path_from_json(fh.read())
    t0 = time.perf_counter()
    final, diag = semisimple.integrate_isomonodromic(state, path, tol=args.tol)
    integrate_s = time.perf_counter() - t0
    status = "PASS" if (diag.spectral_drift < 1e-8 and diag.skewness_drift < 1e-8) \
        else "FAIL"
    return _report("iso integrate",
                   {"state": args.state, "path": args.path, "tol": args.tol},
                   status,
                   {"final": semisimple.state_to_dict(final),
                    "steps": diag.stats.steps,
                    "rejected": diag.stats.rejected,
                    "dlog_tau": [diag.dlog_tau.real, diag.dlog_tau.imag],
                    "metrics": {"segments": diag.segments,
                                "steps": diag.stats.steps,
                                "rejected": diag.stats.rejected,
                                "integrate_s": integrate_s}},
                   {"spectral_drift": diag.spectral_drift,
                    "skewness_drift": diag.skewness_drift})


# -- sing ---------------------------------------------------------------------

def cmd_sing(args) -> int:
    from . import frobenius, singularity
    subs = singularity.flat_coordinates(args.n)
    _, pot = singularity.a_n_structure(args.n)
    rep = frobenius.check_wdvv1(pot)
    status = "PASS" if rep.passed else "FAIL"
    return _report("sing an", {"n": args.n}, status, {
        "flat_substitution": [str(s) for s in subs],
        "potential": frobenius.potential_to_dict(pot),
        "wdvv1": rep.passed,
    })


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    ap = argparse.ArgumentParser(prog="frobenii",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="embedded WDVV solutions")
    ps = p.add_subparsers(dest="action", required=True)
    ps.add_parser("list").set_defaults(func=cmd_catalog)
    q = ps.add_parser("show")
    q.add_argument("name")
    q.add_argument("--order", type=int, default=5,
                   help="truncation order for CP2")
    q.set_defaults(func=cmd_catalog)

    p = sub.add_parser("wdvv", help="WDVV checks")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("check")
    q.add_argument("target", help="catalog name or potential JSON file")
    q.set_defaults(func=cmd_wdvv_check)

    p = sub.add_parser("gw", help="Gromov-Witten tables")
    ps = p.add_subparsers(dest="action", required=True)
    for act in ("nk", "elliptic", "fit"):
        q = ps.add_parser(act)
        q.add_argument("--max", type=int, required=True)
        q.add_argument("--csv")
        q.set_defaults(func=cmd_gw)

    p = sub.add_parser("stokes", help="Stokes matrices and braid orbits")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("orbit")
    q.add_argument("target")
    q.add_argument("--max-size", type=int, default=None)
    q.set_defaults(func=cmd_stokes)
    q = ps.add_parser("braid")
    q.add_argument("target")
    q.add_argument("--word", required=True)
    q.set_defaults(func=cmd_stokes)
    q = ps.add_parser("cp2-monodromy")
    q.set_defaults(func=cmd_stokes)

    p = sub.add_parser("pvi", help="Painleve VI")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("verify")
    q.add_argument("family", choices=["A3", "B3", "H3", "a3", "b3", "h3"])
    q.add_argument("--samples", type=int, default=50)
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--csv")
    q.set_defaults(func=cmd_pvi)
    q = ps.add_parser("integrate")
    q.add_argument("family", choices=["A3", "B3", "H3", "a3", "b3", "h3"])
    q.add_argument("--s0", required=True)
    q.add_argument("--s1", required=True)
    q.add_argument("--tol", type=float, default=1e-10)
    q.set_defaults(func=cmd_pvi)

    p = sub.add_parser("iso", help="isomonodromic integration")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("integrate")
    q.add_argument("--state", required=True)
    q.add_argument("--path", required=True)
    q.add_argument("--tol", type=float, default=1e-10)
    q.set_defaults(func=cmd_iso)

    p = sub.add_parser("sing", help="singularity constructions")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("an")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_sing)
    return ap


def main(argv=None) -> int:
    from .ode import StepUnderflowError
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError, ArithmeticError,
            StepUnderflowError) as exc:
        inputs = {key: val for key, val in vars(args).items()
                  if key not in ("command", "action", "func")}
        return _report(f"{args.command} {args.action}", inputs, "ERROR", {},
                       error=str(exc))


if __name__ == "__main__":
    sys.exit(main())
