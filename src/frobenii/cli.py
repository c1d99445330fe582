"""Command-line surface with machine-readable JSON reports.

Every subcommand prints one JSON object
{command, inputs, status, results, residuals, metrics} to stdout and exits
with 0 (pass/success), 1 (a check failed) or 2 (usage, input or numerical
error: a step-size underflow or an exhausted step budget, colliding
eigenvalues, a failed frame check).  `command` is the subcommand and its
action, `inputs` are the parsed arguments, defaults and the resolved orbit
cap included, and `metrics` is what the command measured, {} where it
measures nothing.  An input or numerical error prints the same object with
status ERROR, empty results, residuals and metrics, and an "error" key.
`--csv PATH` additionally writes tabular data where available.

The parser is built from the one table `COMMANDS`: a new command is one
row (action, handler, arguments) plus its own `cmd_<command>_<action>`.
The handler calls library functions, which return values, not reports,
times them with `_timed`, names the results, metric keys and CSV rows
itself and returns an `Outcome`; `main` alone writes the report and table.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

_EXIT_CODES = {"PASS": 0, "FAIL": 1, "ERROR": 2}
_NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


@dataclass
class Outcome:
    """What a command found: the status, results, residuals and metrics of
    its report, and the rows `--csv` writes (dicts with the keys of the
    first row as header), if it has a table."""
    status: str
    results: dict
    residuals: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    table: list | None = None


def _report(args, out: Outcome, error: str | None = None) -> int:
    report = {
        "command": f"{args.command} {args.action}",
        "inputs": {key: val for key, val in vars(args).items()
                   if key not in ("command", "action", "func")},
        "status": out.status,
        "results": out.results,
        "residuals": out.residuals,
        "metrics": out.metrics,
    }
    if error is not None:
        report["error"] = error
    # strict JSON: a non-finite float is written as "nan", "inf" or "-inf"
    report = json.loads(json.dumps(report, default=str), parse_constant=_NON_FINITE.get)
    print(json.dumps(report, indent=2))
    return _EXIT_CODES[out.status]


def _timed(metrics: dict, key: str, fn, *args):
    """fn(*args), its seconds stored as metrics[key]."""
    t0 = time.perf_counter()
    out = fn(*args)
    metrics[key] = time.perf_counter() - t0
    return out


def _read_json(path: str, from_dict):
    """from_dict of the file's parsed JSON: a missing field (KeyError) or a
    malformed one (TypeError, AttributeError) is a ValueError that names the
    file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_dict(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed field: {exc}") from None


def _load(token: str, from_dict, from_catalog):
    """The object in the JSON file `token` if it is a path, otherwise the
    catalog entry `token`."""
    return _read_json(token, from_dict) if os.path.exists(token) else from_catalog(token)


# -- catalog ----------------------------------------------------------------

def cmd_catalog_list(args) -> Outcome:
    from . import frobenius
    return Outcome("PASS", {"potentials": frobenius.CATALOG_NAMES})


def cmd_catalog_show(args) -> Outcome:
    from . import frobenius
    return Outcome("PASS", frobenius.potential_to_dict(frobenius.catalog(args.name)))


# -- wdvv -------------------------------------------------------------------

def cmd_wdvv_check(args) -> Outcome:
    from . import frobenius
    P = _load(args.target, frobenius.potential_from_dict, frobenius.catalog)
    metrics = {}
    _timed(metrics, "tensors_s", lambda: P.tensors)
    rep = _timed(metrics, "wdvv1_s", frobenius.check_wdvv1, P)
    qrep, A, B, C = _timed(metrics, "quasihomogeneity_s",
                           frobenius.check_quasihomogeneity, P)
    grading = _timed(metrics, "grading_s", frobenius.check_grading_eta, P)
    metrics.update(wdvv1_entries=rep.entries, wdvv1_products=rep.products,
                   wdvv1_skipped=rep.skipped)
    status = "PASS" if (rep.passed and qrep.passed and grading) else "FAIL"
    nonzero = {"/".join(str(i + 1) for i in key): str(val)
               for key, val in rep.residuals.items() if not val.is_zero()}
    return Outcome(status, {
        "wdvv1": rep.passed,
        "quasihomogeneity": qrep.passed,
        "grading_eta": grading,
        "A": [[str(x) for x in row] for row in A],
        "B": [str(x) for x in B],
        "C": str(C),
    }, {"wdvv1_nonzero": nonzero or "0"}, metrics)


# -- gw ---------------------------------------------------------------------

def cmd_gw_nk(args) -> Outcome:
    from . import gwcp2
    metrics = {}
    N = _timed(metrics, "ode_s", gwcp2.genus0_numbers, args.max)
    M = _timed(metrics, "kontsevich_s", gwcp2.kontsevich_numbers, args.max)
    metrics["max_bits"] = max(n.bit_length() for n in N)
    rows = gwcp2.genus0_rows(N)
    table = [{"k": r.k, "N_k": r.N, "A_k": f"{float(r.A):.12e}",
              "ratio": "" if prev is None else f"{float(r.A / prev.A):.9f}"}
             for prev, r in zip([None] + rows, rows)]
    return Outcome("PASS" if N == M else "FAIL",
                   {"N": {r.k: r.N for r in rows}, "ode_pde_agree": N == M,
                    "checked_range": [1, args.max]}, metrics=metrics, table=table)


def cmd_gw_elliptic(args) -> Outcome:
    from . import gwcp2
    metrics = {}
    A = _timed(metrics, "ode_s", gwcp2.genus0_coefficients, args.max)
    num, den = gwcp2.psi_parts(A)
    psi = _timed(metrics, "triangular_s", num.divide_triangular, den)
    rows = gwcp2.elliptic_rows(psi, _timed(metrics, "neumann_s", num.divide_neumann, den))
    metrics["max_bits"] = psi.bit_height()
    return Outcome("PASS", {"N1": {r.k: r.N1 for r in rows}, "psi_constant_term": "-1/8"},
                   metrics=metrics, table=[{"k": r.k, "N1_k": r.N1} for r in rows])


def cmd_gw_fit(args) -> Outcome:
    from . import gwcp2
    metrics = {}
    N = _timed(metrics, "ode_s", gwcp2.genus0_numbers, args.max)
    a_hat, b_hat, r_hat, ratio, bound = _timed(metrics, "fit_s", gwcp2.fit_values, N)
    metrics["max_bits"] = max(n.bit_length() for n in N)
    return Outcome("PASS" if bound else "FAIL",
                   {"a_hat": a_hat, "b_hat": b_hat, "R_hat": r_hat,
                    "tail_ratio": ratio, "ratio_test_at_log65": bound}, metrics=metrics)


# -- stokes -------------------------------------------------------------------

def cmd_stokes_orbit(args) -> Outcome:
    from . import stokes
    if args.max_size is None:
        args.max_size = stokes.DEFAULT_ORBIT_CAP    # stated by every report
    S = _load(args.target, stokes.stokes_from_dict, stokes.stokes_catalog)
    metrics = {}
    res = _timed(metrics, "bfs_s", stokes.orbit, S, args.max_size)
    metrics.update(steps=res.steps, images=res.images, levels=res.levels,
                   max_bits=res.max_bits)
    results = {"cap": args.max_size}
    if res.finite:
        results["size"] = res.size
    else:
        results.update(exceeded=True, visited=res.size, frontier=res.frontier)
    results["representatives"] = [stokes.stokes_to_dict(R) for R in res.representatives[:8]]
    return Outcome("PASS", results, metrics=metrics)


def cmd_stokes_braid(args) -> Outcome:
    from . import stokes
    S = _load(args.target, stokes.stokes_from_dict, stokes.stokes_catalog)
    img = stokes.braid_apply(S, args.word)
    can = stokes.canonical_form(img)
    results = {"image": stokes.stokes_to_dict(img),
               "canonical": stokes.stokes_to_dict(can)}
    if S.n == 3:
        results["canonical_triple"] = [str(v) for v in can.triple()]
    return Outcome("PASS", results)


def cmd_stokes_cp2_monodromy(args) -> Outcome:
    from . import stokes
    rep = stokes.cp2_modular_check()
    return Outcome("PASS" if rep.passed else "FAIL", {
        "T0^3 = -1": rep.t0_cubed_is_minus_one,
        "conjugation identities": rep.conjugation_identities,
        "quadratic form preserved": rep.form_preserved,
        "B^3 = 1": rep.b_cubed_is_one})


# -- pvi ----------------------------------------------------------------------

def cmd_pvi_verify(args) -> Outcome:
    from . import painleve
    from .exact.linalg import check_tol
    fam = painleve.FAMILIES[args.family]
    check_tol(args.tol)
    metrics = {}
    grid = _timed(metrics, "grid_s", painleve.sample_parameters, fam, args.samples)
    rows = _timed(metrics, "residual_s", painleve.residual_table, fam, grid)
    worst = max(row[3] for row in rows)
    metrics.update(samples=len(rows),
                   num_bits=max(row[4].bit_length() for row in rows),
                   den_bits=max(row[5].bit_length() for row in rows))
    return Outcome("PASS" if worst < args.tol else "FAIL",
                   {"family": fam.name, "mu": str(fam.mu1),
                    "samples": args.samples, "max_residual": worst},
                   {"max_residual": worst}, metrics,
                   [{"s": str(s), "x": float(x), "y": float(y), "residual": r}
                    for s, x, y, r, _, _ in rows])


def cmd_pvi_integrate(args) -> Outcome:
    from . import painleve
    fam = painleve.FAMILIES[args.family]
    s0, s1 = Fraction(args.s0), Fraction(args.s1)
    x0, xs0, _ = fam.x.jet(s0)
    y0, ys0, _ = fam.y.jet(s0)
    x1, y1 = fam.x(s1), fam.y(s1)
    pt = painleve.PviPoint(fam.mu1, complex(x0), complex(y0), complex(ys0 / xs0))
    from . import semisimple  # noqa: F401  (loaded before the clock starts, as in cmd_iso_integrate)
    metrics = {}
    end, diag = _timed(metrics, "integrate_s", painleve.pvi_integrate,
                       pt, complex(x1), args.tol)
    metrics.update(steps=diag.stats.steps, rejected=diag.stats.rejected,
                   min_order=diag.min_order, max_order=diag.max_order)
    err = abs(end.y - complex(y1))
    return Outcome("PASS" if err < 1e-6 else "FAIL",
                   {"x1": [end.x.real, end.x.imag],
                    "y_numeric": [end.y.real, end.y.imag],
                    "y_exact": [complex(y1).real, complex(y1).imag]},
                   {"endpoint_error": err}, metrics)


# -- iso ----------------------------------------------------------------------

def cmd_iso_integrate(args) -> Outcome:
    from . import semisimple
    state = _read_json(args.state, semisimple.state_from_dict)
    path = _read_json(args.path, semisimple.path_from_list)
    metrics = {}
    final, diag = _timed(metrics, "integrate_s", semisimple.integrate_isomonodromic,
                         state, path, args.tol)
    metrics.update(segments=diag.segments, steps=diag.stats.steps,
                   rejected=diag.stats.rejected, min_order=diag.min_order,
                   max_order=diag.max_order)
    status = "PASS" if (diag.spectral_drift < 1e-8 and diag.skewness_drift < 1e-8) \
        else "FAIL"
    return Outcome(status,
                   {"final": semisimple.state_to_dict(final),
                    "dlog_tau": [diag.dlog_tau.real, diag.dlog_tau.imag]},
                   {"spectral_drift": diag.spectral_drift,
                    "skewness_drift": diag.skewness_drift},
                   metrics)


# -- sing ---------------------------------------------------------------------

def cmd_sing_an(args) -> Outcome:
    from . import frobenius, singularity
    subs = singularity.flat_coordinates(args.n)
    metrics = {}
    _, pot = _timed(metrics, "structure_s", singularity.a_n_structure, args.n)
    rep = _timed(metrics, "wdvv1_s", frobenius.check_wdvv1, pot)
    metrics.update(F_terms=len(pot.F.terms), wdvv1_entries=rep.entries,
                   wdvv1_products=rep.products)
    return Outcome("PASS" if rep.passed else "FAIL", {
        "flat_substitution": [str(s) for s in subs],
        "potential": frobenius.potential_to_dict(pot),
        "wdvv1": rep.passed,
    }, metrics=metrics)


# -- the command table --------------------------------------------------------
# Each command maps to its help and its rows (action, handler, arguments); an
# argument is the name or flag and the keywords of one add_argument call.

_TOL = ("--tol", {"type": float, "default": 1e-10})
_CSV = ("--csv", {})
_MAX = ("--max", {"type": int, "required": True})
# the literal, not tuple(painleve.FAMILIES): reading that here would import
# painleve for every command (the test suite pins the two equal)
_FAMILY = ("family", {"type": str.upper, "choices": ("A3", "B3", "H3")})
_TARGET = ("target", {})

COMMANDS = {
    "catalog": ("embedded WDVV solutions", [
        ("list", cmd_catalog_list, []),
        ("show", cmd_catalog_show,
         [("name", {"help": "catalog name; CP2(K) is CP2 truncated at order K"})]),
    ]),
    "wdvv": ("WDVV checks", [
        ("check", cmd_wdvv_check,
         [("target", {"help": "catalog name or potential JSON file"})]),
    ]),
    "gw": ("Gromov-Witten tables", [
        ("nk", cmd_gw_nk, [_MAX, _CSV]),
        ("elliptic", cmd_gw_elliptic, [_MAX, _CSV]),
        ("fit", cmd_gw_fit, [_MAX]),        # the fit has no table
    ]),
    "stokes": ("Stokes matrices and braid orbits", [
        ("orbit", cmd_stokes_orbit, [_TARGET, ("--max-size", {"type": int})]),
        ("braid", cmd_stokes_braid, [_TARGET, ("--word", {"required": True})]),
        ("cp2-monodromy", cmd_stokes_cp2_monodromy, []),
    ]),
    "pvi": ("Painleve VI", [
        ("verify", cmd_pvi_verify,
         [_FAMILY, ("--samples", {"type": int, "default": 50}), _TOL, _CSV]),
        ("integrate", cmd_pvi_integrate,
         [_FAMILY, ("--s0", {"required": True}), ("--s1", {"required": True}), _TOL]),
    ]),
    "iso": ("isomonodromic integration", [
        ("integrate", cmd_iso_integrate,
         [("--state", {"required": True}), ("--path", {"required": True}), _TOL]),
    ]),
    "sing": ("singularity constructions", [
        ("an", cmd_sing_an, [("--n", {"type": int, "required": True})]),
    ]),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of COMMANDS, built on first use and shared by every call."""
    ap = argparse.ArgumentParser(prog="frobenii",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_, rows) in COMMANDS.items():
        actions = sub.add_parser(command, help=help_).add_subparsers(dest="action",
                                                                      required=True)
        for action, handler, arguments in rows:
            q = actions.add_parser(action)
            for name, keywords in arguments:
                q.add_argument(name, **keywords)
            q.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        out = args.func(args)
        if out.table and getattr(args, "csv", None):
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                w = csv.DictWriter(fh, fieldnames=list(out.table[0]))
                w.writeheader()
                w.writerows(out.table)
    except (KeyError, ValueError, OSError, ArithmeticError) as exc:
        # str() of a KeyError is the repr of its argument: report the message
        error = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
        return _report(args, Outcome("ERROR", {}), error=error)
    return _report(args, out)


if __name__ == "__main__":
    sys.exit(main())
