"""Workload ``exact``: exact verification.

WDVV, quasihomogeneity and grading on every catalog potential and on the
truncated plane potential, one seeded single-coefficient perturbation per
potential that must fail, the genus-0 and elliptic numbers of the plane
with their second routes, PVI residuals at seeded rationals, the A_n
Landau-Ginzburg route, the plane's modular identities and the README
commands through the CLI.  It uses the ``exact`` layer unlike ``orbits``
does: products and derivatives of polynomials with quadratic-field
coefficients and division of Fraction series.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Dict

from common import Task, Workload, expect, rate, run_cli
from tracing import Tracer

CP2_ORDERS = (6, 8, 10)
GENUS0_ORDER = 120
PDE_ORDER = 30
ELLIPTIC_ORDER = 60
PVI_SAMPLES = 30
PVI_DENOMINATOR = 1000
AN_RANKS = (3, 4)
N_GENUS0 = [1, 1, 12, 620, 87304, 26312976]
N_ELLIPTIC = [0, 0, 1, 225, 87192]
CLI_COMMANDS = [
    ["wdvv", "check", "A3"],
    ["wdvv", "check", "H4"],
    ["gw", "nk", "--max", "20"],
    ["gw", "elliptic", "--max", "40"],
    ["gw", "fit", "--max", "40"],
    ["pvi", "verify", "H3", "--samples", "50", "--tol", "1e-10"],
    ["sing", "an", "--n", "3"],
    ["catalog", "show", "H4"],
]


def _checks(tr: Tracer, P):
    from frobenii import frobenius
    with tr.span("frobenius.check_wdvv1"):
        wdvv = frobenius.check_wdvv1(P)
    with tr.span("frobenius.check_quasihomogeneity"):
        quasi = frobenius.check_quasihomogeneity(P)[0]
    with tr.span("frobenius.check_grading_eta"):
        grading = frobenius.check_grading_eta(P)
    return wdvv, quasi, grading


def _check_task(wl: Workload, P) -> Task:
    def fn(tr: Tracer):
        wdvv, quasi, grading = _checks(tr, P)
        tr.count("frobenius.F_terms", len(P.F.terms))
        expect(wdvv.passed and all(r.is_zero() for r in wdvv.residuals.values()),
               "WDVV residual is not identically zero")
        expect(quasi.passed, "quasihomogeneity fails")
        expect(grading, "grading identity fails")
        wl.produced.setdefault("potentials", []).append(P)
        return None
    return Task(f"check {P.name}", fn)


def _perturbed(rng: random.Random, P):
    """P with one coefficient of F moved by a seeded delta.  For n >= 3 the
    coefficient is one of F's terms beyond the cubic part, and WDVV must
    fail.  Its magnitude grows, because c -> -c can be a symmetry
    (t2 -> -t2 maps H3's t2^3 t3^2 term to its negative and fixes the rest).
    For n = 2 WDVV has no equations, so the coefficient is that of a power
    t2^j absent from F, and quasihomogeneity must fail."""
    from frobenii import frobenius
    from frobenii.exact import ExpPolynomial
    delta = Fraction(1, rng.randint(2, 97))
    if P.n >= 3:
        keys = sorted(k for k in P.F.terms if sum(k[0]) >= 4 or any(k[1]))
        pows, exps = rng.choice(keys)
        if not P.F.terms[(pows, exps)].lex_nonneg():
            delta = -delta
    else:
        present = {k[0] for k in P.F.terms if not any(k[1])}
        pows = rng.choice([(0, j) for j in range(3, 9) if (0, j) not in present])
        exps = (0, 0)
    F = P.F + ExpPolynomial.monomial(P.n, delta, pows, exps)
    Q = frobenius.FrobeniusPotential(P.n, F, P.d, P.q, P.r, P.unity_index, P.name,
                                     P.exp_truncation)
    return Q, f"{P.name} {pows}/{exps} += {delta}"


def _negative_task(P, label: str) -> Task:
    def fn(tr: Tracer):
        wdvv, quasi, _ = _checks(tr, P)
        caught = not wdvv.passed if P.n >= 3 else not quasi.passed
        tr.count("frobenius.negative_controls")
        tr.count("frobenius.negative_controls_caught", 1 if caught else 0)
        expect(caught, "perturbed potential passes its check")
        return None
    return Task(f"perturbed {label}", fn)


def _genus0_task(wl: Workload) -> Task:
    from frobenii import gwcp2

    def fn(tr: Tracer):
        with tr.span("gwcp2.genus0"):
            rows = gwcp2.genus0_invariants(GENUS0_ORDER)
        with tr.span("gwcp2.pde"):
            pde = gwcp2.genus0_coefficients_pde(PDE_ORDER)
        expect([r.N for r in rows[:len(N_GENUS0)]] == N_GENUS0, "N_1..6 differ")
        expect(all(r.A == c for r, c in zip(rows, pde)), "ODE and PDE routes disagree")
        wl.produced["phi"] = [r.A for r in rows]
        return None
    return Task(f"genus0 N_k to {GENUS0_ORDER}, PDE to {PDE_ORDER}", fn)


def _elliptic_task() -> Task:
    from frobenii import gwcp2

    def fn(tr: Tracer):
        with tr.span("gwcp2.elliptic"):
            rows = gwcp2.elliptic_invariants(ELLIPTIC_ORDER)
        expect([r.N1 for r in rows[:len(N_ELLIPTIC)]] == N_ELLIPTIC, "N^(1)_1..5 differ")
        return None
    return Task(f"elliptic N1_k to {ELLIPTIC_ORDER}", fn)


def _pvi_residual_task(family: str, s: Fraction) -> Task:
    from frobenii import painleve
    fam = painleve.FAMILIES[family]

    def fn(tr: Tracer):
        with tr.span("painleve.residual"):
            res = abs(painleve.pvi_residual_on_curve(fam, s))
        tr.count("painleve.residual_evals")
        expect(res < 1e-8, f"PVI residual {res:.3e}")
        return None
    return Task(f"pvi residual {family} s={s}", fn)


def _pvi_samples(rng: random.Random, family: str):
    """Seeded rationals p/1000 in lowest terms (so every sample costs about
    the same), off the parametrization poles and off the values where PVI
    itself is singular (x in {0, 1}, y in {0, 1, x})."""
    from frobenii import painleve
    fam = painleve.FAMILIES[family]
    out = []
    while len(out) < PVI_SAMPLES:
        p = rng.randint(1, PVI_DENOMINATOR - 1)
        if p % 2 == 0 or p % 5 == 0:
            continue
        s = Fraction(p, PVI_DENOMINATOR)
        if not (fam.x.den_nonzero(s) and fam.y.den_nonzero(s)):
            continue
        x, y = fam.x(s), fam.y(s)
        if x not in (0, 1) and y not in (0, 1, x):
            out.append(s)
    return out


def _an_task(n: int, a3) -> Task:
    from frobenii import singularity

    def fn(tr: Tracer):
        with tr.span("singularity.an"):
            _, pot = singularity.a_n_structure(n)
        if n == 3:
            expect(pot.F == a3.F, "a_n_structure(3) differs from the A3 potential")
        wdvv, _, _ = _checks(tr, pot)
        expect(wdvv.passed, f"A{n} potential fails WDVV")
        return None
    return Task(f"a_n_structure({n})", fn)


def _modular_task() -> Task:
    from frobenii import stokes

    def fn(tr: Tracer):
        with tr.span("stokes.cp2_modular_check"):
            rep = stokes.cp2_modular_check()
        expect(rep.passed, "CP2 modular identities fail")
        return None
    return Task("cp2_modular_check", fn)


def _cli_task(argv, h4_terms: int) -> Task:
    def fn(tr: Tracer):
        res = run_cli(tr, argv)["results"]
        if argv[:2] == ["gw", "nk"]:
            expect([res["N"][str(k)] for k in range(1, 7)] == N_GENUS0, "gw nk numbers")
        elif argv[:2] == ["gw", "elliptic"]:
            expect([res["N1"][str(k)] for k in range(1, 6)] == N_ELLIPTIC,
                   "gw elliptic numbers")
        elif argv[0] in ("wdvv", "sing"):
            expect(res["wdvv1"] is True, "WDVV reported false")
        elif argv[0] == "catalog":
            expect(res["n"] == 4 and len(res["terms"]) == h4_terms, "catalog show H4")
        return None
    return Task("cli " + " ".join(argv), fn)


def build(seed: int) -> Workload:
    from frobenii import frobenius, gwcp2
    rng = random.Random(seed)
    pots = [frobenius.catalog(name) for name in frobenius.CATALOG_NAMES]
    pots += [gwcp2.truncated_potential(K) for K in CP2_ORDERS]
    wl = Workload("exact", [], {
        "potentials": [P.name for P in pots], "cp2_orders": list(CP2_ORDERS),
        "genus0_order": GENUS0_ORDER, "pde_order": PDE_ORDER,
        "elliptic_order": ELLIPTIC_ORDER, "pvi_samples_per_family": PVI_SAMPLES,
        "pvi_denominator": PVI_DENOMINATOR, "an_ranks": list(AN_RANKS),
        "cli_commands": [" ".join(a) for a in CLI_COMMANDS]},
        probe=lambda tr: _probe(wl, tr))
    a3 = frobenius.catalog("A3")
    h4_terms = len(frobenius.catalog("H4").F.terms)
    for P in pots:
        wl.tasks.append(_check_task(wl, P))
    for P in pots:
        wl.tasks.append(_negative_task(*_perturbed(rng, P)))
    wl.tasks.append(_genus0_task(wl))
    wl.tasks.append(_elliptic_task())
    for family in ("A3", "B3", "H3"):
        wl.tasks.extend(_pvi_residual_task(family, s) for s in _pvi_samples(rng, family))
    wl.tasks.extend(_an_task(n, a3) for n in AN_RANKS)
    wl.tasks.append(_modular_task())
    wl.tasks.extend(_cli_task(argv, h4_terms) for argv in CLI_COMMANDS)
    return wl


def _probe(wl: Workload, tr: Tracer) -> Dict[str, float]:
    """ExpPolynomial products and derivatives on the third derivatives of the
    checked potentials, the two series divisions on the genus-0 series the
    tasks produced, and one ``structure_constants`` per potential."""
    from frobenii import frobenius
    from frobenii.exact import GWSeries
    pots = wl.produced.get("potentials", [])
    diffs, diff_s = 0, 0.0
    third = []
    with tr.span("exact.exppoly_diff"):
        for P in pots:
            n = P.n
            t0 = time.perf_counter()
            d3 = [P.F.diff(a).diff(b).diff(c) for a in range(n)
                  for b in range(a, n) for c in range(b, n)]
            diff_s += time.perf_counter() - t0
            diffs += n + n * (n + 1) // 2 + len(d3)
            third.append(d3)
    muls, mul_s = 0, 0.0
    with tr.span("exact.exppoly_mul"):
        for d3 in third:
            t0 = time.perf_counter()
            for a in d3:
                for b in d3:
                    a * b
            mul_s += time.perf_counter() - t0
            muls += len(d3) ** 2
    K = ELLIPTIC_ORDER
    phi = GWSeries(K, wl.produced["phi"][:K])
    d1 = phi.diff()
    d2 = d1.diff()
    num = d2.diff() - 27
    den = (GWSeries(K, [Fraction(0)] * K, 27) + 2 * d1 - 3 * d2) * 8
    with tr.span("exact.series_div_triangular"):
        t0 = time.perf_counter()
        tri = num.divide_triangular(den)
        tri_s = time.perf_counter() - t0
    with tr.span("exact.series_div_neumann"):
        t0 = time.perf_counter()
        neu = num.divide_neumann(den)
        neu_s = time.perf_counter() - t0
    if tri != neu:
        raise ArithmeticError("the two series divisions disagree in the probe")
    with tr.span("frobenius.structure_constants"):
        t0 = time.perf_counter()
        for P in pots:
            frobenius.structure_constants(P)
        sc_s = time.perf_counter() - t0
    return {"exact.exppoly_diff_per_s": rate(diffs, diff_s),
            "exact.exppoly_mul_per_s": rate(muls, mul_s),
            "exact.series_div_triangular_s": tri_s,
            "exact.series_div_neumann_s": neu_s,
            "frobenius.structure_constants_ms": 1000 * sc_s / max(1, len(pots))}
