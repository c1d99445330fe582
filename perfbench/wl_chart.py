"""Workload ``chart``: numeric per-point work on the semisimple chart.

Canonical frames and V matrices on seeded points of B3, H3, A4, D4, H4 and
the truncated plane potential, seeded closed isomonodromic loops for
n = 3, 4, 5, and ``pvi integrate`` segments through the CLI.  It stresses
the derived tensors of ``frobenius``, ``ExpPolynomial.eval_complex``,
``eigen_small`` and ``ode``; it never touches ``stokes``.

Points are drawn from the seed and never filtered or redrawn: a point where
the program raises an untyped error counts as a failure, listed by point.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Dict, List

import numpy as np

from common import Task, Workload, expect, rate, run_cli
from tracing import Tracer

POTENTIALS = ("B3", "H3", "A4", "D4", "H4", "CP2")
CP2_ORDER = 8
POINTS_PER_POTENTIAL = 16
LOOPS = {3: 4, 4: 4, 5: 4}
LOOP_VERTICES = 6
# u_k = k + jitter with |jitter| <= sqrt(2) * 0.15 keeps every gap above
# 0.57; loop offsets stay within 2 * 0.1, so the straight-line homotopy to
# the constant loop never collides and V must come back to its start.
LOOP_JITTER = 0.15
LOOP_RADIUS = 0.1
# s-windows (in 1/400 steps) of the printed parametrizations whose segments
# stay clear of the fixed singularities x, y in {0, 1}, y = x
PVI_WINDOWS = {"A3": (160, 280), "B3": (200, 380), "H3": (240, 320)}
PVI_SEGMENTS = 6
LOOP_TOL = 1e-10


def _grid_point(rng: np.random.Generator, name: str, n: int) -> List[complex]:
    if name == "CP2":
        # t1 = 0, Re t2 <= 0, |t3| <= 0.05: where the truncation is valid
        r = 0.05 * np.sqrt(rng.uniform())
        return [0j, complex(-rng.uniform(0, 1), rng.uniform(-1, 1)),
                complex(r * np.exp(2j * np.pi * rng.uniform()))]
    return [complex(a, b) for a, b in zip(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))]


def _frame_task(wl: Workload, name: str, P, t: List[complex], k: int) -> Task:
    from frobenii import semisimple

    def fn(tr: Tracer):
        tr.count("semisimple.points")
        wl.produced.setdefault("points", []).append((name, t))
        try:
            with tr.span("semisimple.frame"):
                fr = semisimple.canonical_coordinates(P, t)
        except semisimple.CoalescingEigenvaluesError:
            tr.count("semisimple.caustics")
            return "caustic"
        with tr.span("semisimple.v_matrices"):
            V, _ = semisimple.v_matrices(fr)
        tr.count("semisimple.frames")
        key = lambda z: (z.real, z.imag)
        spec = sorted(np.linalg.eigvals(V), key=key)
        mu = sorted((complex(float(m)) for m in fr.mu), key=key)
        err = max(abs(a - b) for a, b in zip(spec, mu))
        expect(err < 1e-8, f"spectrum of V differs from mu by {err:.3e}")
        return None
    pt = ", ".join(f"{z.real:+.3f}{z.imag:+.3f}i" for z in t)
    return Task(f"frame {name} #{k} t=({pt})", fn)


def _loop_task(rng: np.random.Generator, n: int, k: int) -> Task:
    from frobenii import semisimple
    u0 = np.arange(n) + LOOP_JITTER * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V0 = (W - W.T) / 2
    phase = rng.uniform(0, 2 * np.pi, n)
    path = [list(u0 + LOOP_RADIUS * (np.exp(1j * (phase + 2 * np.pi * j / LOOP_VERTICES))
                                     - np.exp(1j * phase)))
            for j in range(1, LOOP_VERTICES)] + [list(u0)]

    def fn(tr: Tracer):
        with tr.span("semisimple.iso"):
            fin, diag = semisimple.integrate_isomonodromic(
                semisimple.IsoState(list(u0), V0), path, tol=LOOP_TOL)
        tr.count("ode.rk_steps", diag.stats.steps)
        tr.count("ode.rk_rejected", diag.stats.rejected)
        expect(diag.spectral_drift < 1e-8, f"spectral drift {diag.spectral_drift:.3e}")
        expect(diag.skewness_drift < 1e-8, f"skewness drift {diag.skewness_drift:.3e}")
        closure = float(np.abs(fin.V - V0).max())
        expect(closure < 1e-7, f"V does not return around the loop: {closure:.3e}")
        expect(abs(diag.dlog_tau) < 1e-8, f"closed-loop dlog tau {abs(diag.dlog_tau):.3e}")
        return None
    return Task(f"iso loop n={n} #{k}", fn)


def _pvi_task(family: str, s0: Fraction, s1: Fraction) -> Task:
    def fn(tr: Tracer):
        report = run_cli(tr, ["pvi", "integrate", family, "--s0", str(s0), "--s1", str(s1)])
        err = report["residuals"]["endpoint_error"]
        expect(err < 1e-6, f"endpoint error {err:.3e}")
        return None
    return Task(f"cli pvi integrate {family} --s0 {s0} --s1 {s1}", fn)


def build(seed: int) -> Workload:
    from frobenii import frobenius, gwcp2
    rng = np.random.default_rng(seed)
    srng = random.Random(seed)
    pots = {name: (gwcp2.truncated_potential(CP2_ORDER) if name == "CP2"
                   else frobenius.catalog(name)) for name in POTENTIALS}
    wl = Workload("chart", [], {
        "potentials": list(POTENTIALS), "cp2_order": CP2_ORDER,
        "points_per_potential": POINTS_PER_POTENTIAL,
        "loops": {str(n): c for n, c in LOOPS.items()}, "loop_vertices": LOOP_VERTICES,
        "loop_tol": LOOP_TOL, "pvi_segments_per_family": PVI_SEGMENTS},
        probe=lambda tr: _probe(wl, pots, tr))
    for name, P in pots.items():
        for k in range(POINTS_PER_POTENTIAL):
            wl.tasks.append(_frame_task(wl, name, P, _grid_point(rng, name, P.n), k))
    for n, count in LOOPS.items():
        for k in range(count):
            wl.tasks.append(_loop_task(rng, n, k))
    for family, (lo, hi) in PVI_WINDOWS.items():
        for _ in range(PVI_SEGMENTS):
            a = srng.randint(lo, hi - 4)
            b = min(hi, a + srng.randint(4, 20))
            wl.tasks.append(_pvi_task(family, Fraction(a, 400), Fraction(b, 400)))
    return wl


def _probe(wl: Workload, pots, tr: Tracer) -> Dict[str, float]:
    """Third-derivative evaluation and ``eigen_small`` at the chart points
    the tasks attempted, and one ``structure_constants`` per potential."""
    from frobenii import frobenius, semisimple
    from frobenii.exact import eigen_small
    points = wl.produced.get("points", [])
    third = {}
    for name, P in pots.items():
        n = P.n
        third[name] = [P.F.diff(a).diff(b).diff(c) for a in range(n)
                       for b in range(a, n) for c in range(b, n)]
    evals, eval_s = 0, 0.0
    with tr.span("exact.exppoly_eval"):
        for name, t in points:
            t0 = time.perf_counter()
            for d in third[name]:
                d.eval_complex(t)
            eval_s += time.perf_counter() - t0
            evals += len(third[name])
    mats = [semisimple.euler_multiplication(pots[name], t) for name, t in points]
    with tr.span("exact.eigen_small"):
        t0 = time.perf_counter()
        for U in mats:
            try:
                eigen_small(U)
            except ArithmeticError:
                pass
        eig_s = time.perf_counter() - t0
    with tr.span("frobenius.structure_constants"):
        t0 = time.perf_counter()
        for P in pots.values():
            frobenius.structure_constants(P)
        sc_s = time.perf_counter() - t0
    return {"exact.exppoly_eval_per_s": rate(evals, eval_s),
            "exact.eigen_small_per_s": rate(len(mats), eig_s),
            "frobenius.structure_constants_ms": 1000 * sc_s / len(pots)}
