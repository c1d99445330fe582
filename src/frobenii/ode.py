"""Adaptive embedded Runge-Kutta (Cash-Karp 5(4)) for complex vector fields.

Used by the Painleve-VI integrator and the log k increment of `painleve`;
the isomonodromic flow of `semisimple` takes Taylor steps instead.  The
state is a flat complex numpy array.  The six stages of a step are the rows
of one (6, m) array K: stage i evaluates f at y + h (A_i @ K[:i]), and the
fifth-order solution and the error estimate are y + h (B5 @ K) and
h ((B5 - B4) @ K), both from one (2, 6) @ K product.  A guard callback can
reject steps that enter a forbidden region (singularity margins), which
triggers step-size reduction and ultimately a StepUnderflowError, as does
running out of the MAX_ATTEMPTS step attempts of one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Cash-Karp tableau: row i of _A holds a_ij for j < i
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [3 / 10, -9 / 10, 6 / 5, 0, 0],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27, 0],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
])
_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4])
_B5E = np.array([_B5, _B5 - _B4])  # fifth-order weights and the error row
_C = [0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8]
MIN_STEP = 1e-14  # a step below this raises StepUnderflowError
# Step attempts, accepted or rejected, allowed in one call; one more raises
# StepUnderflowError.  A guard margin that the solution grazes can reject and
# regrow h forever without h falling below MIN_STEP.  The largest counts seen
# in one call are 502 in the test suite (the tol-1e-12 reference for the
# isomonodromic Taylor segments) and 41 in the chart benchmark's
# `pvi integrate` segments (seeds 1-10).
MAX_ATTEMPTS = 2000


class StepUnderflowError(ArithmeticError):
    """The integration cannot proceed: a numerical failure, reported by the
    CLI like any other ArithmeticError."""


@dataclass
class IntegrationStats:
    steps: int = 0
    rejected: int = 0


def integrate(f: Callable[[float, np.ndarray], np.ndarray],
              y0: np.ndarray,
              s0: float,
              s1: float,
              tol: float = 1e-10,
              guard: Optional[Callable[[float, np.ndarray], bool]] = None,
              ) -> tuple[np.ndarray, IntegrationStats]:
    """Integrate y' = f(s, y) from s0 to s1 (real parameter, complex state).

    The first step is |s1 - s0| / 16.  `guard(s, y)` returning False marks
    (s, y) as inadmissible; the step is retried with a smaller h.  tol must
    be positive and finite; otherwise ValueError.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if tol == float("inf"):
        raise ValueError("tol must be finite, got inf")
    y = np.array(y0, dtype=complex)
    s = float(s0)
    span = s1 - s0
    direction = 1.0 if span > 0 else -1.0
    h = abs(span) / 16
    stats = IntegrationStats()
    scale0 = max(1.0, float(np.abs(y).max()))
    K = np.empty((6, y.size), dtype=complex)
    while (s1 - s) * direction > 1e-16 * abs(span):
        h = min(h, abs(s1 - s))
        if h < MIN_STEP:
            raise StepUnderflowError(f"step size underflow at s={s}")
        if stats.steps + stats.rejected == MAX_ATTEMPTS:
            raise StepUnderflowError(
                f"{MAX_ATTEMPTS} step attempts ({stats.rejected} rejected) "
                f"without reaching s={s1}; stuck at s={s}")
        hs = direction * h
        hA = hs * _A
        failed = False
        for i in range(6):
            # the slice keeps stale rows of K, possibly non-finite, out
            yi = y + hA[i, :i] @ K[:i] if i else y
            if guard is not None and not guard(s + _C[i] * hs, yi):
                failed = True
                break
            K[i] = f(s + _C[i] * hs, yi)
        if not failed:
            step, delta = (hs * _B5E) @ K
            y5 = y + step
            err = float(np.abs(delta).max())
            scale = max(scale0, float(np.abs(y5).max()))
            failed = err > tol * scale or not math.isfinite(err)
            if guard is not None and not failed:
                failed = not guard(s + hs, y5)
        if failed:
            stats.rejected += 1
            h *= 0.35
            continue
        s += hs
        y = y5
        stats.steps += 1
        # PI-ish growth control
        if err == 0:
            h *= 4.0
        else:
            h *= min(4.0, max(0.2, 0.9 * (tol * scale / err) ** 0.2))
    return y, stats
