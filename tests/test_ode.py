"""The stacked-stage Cash-Karp integrator against a stage-by-stage reference
that keeps the stages in a list and sums them in Python."""

from fractions import Fraction as F

import numpy as np
import pytest

from frobenii import ode, painleve
from frobenii.ode import IntegrationStats, StepUnderflowError, integrate
from frobenii.painleve import FAMILIES, PviPoint, log_k_increment, pvi_integrate

_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [3 / 10, -9 / 10, 6 / 5],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
]
_B5 = [37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771]
_B4 = [2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4]
_C = [0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8]


def _reference_integrate(f, y0, s0, s1, tol=1e-10, h0=None, min_step=1e-14,
                         observer=None):
    """The same tableau, tolerance and step control, with the stages as a
    list and each combination a Python sum."""
    y = np.array(y0, dtype=complex)
    s = float(s0)
    span = s1 - s0
    if span == 0:
        return y, IntegrationStats()
    direction = 1.0 if span > 0 else -1.0
    h = abs(span) / 16 if h0 is None else abs(h0)
    stats = IntegrationStats()
    scale0 = max(1.0, float(np.abs(y).max()))
    while (s1 - s) * direction > 1e-16 * abs(span):
        h = min(h, abs(s1 - s))
        if h < min_step:
            raise StepUnderflowError(f"step size underflow at s={s}")
        hs = direction * h
        k = []
        for i in range(6):
            yi = y
            for j, aij in enumerate(_A[i]):
                yi = yi + hs * aij * k[j]
            k.append(f(s + _C[i] * hs, yi))
        y5 = y + hs * sum(b * ki for b, ki in zip(_B5, k))
        y4 = y + hs * sum(b * ki for b, ki in zip(_B4, k))
        err = float(np.abs(y5 - y4).max())
        scale = max(scale0, float(np.abs(y5).max()))
        if err > tol * scale or not np.isfinite(err):
            stats.rejected += 1
            h *= 0.35
            continue
        s += hs
        y = y5
        stats.steps += 1
        if observer is not None:
            observer(s, y)
        if err == 0:
            h *= 4.0
        else:
            h *= min(4.0, max(0.2, 0.9 * (tol * scale / err) ** 0.2))
    return y, stats


def _recording(integrator, log):
    def run(*args, **kwargs):
        y, stats = integrator(*args, **kwargs)
        log.append((y, stats.steps, stats.rejected))
        return y, stats
    return run


def _b3_point(s0):
    fam = FAMILIES["B3"]
    x0, y0 = fam.x(s0), fam.y(s0)
    yp0 = fam.y.jet(s0)[1] / fam.x.jet(s0)[1]
    return PviPoint(fam.mu1, complex(x0), complex(y0), complex(yp0))


def _b3_segment_and_reverse():
    fam = FAMILIES["B3"]
    log_k_increment(fam, F(3, 4), F(17, 20))
    log_k_increment(fam, F(17, 20), F(3, 4))


def _b3_detour():
    # through a complex s, round the real axis
    fam = FAMILIES["B3"]
    log_k_increment(fam, F(2, 5), 0.5 + 0.1j)
    log_k_increment(fam, 0.5 + 0.1j, F(3, 5))


# painleve imports `integrate` from ode where its flow runs (log_k_increment);
# the module stays a parameter so that each case names the flow it checks
@pytest.mark.parametrize("module, run", [
    (painleve, _b3_segment_and_reverse),
    (painleve, _b3_detour),
])
def test_same_steps_as_the_stage_by_stage_reference(monkeypatch, module, run):
    logs = {}
    for name, integrator in (("stacked", integrate),
                             ("reference", _reference_integrate)):
        logs[name] = []
        monkeypatch.setattr(ode, "integrate", _recording(integrator, logs[name]))
        run()
    assert len(logs["stacked"]) == len(logs["reference"]) >= 2
    for (y, steps, rejected), (y_ref, steps_ref, rejected_ref) in zip(
            logs["stacked"], logs["reference"]):
        assert (steps, rejected) == (steps_ref, rejected_ref)
        # the stages are combined in another order, so the two agree to
        # round-off carried along the flow, well inside the step tolerance
        assert np.abs(y - y_ref).max() < 1e-10 * max(1.0, np.abs(y_ref).max())


def test_attempt_cap_ends_a_run_that_never_underflows(monkeypatch):
    # a tolerance that needs more steps than the cap allows: the run stops
    # with the count and the parameter reached, not after the last step
    monkeypatch.setattr(ode, "MAX_ATTEMPTS", 10)
    with pytest.raises(StepUnderflowError, match=r"10 step attempts .* stuck at s=0\.\d"):
        integrate(lambda s, y: np.array([np.cos(40 * s)], dtype=complex),
                  np.zeros(1, dtype=complex), 0.0, 1.0, tol=1e-12)
    y, stats = integrate(lambda s, y: np.array([np.cos(s)], dtype=complex),
                         np.zeros(1, dtype=complex), 0.0, 1.0, tol=1e-6)
    assert stats.steps + stats.rejected < 10 and abs(y[0] - np.sin(1.0)) < 1e-6


@pytest.mark.parametrize("tol, message", [
    (0.0, "tol must be positive, got 0.0"),
    (float("nan"), "tol must be positive, got nan"),
    (float("inf"), "tol must be finite, got inf"),
])
def test_a_tolerance_not_positive_and_finite_is_refused(tol, message):
    # by the integrator and by pvi_integrate, also on a segment of length zero
    with pytest.raises(ValueError) as info:
        integrate(lambda s, y: y, np.ones(1, dtype=complex), 0.0, 1.0, tol=tol)
    assert str(info.value) == message
    pt = _b3_point(F(3, 4))
    for x1 in (pt.x, pt.x + 0.05):
        with pytest.raises(ValueError) as info:
            pvi_integrate(pt, x1, tol=tol)
        assert str(info.value) == message
