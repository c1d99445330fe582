"""The one Runge-Kutta integrator left, a test oracle: adaptive Cash-Karp
5(4) for a complex vector field, with the stages kept in a list and each
combination a Python sum.  The package integrates by Taylor steps
(`semisimple`) and takes log k in closed form (`painleve`); tests compare
both against this."""

import numpy as np

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


def rk_integrate(f, y0, s0, s1, tol):
    """y at s1 for y' = f(s, y), y(s0) = y0, real s and complex state: the
    first step is |s1 - s0| / 16, and a step is accepted when its error
    estimate is at most tol * max(1, |y0|, |y|)."""
    y = np.array(y0, dtype=complex)
    s = float(s0)
    span = s1 - s0
    direction = 1.0 if span > 0 else -1.0
    h = abs(span) / 16
    scale0 = max(1.0, float(np.abs(y).max()))
    while (s1 - s) * direction > 1e-16 * abs(span):
        h = min(h, abs(s1 - s))
        if h < 1e-14:
            raise ArithmeticError(f"step size underflow at s={s}")
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
            h *= 0.35
            continue
        s += hs
        y = y5
        if err == 0:
            h *= 4.0
        else:
            h *= min(4.0, max(0.2, 0.9 * (tol * scale / err) ** 0.2))
    return y
