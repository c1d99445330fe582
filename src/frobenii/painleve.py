"""The one-parameter Painleve VI family governing three-dimensional
semisimple WDVV solutions, its three algebraic solutions, and the
(q, p, k) <-> Psi reconstruction chain.

The equation PVI(mu):

    y'' = 1/2 (1/y + 1/(y-1) + 1/(y-x)) y'^2
        - (1/x + 1/(x-1) + 1/(y-x)) y'
        + 1/2 y(y-1)(y-x)/(x^2 (x-1)^2) [ (2 mu - 1)^2 + x(x-1)/(y-x)^2 ].

The algebraic solutions attached to the three polynomial three-dimensional
WDVV solutions have mu = -1/4, -1/3, -2/5.  Each is stored as an exact
rational parametrization (x(s), y(s)) with integer coefficients; the stored
forms were re-derived from the corresponding Frobenius manifolds and
verified to make the PVI residual vanish identically.  Rational s is
evaluated exactly; `RationalFunction.jet` is the only derivative path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .exact import upoly
from .ode import integrate

Poly = Tuple[int, ...]

# Tolerance of the adaptive integration in log_k_increment.
LOG_K_TOL = 1e-12


def _factored(*factors: Tuple[Poly, int]) -> Poly:
    """The product of p^k over the (p, k) factors, as an int tuple."""
    return tuple(reduce(upoly.mul, (p for p, k in factors for _ in range(k)), (1,)))


def _pval(c: Poly, s):
    """c(s), c integer coefficients lowest degree first.  Rational s = p/q
    (int or Fraction): the exact sum_i c_i p^i q^(d-i) / q^d, summed in ints
    and reduced once; the empty list, where qk // q = 0, is 0.  Float or
    complex s: Horner's rule."""
    exact = isinstance(s, (int, Fraction))
    p, q = (s.numerator, s.denominator) if exact else (s, 1)
    num, qk = 0, 1
    for a in reversed(c):
        num = num * p + a * qk
        qk *= q
    return Fraction(num, qk // q or 1) if exact else num


class ParametrizationPoleError(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class RationalFunction:
    """num(s)/den(s), integer coefficients lowest degree first.  Rational s
    is evaluated exactly; `jet` is the only derivative path."""
    num: Poly
    den: Poly

    @cached_property
    def _jet_polys(self) -> Tuple[Poly, ...]:
        n1, d1 = upoly.deriv(self.num), upoly.deriv(self.den)
        return self.num, n1, upoly.deriv(n1), self.den, d1, upoly.deriv(d1)

    def __call__(self, s):
        d = _pval(self.den, s)
        if d == 0:
            raise ParametrizationPoleError(f"s = {s} is a pole")
        return _pval(self.num, s) / d

    def jet(self, s) -> Tuple:
        """(r, r', r'') at s by the quotient rule on num, den and their derivatives."""
        n, n1, n2, d, d1, d2 = (_pval(c, s) for c in self._jet_polys)
        if d == 0:
            raise ParametrizationPoleError(f"s = {s} is a pole")
        r = n / d
        r1 = (n1 - r * d1) / d
        return r, r1, (n2 - 2 * r1 * d1 - r * d2) / d

    def den_nonzero(self, s) -> bool:
        return _pval(self.den, s) != 0


@dataclass(frozen=True)
class AlgebraicFamily:
    name: str
    mu1: Fraction
    x: RationalFunction
    y: RationalFunction


H3_DEGREE9 = (49, -2133, 34308, -259044, 1642878, -7616646,
              13758708, 5963724, -719271, 42483)


def _families() -> Dict[str, AlgebraicFamily]:
    # tetrahedral family, mu = -1/4:
    # x = (s-1)^3 (3s+1) / ((s+1)^3 (3s-1))
    # y = (s-1)^2 (3s+1) (9s^2-5)^2 / ((1+s)(243 s^6 + 1539 s^4 - 207 s^2 + 25))
    a3 = AlgebraicFamily(
        "A3", Fraction(-1, 4),
        RationalFunction(_factored(((-1, 1), 3), ((1, 3), 1)),
                         _factored(((1, 1), 3), ((-1, 3), 1))),
        RationalFunction(_factored(((-1, 1), 2), ((1, 3), 1), ((-5, 0, 9), 2)),
                         _factored(((1, 1), 1), ((25, 0, -207, 0, 1539, 0, 243), 1))))
    # octahedral family, mu = -1/3:
    # x = (2-s)^2 (1+s) / ((2+s)^2 (1-s))
    # y = (2-s)(1+s)(s^2-3)^2 / ((2+s)(5 s^4 - 10 s^2 + 9))
    b3 = AlgebraicFamily(
        "B3", Fraction(-1, 3),
        RationalFunction(_factored(((2, -1), 2), ((1, 1), 1)),
                         _factored(((2, 1), 2), ((1, -1), 1))),
        RationalFunction(_factored(((2, -1), 1), ((1, 1), 1), ((-3, 0, 1), 2)),
                         _factored(((2, 1), 1), ((9, 0, -10, 0, 5), 1))))
    # icosahedral family, mu = -2/5, with the degree-9 polynomial P(z) = H3_DEGREE9:
    Ps2 = [0] * 19
    Ps2[::2] = H3_DEGREE9
    Q = (7, 0, -108, 0, 314, 0, -588, 0, 119)
    h3 = AlgebraicFamily(
        "H3", Fraction(-2, 5),
        RationalFunction(_factored(((-1, 1), 5), ((1, 3), 3), ((-1, 4, 1), 1)),
                         _factored(((1, 1), 5), ((-1, 3), 3), ((-1, -4, 1), 1))),
        RationalFunction(_factored(((-1, 1), 2), ((1, 3), 2), ((-1, 4, 1), 1), (Q, 2)),
                         _factored(((1, 1), 3), ((-1, 3), 1), (Ps2, 1))))
    return {"A3": a3, "B3": b3, "H3": h3}


FAMILIES = _families()


def algebraic_solution(family: str, s) -> Tuple:
    """(x, y) of the printed parametric solution at parameter s (exact for
    int or Fraction input); a pole raises ParametrizationPoleError."""
    fam = FAMILIES[family.upper()]
    return fam.x(s), fam.y(s)


# ---------------------------------------------------------------------------
# the equation
# ---------------------------------------------------------------------------

def pvi_rhs(mu1, x, y, yp):
    """y'' from PVI(mu); raises ZeroDivisionError at singular configurations."""
    A = (1 / y + 1 / (y - 1) + 1 / (y - x)) * yp * yp / 2
    B = (1 / x + 1 / (x - 1) + 1 / (y - x)) * yp
    C = (y * (y - 1) * (y - x) / (x * x * (x - 1) ** 2)
         * ((2 * mu1 - 1) ** 2 + x * (x - 1) / (y - x) ** 2)) / 2
    return A - B + C


def _residual(fam: AlgebraicFamily, s, mu1) -> Tuple:
    """(x, y, y''(x) - rhs) at s, from the jets of x(s) and y(s)."""
    x, xs, xss = fam.x.jet(s)
    y, ys, yss = fam.y.jet(s)
    yp = ys / xs
    ypp = (yss * xs - ys * xss) / xs ** 3
    return x, y, ypp - pvi_rhs(fam.mu1 if mu1 is None else mu1, x, y, yp)


def pvi_residual_on_curve(fam: AlgebraicFamily, s, mu1=None) -> complex:
    """y''(x) - rhs along the parametrized curve; derivatives of the
    parametrization are exact, the residual is returned as a complex number."""
    return complex(_residual(fam, s, mu1)[2])


def sample_parameters(fam: AlgebraicFamily, count: int) -> List[Fraction]:
    """Rational s-grid avoiding parametrization poles and the PVI-singular
    values (x in {0, 1}, y in {0, 1, x}), checked exactly."""
    out: List[Fraction] = []
    k = 1
    while len(out) < count and k < 100 * count:
        s = Fraction(2 * k - 1, 4 * count)  # odd/4N grid in (0, 1/2)
        k += 1
        try:
            x, y = algebraic_solution(fam.name, s)
        except ParametrizationPoleError:
            continue
        if x not in (0, 1) and y not in (0, 1, x):
            out.append(s)
    if len(out) < count:
        raise ParametrizationPoleError("could not build a pole-free grid")
    return out


def residual_table(fam: AlgebraicFamily, sample_count: int, mu1=None) -> List[Tuple]:
    """(s, x, y, |PVI residual|) with exact x, y at each s of
    sample_parameters(fam, sample_count)."""
    rows = []
    for s in sample_parameters(fam, sample_count):
        x, y, res = _residual(fam, s, mu1)
        rows.append((s, x, y, abs(complex(res))))
    return rows


def verify_algebraic(family: str, sample_count: int = 50, mu1=None) -> float:
    """Max |PVI residual| over a pole-free rational sample grid."""
    rows = residual_table(FAMILIES[family.upper()], sample_count, mu1)
    return max((row[3] for row in rows), default=0.0)


# ---------------------------------------------------------------------------
# numeric integration
# ---------------------------------------------------------------------------

@dataclass
class PviPoint:
    mu1: Fraction
    x: complex
    y: complex
    yprime: complex


def pvi_integrate(pt0: PviPoint, x1: complex, tol: float = 1e-10,
                  margin: float = 1e-4) -> PviPoint:
    """Integrate PVI along the straight segment from pt0.x to x1 with an
    embedded adaptive Runge-Kutta; refuses to approach y in {0, 1, x} or
    x in {0, 1} closer than `margin`."""
    x0 = complex(pt0.x)
    x1 = complex(x1)
    if x1 == x0:
        return PviPoint(pt0.mu1, pt0.x, pt0.y, pt0.yprime)
    dx = x1 - x0
    mu1 = float(pt0.mu1) if isinstance(pt0.mu1, Fraction) else pt0.mu1

    def guard(sig: float, state: np.ndarray) -> bool:
        x = x0 + sig * dx
        y = state[0]
        if abs(x) < margin or abs(x - 1) < margin:
            return False
        return (abs(y) > margin and abs(y - 1) > margin and abs(y - x) > margin)

    # the state carries (y, dy/dsigma) with sigma the segment parameter
    def f(sig: float, state: np.ndarray) -> np.ndarray:
        x = x0 + sig * dx
        y, dyds = state
        yp = dyds / dx
        ypp = pvi_rhs(mu1, x, y, yp)
        return np.array([dyds, ypp * dx * dx], dtype=complex)

    y0 = np.array([pt0.y, pt0.yprime * dx], dtype=complex)
    yend, _ = integrate(f, y0, 0.0, 1.0, tol=tol, guard=guard)
    return PviPoint(pt0.mu1, x1, yend[0], yend[1] / dx)


# ---------------------------------------------------------------------------
# the (q, p, k) chain
# ---------------------------------------------------------------------------

@dataclass
class QpkState:
    u: Tuple[complex, complex, complex]
    q: complex
    p: complex
    logk: complex = 0j


def _cubic(u: Sequence[complex]):
    def P(lam):
        return (lam - u[0]) * (lam - u[1]) * (lam - u[2])

    def Pprime(lam):
        return ((lam - u[1]) * (lam - u[2]) + (lam - u[0]) * (lam - u[2])
                + (lam - u[0]) * (lam - u[1]))

    return P, Pprime


def y_to_qp(y, yprime, x, u: Sequence[complex]) -> QpkState:
    """q = (u2 - u1) y + u1 and p = P'(u3)/(2 P(q)) y' - 1/(2 (q - u3)),
    P(lam) = (lam - u1)(lam - u2)(lam - u3); requires x = (u3-u1)/(u2-u1)."""
    u = tuple(complex(v) for v in u)
    if len({u[0], u[1], u[2]}) != 3:
        raise ValueError("u must be pairwise distinct")
    xref = (u[2] - u[0]) / (u[1] - u[0])
    if abs(complex(x) - xref) > 1e-9 * max(1.0, abs(xref)):
        raise ValueError("x does not match (u3 - u1)/(u2 - u1)")
    q = (u[1] - u[0]) * complex(y) + u[0]
    P, Pp = _cubic(u)
    if abs(P(q)) == 0:
        raise ZeroDivisionError("P(q) = 0")
    p = Pp(u[2]) / (2 * P(q)) * complex(yprime) - 1 / (2 * (q - u[2]))
    return QpkState(u=u, q=q, p=p)


def qp_from_family(family: str, s, u: Sequence[complex] | None = None) -> QpkState:
    """(q, p) along an algebraic family at parameter s, in the normalization
    u = (0, 1, x(s)) unless u is given (then x(s) must match)."""
    fam = FAMILIES[family.upper()]
    x, xs, _ = fam.x.jet(s)
    y, ys, _ = fam.y.jet(s)
    if u is None:
        u = (0.0, 1.0, x)
    return y_to_qp(y, ys / xs, x, u)


def _q_of_u(fam: AlgebraicFamily, u: Sequence[complex], seed_s: complex
            ) -> Tuple[complex, complex, complex]:
    """(q, p, s) at a general u-triple via affine covariance: solve
    x(s) = (u3-u1)/(u2-u1) by Newton from seed_s, then map q, p back."""
    target = (u[2] - u[0]) / (u[1] - u[0])
    s = complex(seed_s)
    for _ in range(80):
        x, xs, _ = fam.x.jet(s)
        if abs(x - target) < 1e-14 * max(1.0, abs(target)):
            break
        s = s - (x - target) / xs
    else:
        raise ArithmeticError("Newton failed to match x(s) to the u-triple")
    y, ys, _ = fam.y.jet(s)
    st = y_to_qp(y, ys / xs, x, u)
    return st.q, st.p, s


def qp_flow_check(family: str, s0, du: float = 1e-5) -> Tuple[float, float]:
    """Central-difference check of the isomonodromic flow equations

        d_i q = P(q)/P'(u_i) (2p + 1/(q - u_i))
        d_i p = -(P'(q) p^2 + (2q + u_i - sum u_j) p + mu(1 - mu)) / P'(u_i)

    at the point u = (0, 1, x(s0)) of the named family.  Differences are
    Richardson-extrapolated (steps du and du/2); mismatches are measured
    relative to max(1, |rhs|).  Returns (max q-mismatch, max p-mismatch)."""
    fam = FAMILIES[family.upper()]
    mu1 = complex(Fraction(fam.mu1))
    x0 = complex(fam.x(s0))
    base = (0.0 + 0j, 1.0 + 0j, x0)
    q0, p0, s_at = _q_of_u(fam, base, complex(s0))
    P, Pp = _cubic(base)
    usum = sum(base)

    def fd(i: int, h: float) -> Tuple[complex, complex]:
        up = list(base)
        um = list(base)
        up[i] += h
        um[i] -= h
        qp_, pp_, _ = _q_of_u(fam, up, s_at)
        qm_, pm_, _ = _q_of_u(fam, um, s_at)
        return (qp_ - qm_) / (2 * h), (pp_ - pm_) / (2 * h)

    worst_q = worst_p = 0.0
    for i in range(3):
        dq1, dp1 = fd(i, du)
        dq2, dp2 = fd(i, du / 2)
        dq = (4 * dq2 - dq1) / 3
        dp = (4 * dp2 - dp1) / 3
        rhs_q = P(q0) / Pp(base[i]) * (2 * p0 + 1 / (q0 - base[i]))
        rhs_p = -(Pp(q0) * p0 ** 2 + (2 * q0 + base[i] - usum) * p0
                  + mu1 * (1 - mu1)) / Pp(base[i])
        worst_q = max(worst_q, abs(dq - rhs_q) / max(1.0, abs(rhs_q)))
        worst_p = max(worst_p, abs(dp - rhs_p) / max(1.0, abs(rhs_p)))
    return worst_q, worst_p


def log_k_increment(family: str, s_from, s_to) -> complex:
    """d_i log k = (2 mu - 1)(q - u_i)/P'(u_i) integrated along the curve
    slice u = (0, 1, x(s)) from s_from to s_to (log k = 0 at the start), by
    the adaptive integrator of `ode` on the straight s-segment at tolerance
    LOG_K_TOL."""
    fam = FAMILIES[family.upper()]
    mu1 = complex(Fraction(fam.mu1))
    s0 = complex(s_from)
    ds = complex(s_to) - s0

    def f(sig: float, y: np.ndarray) -> np.ndarray:
        s = s0 + sig * ds
        x, xs, _ = fam.x.jet(s)
        q = fam.y(s)  # u = (0, 1, x): q = y and P'(u3) = x (x - 1)
        return np.array([(2 * mu1 - 1) * (q - x) / (x * (x - 1)) * xs * ds])

    total, _ = integrate(f, np.zeros(1, dtype=complex), 0.0, 1.0, tol=LOG_K_TOL)
    return complex(total[0])


def reconstruct_psi(state: QpkState, mu1) -> np.ndarray:
    """Psi columns from (q, p, k): with B_i = P(q) p^2 + 2 mu P(q)/(q-u_i) p
    + mu^2 (q + 2 u_i - sum u_j),

        psi_{i1} psi_{i3} = -(q - u_i) B_i / (2 mu^2 P'(u_i))
        psi_{i3}^2        = -k (q - u_i) / P'(u_i)
        psi_{i1}^2        = -(q - u_i) B_i^2 / (4 mu^4 k P'(u_i))

    and the middle column from the +i cross-product convention."""
    u = state.u
    mu1 = complex(Fraction(mu1)) if isinstance(mu1, Fraction) else complex(mu1)
    k = np.exp(state.logk)
    P, Pp = _cubic(u)
    q, p = state.q, state.p
    usum = sum(u)
    psi1 = np.zeros(3, dtype=complex)
    psi3 = np.zeros(3, dtype=complex)
    for i in range(3):
        B = P(q) * p * p + 2 * mu1 * P(q) / (q - u[i]) * p \
            + mu1 ** 2 * (q + 2 * u[i] - usum)
        pr13 = -(q - u[i]) / (2 * mu1 ** 2 * Pp(u[i])) * B
        sq3 = -k * (q - u[i]) / Pp(u[i])
        sq1 = -(q - u[i]) / (4 * mu1 ** 4 * k * Pp(u[i])) * B * B
        if abs(sq1 * sq3 - pr13 ** 2) > 1e-6 * max(1.0, abs(pr13) ** 2):
            raise ArithmeticError("inconsistent squares in the psi reconstruction")
        psi3[i] = np.sqrt(sq3)
        psi1[i] = pr13 / psi3[i] if psi3[i] != 0 else np.sqrt(sq1)
    psi2 = 1j * np.array([
        psi1[1] * psi3[2] - psi3[1] * psi1[2],
        psi3[0] * psi1[2] - psi1[0] * psi3[2],
        psi1[0] * psi3[1] - psi3[0] * psi1[1],
    ])
    return np.column_stack([psi1, psi2, psi3])
