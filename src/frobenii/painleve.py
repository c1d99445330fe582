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
evaluated exactly, in ints: `RationalFunction._cleared_jet` gives the
derivatives, and the PVI residual is one integer numerator over one
integer denominator.  A solution is continued in x as the isomonodromic
flow of the 3x3 skew V at u = (0, 1, x) (`pvi_integrate`, by the Taylor
steps of `semisimple`), which is regular where y meets 0, 1 or x; V and
(q, p) convert in closed form (`v_from_qp`, `qp_from_v`).  Along a family
d log k/ds is rational in s with simple poles, so log k is a sum of
logarithms read off its exact residues (`log_k_increment`).  numpy and
`semisimple` are imported by the numeric functions that use them, so the
exact half loads without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import truediv
from typing import Dict, List, Sequence, Tuple

from .exact import upoly

Poly = Tuple[int, ...]

# A segment in the s-plane meets a pole of d log k/ds when it passes within
# this distance of it (`log_k_increment`).
POLE_MARGIN = 1e-9


def _factored(*factors: Tuple[Poly, int]) -> Poly:
    """The product of p^k over the (p, k) factors, as an int tuple."""
    return tuple(reduce(upoly.mul, (p for p, k in factors for _ in range(k)), (1,)))


def _ratio(s) -> Tuple:
    """(p, q) with s = p/q for rational s (int or Fraction); (s, 1) for a
    float or complex s."""
    if isinstance(s, (int, Fraction)):
        return s.numerator, s.denominator
    return s, 1


def _hval(c: Poly, p, q):
    """q^(len(c) - 1) c(p/q) by Horner's rule, c lowest degree first: an
    int for int p and q, the plain value c(p) for q = 1."""
    v, qk = 0, 1
    for a in reversed(c):
        v = v * p + a * qk
        qk *= q
    return v


class ParametrizationPoleError(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class RationalFunction:
    """num(s)/den(s), integer coefficients lowest degree first.  Rational s
    is evaluated exactly, in ints (`_cleared_jet`); `jet` is the one public
    derivative path."""
    num: Poly
    den: Poly

    @cached_property
    def _jet_polys(self) -> Tuple[Poly, ...]:
        """num, num', num'', den, den', den'', each padded with zeros to one
        length, so that at s = p/q all six values carry the same power of q."""
        n1, d1 = upoly.deriv(self.num), upoly.deriv(self.den)
        polys = self.num, n1, upoly.deriv(n1), self.den, d1, upoly.deriv(d1)
        width = max(map(len, polys))
        return tuple(tuple(c) + (0,) * (width - len(c)) for c in polys)

    def _scaled(self, s) -> Tuple:
        """(n, d) with r(s) = n/d: at rational s = p/q, the ints q^k num(s)
        and q^k den(s) for one k; at float or complex s, num(s) and den(s)."""
        p, q = _ratio(s)
        polys = self._jet_polys
        return _hval(polys[0], p, q), _hval(polys[3], p, q)

    def _cleared_jet(self, s) -> Tuple:
        """(a, a1, a2, b) with r = a/b, r' = a1/b^2 and r'' = a2/b^3 at s, by
        the quotient rule on the six values of `_jet_polys`: ints for
        rational s, no division.  A pole raises ParametrizationPoleError."""
        p, q = _ratio(s)
        n, n1, n2, d, d1, d2 = (_hval(c, p, q) for c in self._jet_polys)
        if d == 0:
            raise ParametrizationPoleError(f"s = {s} is a pole")
        a1 = n1 * d - n * d1
        return n, a1, (n2 * d - n * d2) * d - 2 * d1 * a1, d

    def __call__(self, s):
        n, d = self._scaled(s)
        if d == 0:
            raise ParametrizationPoleError(f"s = {s} is a pole")
        return Fraction(n, d) if isinstance(s, (int, Fraction)) else n / d

    def jet(self, s) -> Tuple:
        """(r, r', r'') at s from `_cleared_jet`: Fractions for rational s,
        floats or complex numbers otherwise."""
        a, a1, a2, b = self._cleared_jet(s)
        div = Fraction if isinstance(s, (int, Fraction)) else truediv
        return div(a, b), div(a1, b * b), div(a2, b ** 3)

    def den_nonzero(self, s) -> bool:
        return _hval(self._jet_polys[3], *_ratio(s)) != 0


@dataclass(frozen=True)
class AlgebraicFamily:
    name: str
    mu1: Fraction
    x: RationalFunction
    y: RationalFunction

    @cached_property
    def _log_k_residues(self) -> Tuple[np.ndarray, np.ndarray]:
        """The poles r of d log k/ds along u = (0, 1, x(s)) and the residues
        N(r)/D'(r) there, where d log k/ds = (2 mu - 1)(q - x) x'/(x (x - 1))
        is (2 mu - 1) N/D with x = a/b, y = q = c/e,
        N = (c b - a e)(a' b - a b') and D = a (a - b) b e, put in lowest
        terms by their exact gcd.  A D that is not square-free, or
        deg N >= deg D, leaves log k no sum of logarithms: ValueError."""
        import numpy as np
        a, b, c, e = self.x.num, self.x.den, self.y.num, self.y.den
        mul, sub, deriv = upoly.mul, upoly.sub, upoly.deriv
        N = mul(sub(mul(c, b), mul(a, e)), sub(mul(deriv(a), b), mul(a, deriv(b))))
        D = mul(mul(a, sub(a, b)), mul(b, e))
        g = upoly.gcd(D, N)
        N, D = upoly.quotient(N, g), upoly.quotient(D, g)
        if len(upoly.gcd(D, deriv(D))) > 1:
            raise ValueError(f"{self.name}: d log k/ds has a multiple pole, "
                             f"so log k is no sum of logarithms")
        if len(N) >= len(D):
            raise ValueError(f"{self.name}: d log k/ds has deg N = {len(N) - 1} >= "
                             f"deg D = {len(D) - 1}, so log k is no sum of logarithms")
        D = [float(v) for v in reversed(D)]
        poles = np.roots(D)
        return poles, np.polyval([float(v) for v in reversed(N)], poles) / \
            np.polyval(np.polyder(D), poles)


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


def _residual(fam: AlgebraicFamily, s) -> Tuple:
    """(a, b, c, e, N, D): x(s) = a/b, y(s) = c/e and the PVI residual
    y''(x) - rhs = N/D, with mu = fam.mu1 (rational).

    `_cleared_jet` gives x' = X1/b^2, x'' = X2/b^3, y' = Y1/e^2 and
    y'' = Y2/e^3, so dy/dx = Y1 b^2/(X1 e^2) and
    d^2y/dx^2 = (Y2 X1 b - Y1 X2 e) b^3/(e^3 X1^3).  The residual times
    2 x^2 (x-1)^2 y (y-1)(y-x), over the common denominator
    b^2 e^6 X1^3 md^2 (2 mu - 1 = mn/md), is N/b^3 below; so
    N/D with D = 2 aa^2 cc W e^3 X1^3 md^2, where aa = a (a - b),
    cc = c (c - e) and W = c b - a e = (y - x) b e.  N and D are formed
    with +, - and * only: at rational s they are ints and no gcd is taken.
    The same ring operations on polynomials in s (`exact.upoly`) in place
    of ints give the residual's numerator as one polynomial, which vanishes
    identically on the algebraic families.

    D = 0 exactly where PVI is singular (x in {0, 1}, y in {0, 1, x}) or
    x'(s) = 0, and there ZeroDivisionError is raised; a pole of the
    parametrization raises ParametrizationPoleError."""
    a, X1, X2, b = fam.x._cleared_jet(s)
    c, Y1, Y2, e = fam.y._cleared_jet(s)
    m = 2 * Fraction(fam.mu1) - 1
    mn, md2 = m.numerator, m.denominator ** 2
    aa, cc = a * (a - b), c * (c - e)
    W = c * b - a * e                      # (y - x) b e
    den = 2 * aa * aa * cc * W * (e * X1) ** 3 * md2
    if den == 0:
        raise ZeroDivisionError(f"PVI is singular at s = {s}")
    X1X1 = X1 * X1
    num = md2 * (2 * aa * aa * cc * W * (Y2 * X1 * b - Y1 * X2 * e)
                 - aa * aa * ((2 * c - e) * W + cc * b) * Y1 * Y1 * b * X1
                 + 2 * cc * aa * (W * (2 * a - b) + e * aa) * Y1 * e * X1X1) \
        - cc * cc * (W * W * mn * mn + e * e * aa * md2) * X1X1 * X1
    return a, b, c, e, num * b ** 3, den


def _quotient(num, den):
    """num/den, one correctly rounded true division for ints; 0.0 (never
    -0.0) when num is 0."""
    return num / den if num else 0.0


def pvi_residual_on_curve(fam: AlgebraicFamily, s) -> complex:
    """y''(x) - rhs along the parametrized curve; exact for rational s, the
    residual is returned as a complex number.  Another mu is the family
    `dataclasses.replace(fam, mu1=...)`."""
    return complex(_quotient(*_residual(fam, s)[4:]))


def sample_parameters(fam: AlgebraicFamily, count: int) -> List[Fraction]:
    """Rational s-grid avoiding parametrization poles and the PVI-singular
    values (x in {0, 1}, y in {0, 1, x}), checked exactly; a count below 1
    raises ValueError."""
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    out: List[Fraction] = []
    k = 1
    while len(out) < count and k < 100 * count:
        s = Fraction(2 * k - 1, 4 * count)  # odd/4N grid in (0, 1/2)
        k += 1
        a, b = fam.x._scaled(s)
        c, e = fam.y._scaled(s)
        # x = a/b, y = c/e: no pole, and x(x-1) y(y-1)(y-x) != 0
        if b and e and a * (a - b) * c * (c - e) * (c * b - a * e):
            out.append(s)
    if len(out) < count:
        raise ParametrizationPoleError("could not build a pole-free grid")
    return out


def residual_table(fam: AlgebraicFamily, grid: Sequence[Fraction]) -> List[Tuple]:
    """(s, x, y, |PVI residual|, N, D) with exact x, y at each s of the
    grid, the residual being N/D (see `_residual`)."""
    rows = []
    for s in grid:
        a, b, c, e, num, den = _residual(fam, s)
        rows.append((s, Fraction(a, b), Fraction(c, e), abs(_quotient(num, den)), num, den))
    return rows


def verify_algebraic(fam: AlgebraicFamily, sample_count: int = 50) -> float:
    """Max |PVI residual| over a pole-free rational sample grid."""
    rows = residual_table(fam, sample_parameters(fam, sample_count))
    return max(row[3] for row in rows)


# ---------------------------------------------------------------------------
# numeric integration
# ---------------------------------------------------------------------------

@dataclass
class PviPoint:
    mu1: Fraction
    x: complex
    y: complex
    yprime: complex


def pvi_integrate(pt0: PviPoint, x1: complex, tol: float = 1e-10
                  ) -> Tuple[PviPoint, "IsoDiagnostics"]:
    """Continue a solution of PVI(mu) from pt0 along the straight segment to
    x1 as the isomonodromic flow of V at u = (0, 1, x): `v_from_qp`, then
    `semisimple.integrate_isomonodromic` at tol, then `qp_from_v`.  y meeting
    0, 1 or x is no singularity of that flow; x meeting 0 or 1 raises
    CoalescingEigenvaluesError.  Returns the end point (the start itself on
    a segment of length zero) and the IsoDiagnostics.  tol must be positive
    and finite (`integrate_isomonodromic` checks it) and mu nonzero;
    otherwise ValueError."""
    if pt0.mu1 == 0:
        raise ValueError("mu must be nonzero: at mu = 0, V = 0 carries no (y, y')")
    from .semisimple import IsoState, integrate_isomonodromic
    x0, x1 = complex(pt0.x), complex(x1)
    u0 = (0j, 1 + 0j, x0)
    V0 = v_from_qp(y_to_qp(pt0.y, pt0.yprime, x0, u0), pt0.mu1)
    end, diag = integrate_isomonodromic(IsoState(list(u0), V0), [(0, 1, x1)], tol)
    if x1 == x0:    # nothing moved: the start itself, not its round trip
        return PviPoint(pt0.mu1, pt0.x, pt0.y, pt0.yprime), diag
    st = qp_from_v(x1, end.V, pt0.mu1)
    # y = q and, inverting y_to_qp, y' = (p + 1/(2(q - x))) 2 P(q)/P'(x)
    yprime = (2 * st.p * (st.q - x1) + 1) * st.q * (st.q - 1) / (x1 * (x1 - 1))
    return PviPoint(pt0.mu1, x1, st.q, yprime), diag


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


def qp_from_family(fam: AlgebraicFamily, s) -> QpkState:
    """(q, p) along an algebraic family at parameter s, in the normalization
    u = (0, 1, x(s))."""
    x, xs, _ = fam.x.jet(s)
    y, ys, _ = fam.y.jet(s)
    return y_to_qp(y, ys / xs, x, (0.0, 1.0, x))


def qp_flow_check(fam: AlgebraicFamily, s0) -> Tuple[float, float]:
    """Check of the isomonodromic flow equations

        d_i q = P(q)/P'(u_i) (2p + 1/(q - u_i))
        d_i p = -(P'(q) p^2 + (2q + u_i - sum u_j) p + mu(1 - mu)) / P'(u_i)

    at the point u = (0, 1, x(s0)) of the family, by the chain rule
    through s on the jets of x(s) and y(s): exact at rational s0.  q and p
    are those of `y_to_qp`, q = u1 + (u2 - u1) y and
    p = A dy/dx - 1/(2 (q - u3)) with A = P'(u3)/(2 P(q)), as functions of
    u through x = (u3 - u1)/(u2 - u1).  p is defined from q and dy/dx, so
    the q equation holds for any curve y(x); only the p equation tests
    PVI(mu).  Mismatches are measured relative to max(1, |rhs|).  Returns
    (max q-mismatch, max p-mismatch)."""
    mu = fam.mu1
    x, xs, xss = fam.x.jet(s0)
    y, ys, yss = fam.y.jet(s0)
    y1 = ys / xs                            # dy/dx
    y2 = (yss * xs - ys * xss) / xs ** 3    # d^2y/dx^2
    u = (0, 1, x)
    P, Pp = _cubic(u)
    q = y                                   # u1 + (u2 - u1) y
    A = Pp(x) / (2 * P(q))
    p = A * y1 - 1 / (2 * (q - x))
    # d_i x and d_i q at u = (0, 1, x)
    dx = (x - 1, -x, 1)
    dq = (1 - y + y1 * (x - 1), y - y1 * x, y1)
    worst_q = worst_p = 0
    for i in range(3):
        e = [int(i == j) for j in range(3)]
        dlogA = ((e[2] - e[0]) / x + (e[2] - e[1]) / (x - 1)
                 - sum((dq[i] - e[j]) / (q - u[j]) for j in range(3)))
        dp = A * (dlogA * y1 + y2 * dx[i]) + (dq[i] - e[2]) / (2 * (q - x) ** 2)
        rhs_q = P(q) / Pp(u[i]) * (2 * p + 1 / (q - u[i]))
        rhs_p = -(Pp(q) * p ** 2 + (2 * q + u[i] - sum(u)) * p
                  + mu * (1 - mu)) / Pp(u[i])
        worst_q = max(worst_q, abs(dq[i] - rhs_q) / max(1, abs(rhs_q)))
        worst_p = max(worst_p, abs(dp - rhs_p) / max(1, abs(rhs_p)))
    return float(worst_q), float(worst_p)


def log_k_increment(fam: AlgebraicFamily, s_from, s_to) -> complex:
    """d_i log k = (2 mu - 1)(q - u_i)/P'(u_i) integrated along the curve
    slice u = (0, 1, x(s)) from s_from to s_to (log k = 0 at the start), in
    closed form: (2 mu - 1) sum_r c_r Log((s_to - r)/(s_from - r)) over the
    poles r and residues c_r of `AlgebraicFamily._log_k_residues`.  On a
    straight s-segment clear of r the principal Log is the continuous branch.
    A segment, or an endpoint, within POLE_MARGIN of a pole raises
    ParametrizationPoleError."""
    import numpy as np
    poles, res = fam._log_k_residues
    s0, s1 = complex(s_from), complex(s_to)
    ds = s1 - s0
    # the point of the segment nearest each pole
    t = np.clip(((poles - s0) * ds.conjugate()).real / abs(ds) ** 2, 0, 1) if ds else 0
    near = np.abs(s0 + t * ds - poles)
    if near.size and near.min() < POLE_MARGIN:
        raise ParametrizationPoleError(
            f"the segment from s = {s_from} to s = {s_to} meets the pole "
            f"s = {complex(poles[near.argmin()]):.6g} of d log k/ds")
    return float(2 * fam.mu1 - 1) * complex(res @ np.log((s1 - poles) / (s0 - poles)))


def reconstruct_psi(state: QpkState, mu1) -> np.ndarray:
    """Psi columns from (q, p, k): with B_i = P(q) p^2 + 2 mu P(q)/(q-u_i) p
    + mu^2 (q + 2 u_i - sum u_j),

        psi_{i1} psi_{i3} = -(q - u_i) B_i / (2 mu^2 P'(u_i))
        psi_{i3}^2        = -k (q - u_i) / P'(u_i)
        psi_{i1}^2        = -(q - u_i) B_i^2 / (4 mu^4 k P'(u_i))

    and the middle column from the +i cross-product convention."""
    import numpy as np
    u = state.u
    mu1 = complex(mu1)
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
    return np.column_stack([psi1, 1j * np.cross(psi1, psi3), psi3])


def v_from_qp(state: QpkState, mu1) -> np.ndarray:
    """V = Psi diag(mu, 0, -mu) Psi^{-1} for the Psi of `reconstruct_psi`.
    Psi^T Psi = eta = antidiag(1, 1, 1) gives Psi^{-1} = eta Psi^T, so
    V = mu (psi_1 psi_3^T - psi_3 psi_1^T) from the first and third columns;
    k drops out."""
    import numpy as np
    psi = reconstruct_psi(state, mu1)
    half = complex(mu1) * np.outer(psi[:, 0], psi[:, 2])
    return half - half.T


def qp_from_v(x, V: np.ndarray, mu1) -> QpkState:
    """(q, p) at u = (0, 1, x) from the V of `v_from_qp`, with log k = 0
    (k drops out of V).  psi_1 and psi_3 are multiples of the eigenvectors
    e_+ and e_- of V for +mu and -mu.  q: e_{-i}^2 P'(u_i) = a u_i - b with
    q = b/a, read at u_1 = 0 and u_2 = 1.  p: psi_1 . psi_3 = 1 gives
    psi_{i1} psi_{i3} = e_{+i} e_{-i}/(e_+ . e_-), hence B_i of
    `reconstruct_psi`, and B_1 - B_2 = -2 mu ((q - x) p + mu)."""
    import numpy as np
    x, mu = complex(x), complex(mu1)
    w, vecs = np.linalg.eig(V)
    ep, em = (vecs[:, np.abs(w - m).argmin()] for m in (mu, -mu))
    b = -em[0] ** 2 * x                     # P'(0) = x, P'(1) = 1 - x
    q = complex(b / (em[1] ** 2 * (1 - x) + b))
    r = ep * em / (ep @ em)
    dB = 2 * mu ** 2 * ((1 - x) * r[1] / (q - 1) - x * r[0] / q)
    return QpkState(u=(0j, 1 + 0j, x), q=q, p=complex(-(dB + 2 * mu ** 2) / (2 * mu * (q - x))))
