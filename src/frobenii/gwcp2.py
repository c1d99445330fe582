"""Gromov-Witten numbers of the projective plane from the WDVV equations.

Genus zero: the coefficients A_k of phi = sum A_k e^{kx} solve the third
order ODE phi'''(27 + 2 phi' - 3 phi'') - (phi'')^2 - 54 phi'' + 33 phi'
- 6 phi = 0 (the r = 3 reduction of the n = 3 quasihomogeneous WDVV system);
N_k = (3k-1)! A_k counts rational curves of degree k through 3k-1 points.
Rescaled by (3k-1)!, the ODE recursion runs on the integers N_k, and each
step ends in an exact division whose remainder must vanish.  An
independent route, the full PDE f_xxy^2 = f_yyy + f_xxx f_xyy rescaled the
same way, is Kontsevich's recursion and must reproduce the same numbers.
Genus one comes from the series psi = (phi''' - 27) / (8 (27 + 2 phi' -
3 phi'')), divided by two routes that cross-check each other.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .exact.exppoly import ExpPolynomial
from .exact.scalars import QuadScalar
from .exact.series import GWSeries
from .frobenius import FrobeniusPotential


class IntegralityError(ArithmeticError):
    pass


def _ode_next(N: Sequence[int]) -> int:
    """N_k from N_1..N_{k-1} by the ODE recursion rescaled by (3k-1)!:
    N_k = -sum_{i+j=k} i^2 j (2i - 3ij - j) C(3k-2, 3i-1) N_i N_j
    / (3 (k-1) (3k-2)).  The terms (i, j) and (j, i) share N_i N_j and the
    binomial, so they are summed as one.  The binomials C(n, r), n = 3k-2,
    r = 3i-1, come by the recurrence C(n, r+3) = C(n, r) (n-r)(n-r-1)(n-r-2)
    / ((r+1)(r+2)(r+3)), every division exact, seeded with math.comb(n, 2)
    at i = 1 (kontsevich_numbers takes each of its binomials from
    math.comb).  A nonzero remainder of the division, or N_k <= 0, raises
    IntegralityError.  Each term's integer weight is itself divisible
    (checked for k <= 300), so on integer input the remainder check guards
    the weights and binomials, not the N_i; Kontsevich's recursion is the
    check on the numbers."""
    k = len(N) + 1
    n = 3 * k - 2
    b = math.comb(n, 2)                     # C(n, 3i-1) at i = 1
    s = 0
    for i in range(1, k // 2 + 1):
        j = k - i
        w = i * j * (2 * (i * i + j * j - i * j) - 3 * i * j * k)
        if i == j:
            w //= 2
        s += w * b * (N[i - 1] * N[j - 1])
        r = 3 * i - 1
        b = b * (n - r) * (n - r - 1) * (n - r - 2) // ((r + 1) * (r + 2) * (r + 3))
    d = 3 * (k - 1) * n
    q, r = divmod(-s, d)
    if r:
        raise IntegralityError(f"N_{k} = {Fraction(-s, d)} is not an integer")
    if q <= 0:
        raise IntegralityError(f"N_{k} = {q} is not a positive integer")
    return q


def genus0_numbers(K: int) -> List[int]:
    """N_1..N_K from the ODE route in integers (N_1 = 1)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    N = [1]
    for _ in range(2, K + 1):
        N.append(_ode_next(N))
    return N


def kontsevich_numbers(K: int) -> List[int]:
    """N_1..N_K from Kontsevich's recursion, the WDVV PDE rescaled by
    (3k-1)!: N_d = sum_{a+b=d} N_a N_b [a^2 b^2 C(3d-4, 3a-2)
    - a^3 b C(3d-4, 3a-1)]."""
    if K < 1:
        raise ValueError("K must be >= 1")
    N = [1]
    for d in range(2, K + 1):
        s = 0
        for a in range(1, d):
            b = d - a
            s += N[a - 1] * N[b - 1] * (a * a * b * b * math.comb(3 * d - 4, 3 * a - 2)
                                        - a ** 3 * b * math.comb(3 * d - 4, 3 * a - 1))
        N.append(s)
    return N


def _coefficients(N: Sequence[int]) -> List[Fraction]:
    """A_k = N_k / (3k-1)!."""
    out = []
    f = 2                                   # (3k-1)! at k = 1
    for k, n in enumerate(N, start=1):
        out.append(Fraction(n, f))
        f *= 3 * k * (3 * k + 1) * (3 * k + 2)
    return out


def genus0_coefficients(K: int) -> List[Fraction]:
    """A_1..A_K from the ODE route (A_1 = 1/2)."""
    return _coefficients(genus0_numbers(K))


def genus0_coefficients_pde(K: int) -> List[Fraction]:
    """Independent oracle: A_1..A_K from Kontsevich's recursion, which is
    the PDE f_xxy^2 = f_yyy + f_xxx f_xyy with f = sum A_k y^{3k-1} e^{kx}
    rescaled by (3k-1)!."""
    return _coefficients(kontsevich_numbers(K))


@dataclass
class Genus0Row:
    k: int
    N: int
    A: Fraction


def _genus0_rows(N: Sequence[int]) -> List[Genus0Row]:
    return [Genus0Row(k=k, N=n, A=a)
            for k, (n, a) in enumerate(zip(N, _coefficients(N)), start=1)]


def genus0_invariants(K: int) -> List[Genus0Row]:
    """Table of (k, N_k, A_k) from the ODE route; raises IntegralityError if
    some N_k is not a positive integer (which would signal an
    implementation bug)."""
    return _genus0_rows(genus0_numbers(K))


def _psi_parts(A: Sequence[Fraction]) -> Tuple[GWSeries, GWSeries]:
    """Numerator phi''' - 27 and denominator 8 (27 + 2 phi' - 3 phi'') of psi
    for phi = sum A_k e^{kx}, truncated at K = len(A)."""
    d1 = GWSeries(len(A), A).diff()
    d2 = d1.diff()
    return d2.diff() - 27, (2 * d1 - 3 * d2 + 27) * 8


def elliptic_series(K: int, route: str = "triangular") -> GWSeries:
    """psi = (phi''' - 27) / (8 (27 + 2 phi' - 3 phi'')) truncated at K."""
    if route not in ("triangular", "neumann"):
        raise ValueError("route must be 'triangular' or 'neumann'")
    num, den = _psi_parts(genus0_coefficients(K))
    return num.divide_triangular(den) if route == "triangular" else num.divide_neumann(den)


@dataclass
class EllipticRow:
    k: int
    N1: int


def _timed(metrics: Dict[str, float], key: str, fn, *args):
    """fn(*args), its seconds stored as metrics[key]."""
    t0 = time.perf_counter()
    out = fn(*args)
    metrics[key] = time.perf_counter() - t0
    return out


def _elliptic_rows(A: Sequence[Fraction], metrics: Dict[str, float]) -> List[EllipticRow]:
    """N^(1)_1..N^(1)_K from the genus-0 coefficients A: psi by both division
    routes on one numerator and denominator, cross-checked; the seconds of
    each route and the bit height of psi go into metrics.

    Unlike the exact division of the genus-0 recursion, the integrality of
    N^(1)_k does catch a wrong genus-0 input: shifting any N_i, i <= 12, by
    -1, +1 or +2 raises IntegralityError."""
    num, den = _psi_parts(A)
    psi_a = _timed(metrics, "triangular_s", num.divide_triangular, den)
    psi_b = _timed(metrics, "neumann_s", num.divide_neumann, den)
    if psi_a != psi_b:
        raise ArithmeticError("the two series-division routes disagree")
    if psi_a.c0 != Fraction(-1, 8):
        raise ArithmeticError(f"constant term of psi is {psi_a.c0}, not -1/8")
    metrics["max_bits"] = psi_a.bit_height()
    rows = []
    f = 1                                   # (3k)!
    for k in range(1, len(A) + 1):
        f *= (3 * k - 2) * (3 * k - 1) * 3 * k
        val = psi_a[k] * f / k
        if val.denominator != 1:
            raise IntegralityError(f"N^(1)_{k} = {val} is not an integer")
        rows.append(EllipticRow(k=k, N1=int(val)))
    return rows


def elliptic_invariants(K: int) -> List[EllipticRow]:
    """Elliptic GW numbers N_k^{(1)} from
    psi = -1/8 + sum k N_k^{(1)} / (3k)! e^{kx}; integrality enforced and the
    two series-division routes cross-checked."""
    return _elliptic_rows(genus0_coefficients(K), {})


def _fit(A: Sequence[Fraction]) -> Tuple[float, float, float]:
    K = len(A)
    if K < 20:
        raise ValueError("asymptotic fit needs K >= 20")
    ks = range(K // 2, K + 1)
    # log A_k + 3.5 log k = k log a + log b
    ys = [math.log(A[k - 1].numerator) - math.log(A[k - 1].denominator) + 3.5 * math.log(k)
          for k in ks]
    slope, intercept = statistics.linear_regression(ks, ys)
    return math.exp(slope), math.exp(intercept), -slope


def asymptotic_fit(K: int) -> Tuple[float, float, float]:
    """Fit A_k ~ a^k b k^{-7/2} by least squares on log A_k over k in
    [K/2, K]; returns (a_hat, b_hat, R_hat) with R_hat = -log a_hat."""
    return _fit(genus0_coefficients(K))


def _ratio_test(A: Sequence[Fraction], x: float | None) -> bool:
    """Ratio test for sum A_k e^{kx}: every tail ratio A_{k+1}/A_k * e^x,
    K/2 <= k < K, must stay below 1.  x = None is the lower bound
    log(6/5) - 0.01 of the recursion-based estimate of the convergence
    domain."""
    if x is None:
        x = math.log(6 / 5) - 0.01
    ex = math.exp(x)
    K = len(A)
    for k in range(K // 2, K):
        if float(A[k] / A[k - 1]) * ex >= 1.0:
            return False
    return True


def truncated_potential(K: int) -> FrobeniusPotential:
    """F = 1/2 t1^2 t3 + 1/2 t1 t2^2 + sum_{k<=K} N_k/(3k-1)! t3^{3k-1} e^{k t2},
    with q = (0,1,2), r = (0,3,0), d = 2; exact checks on it run modulo
    e^{(K+1) t2}."""
    A = genus0_coefficients(K)
    terms = {
        ((2, 0, 1), (0, 0, 0)): QuadScalar(Fraction(1, 2)),
        ((1, 2, 0), (0, 0, 0)): QuadScalar(Fraction(1, 2)),
    }
    for k, a in enumerate(A, start=1):
        terms[((0, 0, 3 * k - 1), (0, k, 0))] = QuadScalar(a)
    F = ExpPolynomial(3, terms)
    return FrobeniusPotential(
        n=3, F=F, d=Fraction(2),
        q=(Fraction(0), Fraction(1), Fraction(2)),
        r=(Fraction(0), Fraction(3), Fraction(0)),
        name=f"CP2({K})", exp_truncation=(1, K))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _genus0_table(rows: Sequence[Genus0Row]) -> List[dict]:
    out = []
    prev = None
    for row in rows:
        out.append({
            "k": row.k,
            "N_k": row.N,
            "A_k": f"{float(row.A):.12e}",
            "ratio": "" if prev is None else f"{float(row.A / prev):.9f}",
        })
        prev = row.A
    return out


def nk_report(K: int) -> Tuple[dict, List[dict]]:
    """Results of `gw nk` (N_k by the ODE route, every k checked against
    Kontsevich's recursion, seconds per route, bit length of the largest
    N_k) and the genus-0 table rows (k, N_k, A_k, ratio)."""
    metrics: Dict[str, float] = {}
    N = _timed(metrics, "ode_s", genus0_numbers, K)
    M = _timed(metrics, "kontsevich_s", kontsevich_numbers, K)
    metrics["max_bits"] = max(n.bit_length() for n in N)
    rows = _genus0_rows(N)
    return {"N": {r.k: r.N for r in rows},
            "ode_pde_agree": N == M,
            "checked_range": [1, K],
            "metrics": metrics}, _genus0_table(rows)


def elliptic_report(K: int) -> Tuple[dict, List[dict]]:
    """Results of `gw elliptic` (N^(1)_k, seconds of the genus-0 route and of
    both division routes, bit height of psi) and the rows (k, N1_k)."""
    metrics: Dict[str, float] = {}
    A = _timed(metrics, "ode_s", genus0_coefficients, K)
    rows = _elliptic_rows(A, metrics)
    return {"N1": {r.k: r.N1 for r in rows},
            "psi_constant_term": "-1/8",
            "metrics": metrics}, [{"k": r.k, "N1_k": r.N1} for r in rows]


def fit_report(K: int) -> dict:
    """Results of `gw fit`: asymptotic fit, tail ratio and ratio test on one
    computation of A_1..A_K, with the seconds of the genus-0 route and of
    the fit and the bit length of the largest N_k."""
    metrics: Dict[str, float] = {}
    N = _timed(metrics, "ode_s", genus0_numbers, K)
    t0 = time.perf_counter()
    A = _coefficients(N)
    a_hat, b_hat, r_hat = _fit(A)
    ratio = float(A[-1] / A[-2])
    bound = _ratio_test(A, None)
    metrics["fit_s"] = time.perf_counter() - t0
    metrics["max_bits"] = max(n.bit_length() for n in N)
    return {"a_hat": a_hat, "b_hat": b_hat, "R_hat": r_hat,
            "tail_ratio": ratio, "ratio_test_at_log65": bound,
            "metrics": metrics}

