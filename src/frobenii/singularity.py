"""Landau-Ginzburg construction for the one-variable simple singularity
x^{n+1}: residue pairing on the versal deformation, flat coordinates and
reconstruction of the Frobenius potential.

The versal family is f_s(x) = x^{n+1} + s_1 + s_2 x + ... + s_n x^{n-1}.
The metric is eta_ij(s) = -(n+1) res_{x=inf} p_i p_j / f_s'(x) dx with
p_i = x^{i-1}, normalized so that eta_{1,n} = 1 (for n = 3 this is the
printed "-4 res" matrix [[0,0,1],[0,1,0],[1,0,-s3/2]]).  The flat
coordinates come from the residue formula
t_a = -(n+1)/(n+1-a) res_inf f_s^{(n+1-a)/(n+1)} dx, and the potential from
c_abc = -(n+1) res_inf d_a P d_b P d_c P / d_x P.  Every construction is
exact and desk-scale: 1 <= n <= MAX_AN.

The x-polynomials are coefficient lists over ExpPolynomial in `exact.upoly`;
the leading coefficient n+1 of f' is divided out once, so every residue is
read from the top-down expansion by a monic divisor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .exact import upoly
from .exact.exppoly import ExpPolynomial
from .exact.upoly import residue_at_infinity
from .frobenius import (FrobeniusPotential, _potential_from_gradient,
                        _potential_from_hessian, _symmetric_fill)

# Largest n of the A_n constructions (metric, flat coordinates, potential).
# Budget: a_n_structure(n) plus check_wdvv1 of its potential within 0.5 s of
# process time.  n = 8 takes 0.35-0.49 s and n = 9 takes 1.1 s (fresh
# interpreter, Python 3.11, 2-vCPU Xeon VM).
MAX_AN = 8


def _versal(n: int) -> List[ExpPolynomial]:
    """f_s = x^{n+1} + sum s_i x^{i-1} in variables s_1..s_n, as its list of
    x-coefficients."""
    f = [ExpPolynomial.variable(n, i) for i in range(n)]      # s_1..s_n
    f.append(ExpPolynomial.zero(n))                           # x^n
    f.append(ExpPolynomial.constant(n, 1))                    # x^{n+1}
    return f


def _monic_derivative(f: List[ExpPolynomial]) -> List[ExpPolynomial]:
    """f'/(n+1) for f of degree n+1 with leading coefficient 1, so that
    -(n+1) res_inf g/f' = -res_inf g/(f'/(n+1)) with a monic divisor."""
    inv = Fraction(1, len(f) - 1)
    return [c.scale(inv) for c in upoly.deriv(f)]


def a_n_metric(n: int) -> List[List[ExpPolynomial]]:
    """eta_ij(s) = -(n+1) res_inf [x^{i-1} x^{j-1} / f_s'] symbolically in
    s_1..s_n (desk scale n <= MAX_AN)."""
    if not 1 <= n <= MAX_AN:
        raise ValueError(f"a_n_metric is desk-scale: 1 <= n <= {MAX_AN}")
    fp = _monic_derivative(_versal(n))
    zero = ExpPolynomial.zero(n)
    eta = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mono = [zero] * (i + j + 1)
            mono[i + j] = ExpPolynomial.constant(n, 1)
            val = -residue_at_infinity(mono, fp)
            eta[i][j] = val
            eta[j][i] = val
    return eta


@lru_cache(maxsize=None)
def flat_coordinates(n: int) -> Tuple[ExpPolynomial, ...]:
    """Substitution s_i(t) making the residue metric constant.

    The flat coordinates are t_a = -(n+1)/(n+1-a) res_inf f_s^{p} dx with
    p = (n+1-a)/(n+1).  With y = 1/x and u = sum_i s_i y^{n+2-i},
    f_s^p = x^{n+1-a} (1+u)^p, so t_a is (n+1)/(n+1-a) times the y^{n+2-a}
    coefficient of sum_k binom(p, k) u^k, i.e. t_a = s_a + (a polynomial in
    s_{a+1}..s_n).  This triangular map is inverted from a = n down to 1.
    Memoized on n; the shared result is a tuple."""
    if not 1 <= n <= MAX_AN:
        raise ValueError(f"flat_coordinates is desk-scale: 1 <= n <= {MAX_AN}")
    top = n + 2  # y-series are truncated below y^{n+2}
    zero = ExpPolynomial.zero(n)
    u = [zero] * top
    for i in range(n):
        u[n + 1 - i] = ExpPolynomial.variable(n, i)
    # powers u^k, k >= 2, while they still reach below y^{n+2}
    powers = []
    uk = upoly.mul(u, u)[:top]
    while any(uk):
        powers.append(uk)
        uk = upoly.mul(uk, u)[:top]
    subs = [ExpPolynomial.variable(n, i) for i in range(n)]
    for a in range(n, 0, -1):
        p = Fraction(n + 1 - a, n + 1)
        binom = p
        nonlinear = zero
        for k, uk in enumerate(powers, start=2):
            binom = binom * (p - k + 1) / k
            nonlinear = nonlinear + uk[n + 2 - a].scale(binom)
        # t_a = s_a + (n+1)/(n+1-a) nonlinear(s_{a+1..n})
        subs[a - 1] = subs[a - 1] - nonlinear.scale(1 / p).substitute(subs)
    return tuple(subs)


def a_n_structure(n: int) -> Tuple[Tuple[Tuple[Tuple[ExpPolynomial, ...], ...], ...],
                                   FrobeniusPotential]:
    """c_abc(t) = -(n+1) res_inf [d_a P d_b P d_c P / d_x P] with
    P_t(x) = f_{s(t)}(x), integrated exactly to the Frobenius potential
    (no quadratic part).  The charge is d = (n-1)/(n+1) with
    q_a = (a-1)/(n+1).  c_abc is returned as nested tuples."""
    subs = flat_coordinates(n)
    P = [coef.substitute(subs) for coef in _versal(n)]  # x-coefficients, in t now
    Pp = _monic_derivative(P)
    dP = [[c.diff(a) for c in P] for a in range(n)]
    c_low = _symmetric_fill(
        n, lambda a, b: upoly.mul(dP[a], dP[b]),
        lambda ab, g: -residue_at_infinity(upoly.mul(ab, dP[g]), Pp))
    # integrate c to F: plane a is the Hessian of d_a F, the d_a F the gradient of F
    F = _potential_from_gradient([_potential_from_hessian(plane) for plane in c_low])
    # strip any quadratic-or-lower part
    F = ExpPolynomial(n, {key: c for key, c in F.terms.items() if sum(key[0]) >= 3})
    d = Fraction(n - 1, n + 1)
    q = tuple(Fraction(a, n + 1) for a in range(n))
    pot = FrobeniusPotential(n=n, F=F, d=d, q=q,
                             r=tuple(Fraction(0) for _ in range(n)),
                             name=f"A{n}")
    return c_low, pot
