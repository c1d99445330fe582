"""Univariate polynomials over an exact ring.

A polynomial is a list of coefficients from low to high degree.  The
coefficients are int, Fraction, QuadScalar or ExpPolynomial; each of these
tests false exactly when it is zero, and c * 0 is the zero of its ring.

Division runs top-down by a monic divisor, so it takes no inverse in the
coefficient ring: `expand` gives the coefficients of p/q at infinity, whose
polynomial part is the quotient and whose x^-1 coefficient is the residue.
Only `monic` inverts a leading coefficient (as Fraction(1) / c), which the
gcd and Yun's square-free split need; their coefficients form a field
(Fraction or QuadScalar).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Poly = List


def trim(p: Sequence) -> Poly:
    """p without trailing zero coefficients."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def mul(a: Sequence, b: Sequence) -> Poly:
    """a * b, skipping zero coefficients."""
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def deriv(p: Sequence) -> Poly:
    """d/dx p."""
    return [p[k] * k for k in range(1, len(p))]


def sub(p: Sequence, q: Sequence) -> Poly:
    """p - q, trimmed."""
    out = [a - b for a, b in zip(p, q)]
    out += p[len(q):] if len(p) > len(q) else [-c for c in q[len(p):]]
    return trim(out)


def monic(p: Sequence) -> Poly:
    """p over its leading coefficient (p nonzero and trimmed)."""
    lead = p[-1]
    if lead == 1:
        return list(p)
    inv = Fraction(1) / lead
    return [c * inv for c in p]


def expand(p: Sequence, q: Sequence, count: int) -> Poly:
    """The first `count` coefficients c_0, c_1, ... of p/q expanded at
    infinity, p/q = sum_k c_k x^(deg p - deg q - k), for trimmed p and q
    with q monic: c_k = p_(deg p - k) - sum_(1 <= i <= k) q_(deg q - i) c_(k - i).
    """
    dp, dq = len(p) - 1, len(q) - 1
    zero = q[-1] * 0
    out: Poly = []
    for k in range(count):
        acc = p[dp - k] if k <= dp else zero
        for i in range(1, min(k, dq) + 1):
            if q[dq - i] and out[k - i]:
                acc = acc - q[dq - i] * out[k - i]
        out.append(acc)
    return out


def quotient(p: Sequence, q: Sequence) -> Poly:
    """The polynomial part of p/q, q monic: the top of its expansion."""
    return expand(p, q, len(p) - len(q) + 1)[::-1]


def remainder(p: Sequence, q: Sequence) -> Poly:
    """p mod q, q monic, trimmed."""
    if len(p) < len(q):
        return trim(p)
    return sub(p, mul(q, quotient(p, q)))


def residue_at_infinity(p: Sequence, q: Sequence):
    """res_{x=inf} p(x)/q(x) dx, oriented so that res_inf dx/x = -1: minus
    the x^-1 coefficient of the expansion of p/q.  A q that is not monic is
    divided by its leading coefficient first (see `monic`)."""
    p, q = trim(p), trim(q)
    if not q:
        raise ZeroDivisionError("zero denominator")
    want = len(p) - len(q) + 1          # the index of x^-1 in the expansion
    if want < 0:
        return q[-1] * 0
    lead = q[-1]
    c = expand(p, monic(q), want + 1)[want]
    return -c if lead == 1 else -c * (Fraction(1) / lead)


def gcd(p: Sequence, q: Sequence) -> Poly:
    """Monic gcd of p and q over a field (p nonzero)."""
    p, q = trim(p), trim(q)
    while q:
        q = monic(q)
        p, q = q, remainder(p, q)
    return monic(p)


def square_free(f: Sequence) -> List[Tuple[Poly, int]]:
    """Yun's decomposition over a field: f = lc * prod a_i^i with the a_i
    monic, square-free and pairwise coprime; returns the (a_i, i) with
    deg a_i > 0."""
    f = trim(f)
    df = deriv(f)
    a = gcd(f, df)
    b = quotient(f, a)
    d = sub(quotient(df, a), deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = quotient(b, a)
        d = sub(quotient(d, a), deriv(b))
        i += 1
    return out
