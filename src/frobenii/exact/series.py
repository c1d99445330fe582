"""Truncated exponential series c0 + sum_{k=1..K} a_k e^{kx} with exact
rational coefficients, stored as integers over one common denominator.

These carry the CP2 free-energy building blocks (phi, psi and friends).
A series is held in canonical form: integer numerators of a_1..a_K and of
c0 over one positive denominator, with gcd 1 across all of them, so equal
series have equal fields.  Products are integer convolutions reduced by one
gcd chain and truncate beyond e^{Kx}.  Division is implemented twice, by a
triangular solve and by a Neumann-series reciprocal, so the two routes can
cross-check each other.  The Neumann sum is formed by Newton doubling: each
step doubles the order to which the reciprocal is exact and multiplies only
to that order (2, 4, 8, ... up to K).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import List, Sequence


def _first_nonzero(v: List[int]) -> int:
    """Index of the first nonzero entry of v, len(v) if there is none."""
    for i, x in enumerate(v):
        if x:
            return i
    return len(v)


class GWSeries:
    __slots__ = ("order", "_num", "_c0", "_den")

    def __init__(self, order: int, coeffs: Sequence[Fraction | int], c0: Fraction | int = 0):
        if order < 1:
            raise ValueError("order must be positive")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != order:
            raise ValueError("length of coeffs must equal order")
        c0 = Fraction(c0)
        # over the lcm of reduced denominators the numerators are coprime to it
        den = math.lcm(c0.denominator, *(c.denominator for c in coeffs))
        self.order = order
        self._num = [c.numerator * (den // c.denominator) for c in coeffs]
        self._c0 = c0.numerator * (den // c0.denominator)
        self._den = den

    @classmethod
    def _wrap(cls, order: int, num: List[int], c0: int, den: int) -> "GWSeries":
        """Series on fields already in canonical form, taken as they are."""
        s = object.__new__(cls)
        s.order = order
        s._num = num
        s._c0 = c0
        s._den = den
        return s

    @classmethod
    def _make(cls, order: int, num: List[int], c0: int, den: int) -> "GWSeries":
        """Series num/den, c0/den (den != 0) brought to canonical form by one
        gcd chain over the denominator, c0 and the numerators."""
        if den < 0:
            num, c0, den = [-x for x in num], -c0, -den
        g = math.gcd(den, c0)
        for x in num:
            if g == 1:
                break
            g = math.gcd(g, x)
        if g > 1:
            num, c0, den = [x // g for x in num], c0 // g, den // g
        return cls._wrap(order, num, c0, den)

    @staticmethod
    def zero(order: int) -> "GWSeries":
        return GWSeries._wrap(order, [0] * order, 0, 1)

    @property
    def c0(self) -> Fraction:
        return Fraction(self._c0, self._den)

    @property
    def coeffs(self) -> List[Fraction]:
        """a_1..a_K as reduced Fractions (a new list on every access)."""
        d = self._den
        return [Fraction(x, d) for x in self._num]

    def __getitem__(self, k: int) -> Fraction:
        """Coefficient of e^{kx}; k = 0 gives the constant term."""
        if k == 0:
            return self.c0
        if 1 <= k <= self.order:
            return Fraction(self._num[k - 1], self._den)
        return Fraction(0)

    def bit_height(self) -> int:
        """Bit length of the largest of |numerators|, |c0 numerator| and the
        denominator: the size of the integers the series carries."""
        return max(self._den.bit_length(), abs(self._c0).bit_length(),
                   max((abs(x).bit_length() for x in self._num), default=0))

    def _check(self, other: "GWSeries"):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q.denominator == 1:
                # c0 + p*den keeps the gcd with den and the numerators at 1
                return self._wrap(self.order, self._num,
                                  self._c0 + q.numerator * self._den, self._den)
            p, r = q.numerator, q.denominator
            return self._make(self.order, [x * r for x in self._num],
                              self._c0 * r + p * self._den, self._den * r)
        if not isinstance(other, GWSeries):
            return NotImplemented
        self._check(other)
        da, db = self._den, other._den
        if da == db:
            return self._make(self.order, [a + b for a, b in zip(self._num, other._num)],
                              self._c0 + other._c0, da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return self._make(self.order,
                          [a * fa + b * fb for a, b in zip(self._num, other._num)],
                          self._c0 * fa + other._c0 * fb, da * fa)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self.order, [-a for a in self._num], -self._c0, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        if not isinstance(other, GWSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            p, r = q.numerator, q.denominator
            if p == 0:
                return GWSeries.zero(self.order)
            return self._make(self.order, [a * p for a in self._num],
                              self._c0 * p, self._den * r)
        if not isinstance(other, GWSeries):
            return NotImplemented
        self._check(other)
        K = self.order
        a, b = self._num, other._num
        a0, b0 = self._c0, other._c0
        rb = b[::-1]
        la, lb = _first_nonzero(a), _first_nonzero(b)
        out = [0] * K
        for k in range(1, K + 1):
            # sum_{i=1}^{k-1} a_i b_{k-i}, over the nonzero stretches only
            hi = k - 1 - lb
            s = sum(map(mul, a[la:hi], rb[K - k + 1 + la:K - lb])) if hi > la else 0
            if a0:
                s += a0 * b[k - 1]
            if b0:
                s += b0 * a[k - 1]
            out[k - 1] = s
        return self._make(K, out, a0 * b0, self._den * other._den)

    __rmul__ = __mul__

    def diff(self) -> "GWSeries":
        """d/dx: sum a_k e^{kx} -> sum k a_k e^{kx}."""
        return self._make(self.order, [k * a for k, a in enumerate(self._num, start=1)],
                          0, self._den)

    def divide_triangular(self, den: "GWSeries") -> "GWSeries":
        """self / den by solving the triangular convolution system.

        With self = S/s and den = D/d on integer vectors, self/den =
        (d/s) S/D.  The quotient R = S/D is solved for k = 0..K over one
        running common denominator E of R_0..R_k, enlarged only by the new
        factor of each step, so no power of D_0 is carried."""
        self._check(den)
        if den._c0 == 0:
            raise ZeroDivisionError("denominator has zero constant term")
        K = self.order
        S = [self._c0] + self._num
        D = [den._c0] + den._num
        d0 = D[0]
        m = abs(d0)
        rd = D[:0:-1]                       # D_K..D_1
        y: List[int] = []                   # y_i = R_i * E
        E = 1
        for k in range(K + 1):
            t = S[k] * E - sum(map(mul, y, rd[K - k:]))
            h = E * m // math.gcd(t, E * m)         # denominator of R_k
            f = h // math.gcd(E, h)                  # lcm(E, h) / E
            if f != 1:
                y = [v * f for v in y]
                E *= f
            y.append(t * f // d0)
        return self._make(K, [v * den._den for v in y[1:]], y[0] * den._den,
                          E * self._den)

    def divide_neumann(self, den: "GWSeries") -> "GWSeries":
        """self / den via den^{-1} = (1/c0) sum_{m<=K} step^m, step =
        1 - r, r = den/c0, summed by Newton doubling at growing order.

        step has no constant term, so step^m starts at e^{mx} and the sum
        ends at m = K.  Let acc, of order p, be sum_{m<=p} step^m truncated
        beyond e^{px}.  1 - r sum_{m<=p} step^m is exactly step^(p+1), so
        the residual e = 1 - r acc starts at e^{(p+1)x}, and acc (2 - r acc)
        = acc (1 + e) has residual e^2, which starts at e^{(2p+2)x}.  Each
        doubling therefore needs r and acc only to order q = min(2p, K) and
        multiplies at that order, not at K."""
        self._check(den)
        if den._c0 == 0:
            raise ZeroDivisionError("denominator has zero constant term")
        K = self.order
        c0 = den.c0
        r = den * (1 / c0)
        acc = (2 - r)._at_order(1)          # 1 + step mod e^{2x}
        p = 1
        while p < K:
            p = min(2 * p, K)
            acc = acc._at_order(p)
            acc = acc * (2 - r._at_order(p) * acc)
        return self * (acc * (1 / c0))

    def _at_order(self, q: int) -> "GWSeries":
        """The series truncated beyond e^{qx}, or zero-extended to order q."""
        if q >= self.order:
            return self._wrap(q, self._num + [0] * (q - self.order), self._c0, self._den)
        return self._make(q, self._num[:q], self._c0, self._den)

    def __truediv__(self, other):
        return self.divide_triangular(other)

    def is_zero(self) -> bool:
        return self._c0 == 0 and not any(self._num)

    def __eq__(self, other):
        if not isinstance(other, GWSeries):
            return NotImplemented
        return (self.order == other.order and self._den == other._den
                and self._c0 == other._c0 and self._num == other._num)

    def __repr__(self):
        bits = [] if self._c0 == 0 else [str(self.c0)]
        bits += [f"{a}*e^{k}x" for k, a in enumerate(self.coeffs, 1) if a != 0]
        return "GWSeries(" + (" + ".join(bits) or "0") + f"; K={self.order})"
