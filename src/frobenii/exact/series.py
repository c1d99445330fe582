"""Truncated exponential series c0 + sum_{k=1..K} a_k e^{kx} with exact
rational coefficients.

These carry the CP2 free-energy building blocks (phi, psi and friends).
Multiplication truncates beyond e^{Kx}; division is implemented twice, by a
triangular solve and by a Neumann-series reciprocal, so the two routes can
cross-check each other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence


class GWSeries:
    __slots__ = ("order", "coeffs", "c0")

    def __init__(self, order: int, coeffs: Sequence[Fraction], c0: Fraction | int = 0):
        if order < 1:
            raise ValueError("order must be positive")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != order:
            raise ValueError("length of coeffs must equal order")
        self.order = order
        self.coeffs: List[Fraction] = coeffs
        self.c0 = Fraction(c0)

    @staticmethod
    def zero(order: int) -> "GWSeries":
        return GWSeries(order, [Fraction(0)] * order)

    def __getitem__(self, k: int) -> Fraction:
        """Coefficient of e^{kx}; k = 0 gives the constant term."""
        if k == 0:
            return self.c0
        if 1 <= k <= self.order:
            return self.coeffs[k - 1]
        return Fraction(0)

    def _check(self, other: "GWSeries"):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return GWSeries(self.order, self.coeffs, self.c0 + other)
        self._check(other)
        return GWSeries(self.order,
                        [a + b for a, b in zip(self.coeffs, other.coeffs)],
                        self.c0 + other.c0)

    __radd__ = __add__

    def __neg__(self):
        return GWSeries(self.order, [-a for a in self.coeffs], -self.c0)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return GWSeries(self.order, [a * q for a in self.coeffs], self.c0 * q)
        self._check(other)
        K = self.order
        out = [Fraction(0)] * K
        for k in range(1, K + 1):
            s = self.c0 * other[k] + other.c0 * self[k]
            for i in range(1, k):
                s += self[i] * other[k - i]
            out[k - 1] = s
        return GWSeries(K, out, self.c0 * other.c0)

    __rmul__ = __mul__

    def diff(self) -> "GWSeries":
        """d/dx: sum a_k e^{kx} -> sum k a_k e^{kx}."""
        return GWSeries(self.order, [k * a for k, a in enumerate(self.coeffs, start=1)])

    def divide_triangular(self, den: "GWSeries") -> "GWSeries":
        """self / den by solving the triangular convolution system."""
        self._check(den)
        if den.c0 == 0:
            raise ZeroDivisionError("denominator has zero constant term")
        K = self.order
        q0 = self.c0 / den.c0
        out = [Fraction(0)] * K
        for k in range(1, K + 1):
            s = self[k] - q0 * den[k]
            for i in range(1, k):
                s -= out[i - 1] * den[k - i]
            out[k - 1] = s / den.c0
        return GWSeries(K, out, q0)

    def divide_neumann(self, den: "GWSeries") -> "GWSeries":
        """self / den via den^{-1} = (1/c0) sum_m (-(den-c0)/c0)^m (finite sum)."""
        self._check(den)
        if den.c0 == 0:
            raise ZeroDivisionError("denominator has zero constant term")
        K = self.order
        tail = GWSeries(K, den.coeffs)            # den - c0, no constant term
        inv = GWSeries(K, [Fraction(0)] * K, Fraction(1, 1) / den.c0)
        power = GWSeries(K, [Fraction(0)] * K, 1)  # (-(tail)/c0)^m
        step = tail * Fraction(-1, 1) * (Fraction(1) / den.c0)
        for _ in range(K):
            power = power * step
            inv = inv + power * (Fraction(1) / den.c0)
        return self * inv

    def __truediv__(self, other):
        return self.divide_triangular(other)

    def is_zero(self) -> bool:
        return self.c0 == 0 and all(a == 0 for a in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GWSeries):
            return NotImplemented
        return self.order == other.order and self.c0 == other.c0 and self.coeffs == other.coeffs

    def __repr__(self):
        bits = [] if self.c0 == 0 else [str(self.c0)]
        bits += [f"{a}*e^{k}x" for k, a in enumerate(self.coeffs, 1) if a != 0]
        return "GWSeries(" + (" + ".join(bits) or "0") + f"; K={self.order})"

