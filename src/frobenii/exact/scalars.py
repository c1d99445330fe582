"""Exact scalars: rationals and elements of a real quadratic field Q(sqrt(m)).

All exact coefficients in the package are either plain `fractions.Fraction`
or :class:`QuadScalar` values.  A QuadScalar stores (p + q*sqrt(m))/d as
four Python ints p, q, d, m in a unique normal form:

* d > 0 and gcd(p, q, d) == 1;
* m is a square-free integer, and q == 0 forces m == 1, so pure rationals
  always compare and hash consistently (and hash like the equal `Fraction`
  or `int`).

Ring operations run in integer arithmetic and skip the gcd when the
denominator is 1, which is the case on the algebraic integers of Z[sqrt m]
met by the braid action; elements of Z[(1+sqrt m)/2] carry d == 2.  Results
are built by a private constructor without validation.  The public
constructor ``QuadScalar(a, b, m)`` takes a rational a and b, checks that m is
square-free and enforces the re-wrap rule.  ``a`` and ``b`` are read-only
`Fraction` views of the rational and irrational parts.

Values from different quadratic fields never mix: arithmetic between
sqrt(2)- and sqrt(5)-valued scalars raises :class:`DiscriminantMismatch`
instead of silently lifting to a composite field.  This module owns that
rule as `_field_of`, which arithmetic, `ExactMatrix`, `StokesMatrix` and the
potential JSON all call.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

Rational = Fraction

ScalarLike = Union["QuadScalar", Fraction, int]


class DiscriminantMismatch(ValueError):
    """Arithmetic between incompatible quadratic fields."""


def _square_free(m: int) -> bool:
    if m == 0:
        return False
    m = abs(m)
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return True


class QuadScalar:
    """(p + q*sqrt(m))/d with integers p, q, d > 0, gcd(p, q, d) == 1 and m a
    square-free integer; m == 1 encodes a pure rational (q is then 0)."""

    __slots__ = ("p", "q", "d", "m")

    def __init__(self, a: ScalarLike = 0, b: ScalarLike = 0, m: int = 1):
        if isinstance(a, QuadScalar):
            if b != 0 or (m != 1 and m != a.m):
                raise ValueError("cannot re-wrap a QuadScalar with extra parts")
            self.p, self.q, self.d, self.m = a.p, a.q, a.d, a.m
            return
        a = Fraction(a)
        b = Fraction(b)
        m = int(m)
        if b == 0:
            m = 1
        elif m == 1:
            a, b = a + b, Fraction(0)
        if not _square_free(m):
            raise ValueError(f"discriminant {m} is not square-free")
        # over the lcm of the two denominators gcd(p, q, d) is already 1
        d = lcm(a.denominator, b.denominator)
        self.p = a.numerator * (d // a.denominator)
        self.q = b.numerator * (d // b.denominator)
        self.d = d
        self.m = m

    # -- helpers -------------------------------------------------------
    @property
    def a(self) -> Fraction:
        """Rational part p/d."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """Coefficient q/d of sqrt(m)."""
        return Fraction(self.q, self.d)

    @staticmethod
    def coerce(x: ScalarLike) -> "QuadScalar":
        t = type(x)
        if t is QuadScalar:
            return x
        if t is int:
            return _make(x, 0, 1, 1)
        if t is Fraction:
            return _make(x.numerator, 0, x.denominator, 1)
        return QuadScalar(x)

    def is_rational(self) -> bool:
        return self.q == 0

    # -- ring operations -----------------------------------------------
    def __add__(self, other):
        if type(other) is not QuadScalar:
            other = QuadScalar.coerce(other)
        m = self.m if self.m == other.m else _field_of((self, other))
        d, od = self.d, other.d
        if d == od:
            p, q = self.p + other.p, self.q + other.q
            if d == 1:
                return _make(p, q, 1, m if q else 1)
        else:
            p, q, d = self.p * od + other.p * d, self.q * od + other.q * d, d * od
        return _norm(p, q, d, m)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.p, -self.q, self.d, self.m)

    def __sub__(self, other):
        return self + (-QuadScalar.coerce(other))

    def __rsub__(self, other):
        return QuadScalar.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not QuadScalar:
            other = QuadScalar.coerce(other)
        m = self.m if self.m == other.m else _field_of((self, other))
        sp, sq, op, oq = self.p, self.q, other.p, other.q
        p = sp * op + sq * oq * m
        q = sp * oq + sq * op
        d = self.d * other.d
        if d == 1:
            return _make(p, q, 1, m if q else 1)
        return _norm(p, q, d, m)

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        p, q, d, m = self.p, self.q, self.d, self.m
        n = p * p - q * q * m
        if n == 0:
            raise ZeroDivisionError("QuadScalar is zero or a zero divisor")
        return _norm(d * p, -d * q, n, m)

    def __truediv__(self, other):
        return self * QuadScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QuadScalar.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates ------------------------------------------------------
    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __eq__(self, other):
        if type(other) is not QuadScalar:
            try:
                other = QuadScalar.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self.p == other.p and self.q == other.q and self.d == other.d
                and self.m == other.m)

    def __hash__(self):
        if self.q == 0:
            return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))
        return hash((self.p, self.q, self.d, self.m))

    def lex_nonneg(self) -> bool:
        """(a, b) >= (0, 0) lexicographically; sign-quotient normal forms use this."""
        if self.p:
            return self.p > 0
        return self.q >= 0

    # -- conversions -----------------------------------------------------
    def __float__(self):
        if self.m < 0:
            raise ValueError("negative discriminant has no real value")
        return self.p / self.d + (self.q / self.d) * float(self.m) ** 0.5

    def __complex__(self):
        if self.q == 0:
            return complex(self.p / self.d)
        root = complex(abs(self.m)) ** 0.5
        if self.m < 0:
            root = root * 1j
        return complex(self.p / self.d) + complex(self.q / self.d) * root

    def __repr__(self):
        return f"QuadScalar({self})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        s = "" if a == 0 else str(a)
        bpart = f"{b}√{self.m}"
        if b > 0 and s:
            return f"{s}+{bpart}"
        return f"{s}{bpart}"


def _field_of(values: Iterable[QuadScalar], stated: Optional[int] = None) -> int:
    """The one discriminant m of the irrational values (1 when all are
    rational); values from two fields, or m != stated, raise
    DiscriminantMismatch."""
    m = 1
    for c in values:
        if c.m != m and c.q:
            if m != 1:
                raise DiscriminantMismatch(f"sqrt({m}) vs sqrt({c.m})")
            m = c.m
    if stated is not None and stated != m:
        raise DiscriminantMismatch(f"stated sqrt({stated}) vs sqrt({m})")
    return m


_new = object.__new__


def _make(p: int, q: int, d: int, m: int) -> QuadScalar:
    """QuadScalar from fields already in normal form (no checks)."""
    x = _new(QuadScalar)
    x.p = p
    x.q = q
    x.d = d
    x.m = m
    return x


def _norm(p: int, q: int, d: int, m: int) -> QuadScalar:
    """QuadScalar (p + q*sqrt(m))/d, d != 0, brought to normal form."""
    if d < 0:
        p, q, d = -p, -q, -d
    if q == 0:
        m = 1
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    return _make(p, q, d, m)


_ROOT_RE = re.compile(r"(?:√|sqrt)\s*\(?\s*(-?\d+)\s*\)?\s*$")


def parse_quad(text: str) -> QuadScalar:
    """Parse "a", "a+b√m", "b√m" (also 'sqrt' spelled out)."""
    text = text.strip()
    root = _ROOT_RE.search(text)
    if root is None:
        return QuadScalar(Fraction(text))
    m = int(root.group(1))
    head = text[: root.start()].strip()
    # split head into rational part `a` and coefficient `b` of the root
    head = head.rstrip("*").strip()
    if not head or head in "+-":
        a, b = Fraction(0), Fraction((head or "") + "1")
    elif head[-1] in "+-":
        a, b = Fraction(head[:-1]), Fraction(head[-1] + "1")
    else:
        mobj = re.search(r"([+-]?\d+(?:/\d+)?)$", head.replace(" ", ""))
        if mobj is None:
            raise ValueError(f"cannot parse quadratic scalar: {text!r}")
        b = Fraction(mobj.group(1))
        rest = head.replace(" ", "")[: mobj.start()]
        a = Fraction(rest) if rest else Fraction(0)
    return QuadScalar(a, b, m)


ZERO = _make(0, 0, 1, 1)
ONE = _make(1, 0, 1, 1)
