"""Exact multivariate polynomials with integer exponential weights.

An :class:`ExpPolynomial` in variables t1..tn is a finite sum of terms

    coeff * t1^a1 ... tn^an * exp(k1*t1 + ... + kn*tn)

with QuadScalar coefficients, integer powers a_i (negative powers are
allowed, giving a Laurent ring; potentials constructed from the catalog
always have a_i >= 0) and integer weights k_i.  This is exactly the ring
needed for WDVV free energies: polynomial solutions live in it, and so do
quantum-cohomology solutions, which are analytic perturbations of cubics by
terms t^a e^{k t}.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Sequence, Tuple

from .scalars import ONE, ZERO, QuadScalar, ScalarLike

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


class NotClosedFormError(ValueError):
    """An operation would leave the exp-polynomial ring."""


class ExpPolynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Key, QuadScalar] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        self.nvars = nvars
        self.terms: Dict[Key, QuadScalar] = {}
        if terms:
            for (pows, exps), c in terms.items():
                c = QuadScalar.coerce(c)
                if not c:
                    continue
                pows = tuple(int(p) for p in pows)
                exps = tuple(int(k) for k in exps)
                if len(pows) != nvars or len(exps) != nvars:
                    raise ValueError("term arity does not match nvars")
                self.terms[(pows, exps)] = c

    @staticmethod
    def _wrap(nvars: int, terms: Dict[Key, QuadScalar]) -> "ExpPolynomial":
        """Polynomial on normalized terms (QuadScalar, nonzero, int tuples of
        length nvars), taken as they are (no coercion or arity check)."""
        p = object.__new__(ExpPolynomial)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "ExpPolynomial":
        return ExpPolynomial(nvars)

    @staticmethod
    def constant(nvars: int, c: ScalarLike) -> "ExpPolynomial":
        z = (0,) * nvars
        return ExpPolynomial(nvars, {(z, z): QuadScalar.coerce(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "ExpPolynomial":
        pows = tuple(1 if j == i else 0 for j in range(nvars))
        return ExpPolynomial(nvars, {(pows, (0,) * nvars): ONE})

    @staticmethod
    def monomial(nvars: int, coeff: ScalarLike, pows: Sequence[int],
                 exps: Sequence[int] | None = None) -> "ExpPolynomial":
        exps = tuple(exps) if exps is not None else (0,) * nvars
        return ExpPolynomial(nvars, {(tuple(pows), exps): QuadScalar.coerce(coeff)})

    # -- ring structure ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, ExpPolynomial):
            other = ExpPolynomial.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return ExpPolynomial._wrap(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return ExpPolynomial._wrap(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ExpPolynomial):
            other = ExpPolynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ExpPolynomial):
            return self.scale(other)
        return dot(self.nvars, ((self, other),))[0]

    def scale(self, c: ScalarLike) -> "ExpPolynomial":
        c = QuadScalar.coerce(c)
        if not c:
            return ExpPolynomial.zero(self.nvars)
        return ExpPolynomial._wrap(self.nvars, {k: v * c for k, v in self.terms.items()})

    __rmul__ = scale

    def __pow__(self, k: int):
        if k < 0:
            return self.monomial_inverse() ** (-k)
        out = ExpPolynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def monomial_inverse(self) -> "ExpPolynomial":
        """Inverse of a single-term element (Laurent monomials are units)."""
        if len(self.terms) != 1:
            raise NotClosedFormError("only monomials are invertible in the ring")
        ((pows, exps), c), = self.terms.items()
        key = (tuple(-p for p in pows), tuple(-k for k in exps))
        return ExpPolynomial(self.nvars, {key: c.inverse()})

    # -- calculus ---------------------------------------------------------
    def diff(self, var: int) -> "ExpPolynomial":
        """d/dt_var; exp factors obey d(t^a e^{kt}) = (a t^{a-1} + k t^a) e^{kt}."""
        acc: Dict[Key, QuadScalar] = {}
        for (pows, exps), c in self.terms.items():
            a, k = pows[var], exps[var]
            if a != 0:
                p2 = list(pows)
                p2[var] -= 1
                key = (tuple(p2), exps)
                s = acc.get(key, ZERO) + c * a
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
            if k != 0:
                key = (pows, exps)
                s = acc.get(key, ZERO) + c * k
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return ExpPolynomial._wrap(self.nvars, acc)

    def integrate(self, var: int) -> "ExpPolynomial":
        """Definite integral from t_var = 0, staying in the ring.

        For k == 0 this is t^{a+1}/(a+1); for k != 0 integration by parts gives
        e^{kt} sum_j (-1)^(a-j) a!/j! t^j / k^{a-j+1}, minus its value at 0.
        Requires a >= 0 (and a != -1 when k == 0).
        """
        acc: Dict[Key, QuadScalar] = {}

        def add(key: Key, c: QuadScalar):
            s = acc.get(key, ZERO) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)

        for (pows, exps), c in self.terms.items():
            a, k = pows[var], exps[var]
            if k == 0:
                if a == -1:
                    raise NotClosedFormError("integral of 1/t is not in the ring")
                p2 = list(pows)
                p2[var] = a + 1
                add((tuple(p2), exps), c / (a + 1))
                continue
            if a < 0:
                raise NotClosedFormError("integral of t^{-n} e^{kt} is not in the ring")
            # antiderivative F(t); subtract F(0)
            fact = Fraction(1)
            for j in range(a, -1, -1):
                # coefficient of t^j e^{kt}: (-1)^{a-j} a!/j! / k^{a-j+1}
                coeff = c * (Fraction((-1) ** (a - j)) * fact / Fraction(k) ** (a - j + 1))
                p2 = list(pows)
                p2[var] = j
                add((tuple(p2), exps), coeff)
                if j == 0:
                    # value at 0 of this antiderivative: only the j == 0 term
                    # survives with e^0 = 1 and all other variables untouched
                    p0 = list(pows)
                    p0[var] = 0
                    e0 = list(exps)
                    e0[var] = 0
                    add((tuple(p0), tuple(e0)), -coeff)
                fact *= j if j > 0 else 1
        return ExpPolynomial._wrap(self.nvars, acc)

    # -- structure queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        z = (0,) * self.nvars
        return set(self.terms) <= {(z, z)}

    def constant_term(self) -> QuadScalar:
        z = (0,) * self.nvars
        return self.terms.get((z, z), ZERO)

    def has_exp(self) -> bool:
        return any(any(e) for (_, e) in self.terms)

    def total_degree(self) -> int:
        """Maximum sum of powers; exp factors not counted. Zero poly gives -1."""
        if not self.terms:
            return -1
        return max(sum(p) for (p, _) in self.terms)

    def polynomial_part(self) -> "ExpPolynomial":
        """Terms without exponential factors (the classical limit e^{kt} -> 0
        keeps only them, for k > 0 weights)."""
        return ExpPolynomial._wrap(
            self.nvars, {k: c for k, c in self.terms.items() if not any(k[1])})

    def truncate_exp(self, var: int, order: int) -> "ExpPolynomial":
        """Drop terms with exp weight in `var` above `order`."""
        return ExpPolynomial._wrap(
            self.nvars, {k: c for k, c in self.terms.items() if k[1][var] <= order})

    def coefficient(self, pows: Sequence[int], exps: Sequence[int] | None = None) -> QuadScalar:
        exps = tuple(exps) if exps is not None else (0,) * self.nvars
        return self.terms.get((tuple(pows), exps), ZERO)

    # -- evaluation and substitution ---------------------------------------
    def eval_complex(self, point: Sequence[complex]) -> complex:
        import cmath

        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = 0j
        for (pows, exps), c in self.terms.items():
            v = complex(c)
            for x, a in zip(point, pows):
                if a:
                    v *= complex(x) ** a
            arg = sum(complex(x) * k for x, k in zip(point, exps) if k)
            if arg:
                v *= cmath.exp(arg)
            total += v
        return total

    def substitute(self, mapping: Sequence["ExpPolynomial"]) -> "ExpPolynomial":
        """Polynomial substitution t_i -> mapping[i]; requires no exp factors
        in self.  Negative powers are allowed when the corresponding mapping
        entry is a monomial (a Laurent unit)."""
        if len(mapping) != self.nvars:
            raise ValueError("substitution arity mismatch")
        nv = mapping[0].nvars
        out = ExpPolynomial.zero(nv)
        cache: Dict[Tuple[int, int], ExpPolynomial] = {}

        def power(i: int, a: int) -> ExpPolynomial:
            key = (i, a)
            if key not in cache:
                cache[key] = mapping[i] ** a
            return cache[key]

        for (pows, exps), c in self.terms.items():
            if any(exps):
                raise NotClosedFormError("substitution into exponential factors")
            term = ExpPolynomial.constant(nv, c)
            for i, a in enumerate(pows):
                if a:
                    term = term * power(i, a)
            out = out + term
        return out

    # -- comparisons / presentation -----------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadScalar)):
            other = ExpPolynomial.constant(self.nvars, other)
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"ExpPolynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (pows, exps), c in sorted(self.terms.items()):
            factors = []
            cs = str(c)
            if ("+" in cs.lstrip("-")) or ("√" in cs):
                cs = f"({cs})"
            factors.append(cs)
            for i, a in enumerate(pows):
                if a == 1:
                    factors.append(f"t{i + 1}")
                elif a:
                    factors.append(f"t{i + 1}^{a}")
            earg = "+".join(
                (f"{k}t{i + 1}" if k != 1 else f"t{i + 1}") for i, k in enumerate(exps) if k
            )
            if earg:
                factors.append(f"e^({earg})")
            bits.append("*".join(factors))
        return " + ".join(bits)


def dot(nvars: int, pairs: Iterable[Tuple[ExpPolynomial, ExpPolynomial]],
        truncation: Tuple[int, int] | None = None) -> Tuple[ExpPolynomial, int, int]:
    """sum of f * g over `pairs`, accumulated in one dict.

    With truncation = (var, order), a term product whose exp weight in `var`
    is above `order` is skipped before it is formed, so the sum equals the
    full one followed by ``truncate_exp(var, order)``.  Returns the sum, the
    number of term products formed and the number skipped."""
    var, order = truncation if truncation is not None else (0, float("inf"))
    out: Dict[Key, QuadScalar] = {}
    get = out.get
    formed = skipped = 0
    for f, g in pairs:
        if f.nvars != nvars or g.nvars != nvars:
            raise ValueError("nvars mismatch")
        gterms = g.terms.items()
        formed += len(f.terms) * len(gterms)
        for (p1, e1), c1 in f.terms.items():
            room = order - e1[var]
            shift = any(p1) or any(e1)      # a constant term keeps g's keys
            for k2, c2 in gterms:
                p2, e2 = k2
                if e2[var] > room:
                    skipped += 1
                    continue
                key = (tuple(map(add, p1, p2)), tuple(map(add, e1, e2))) if shift else k2
                c = get(key)
                c = c1 * c2 if c is None else c + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
    return ExpPolynomial._wrap(nvars, out), formed - skipped, skipped


def poly_diff(p: ExpPolynomial, var: int) -> ExpPolynomial:
    if not 0 <= var < p.nvars:
        raise ValueError("variable index out of range")
    return p.diff(var)
