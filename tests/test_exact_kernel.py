"""Kernel: scalars, exp-polynomials, series, exact/numeric linear algebra."""

import random
from fractions import Fraction as F
from itertools import permutations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobenii.exact import (
    DiscriminantMismatch, ExactMatrix, ExpPolynomial, GWSeries, QuadScalar,
    SingularMatrixError, eigen_small, exact_solve, parse_quad,
    poly_diff, sort_spectrum,
)
from frobenii.exact.exppoly import dot
from frobenii.exact.linalg import _divide, polynomial_roots

# ---------------------------------------------------------------------------
# QuadScalar
# ---------------------------------------------------------------------------

def test_quad_arithmetic_golden_ratio():
    phi = QuadScalar(F(1, 2), F(1, 2), 5)
    assert phi * phi == phi + 1          # x^2 = x + 1
    assert phi.inverse() == phi - 1
    assert (phi / phi) == QuadScalar(1)


def test_quad_mixing_discriminants_rejected():
    a = QuadScalar(0, 1, 2)
    b = QuadScalar(0, 1, 5)
    with pytest.raises(DiscriminantMismatch):
        _ = a + b
    # pure rationals combine with anything
    assert QuadScalar(F(1, 3)) + a == QuadScalar(F(1, 3), 1, 2)


def test_quad_normalization_and_hash():
    assert QuadScalar(2, 0, 7) == QuadScalar(2)
    assert hash(QuadScalar(2, 0, 7)) == hash(QuadScalar(2, 0, 3))


def test_parse_quad_roundtrip():
    vals = [QuadScalar(F(3, 4)), QuadScalar(-2), QuadScalar(0, 1, 2),
            QuadScalar(0, -1, 2), QuadScalar(F(1, 2), F(1, 2), 5),
            QuadScalar(F(-1, 2), F(1, 2), 5), QuadScalar(2, -3, 3)]
    for v in vals:
        assert parse_quad(str(v)) == v


def test_lex_nonneg_tie_break():
    assert QuadScalar(0, 1, 5).lex_nonneg()
    assert not QuadScalar(0, -1, 5).lex_nonneg()
    assert QuadScalar(0).lex_nonneg()


# Reference model: (a, b, m) with Fraction a, b stands for a + b*sqrt(m);
# m == 1 carries b == 0.

def _ref_mul(x, y):
    (a1, b1, m), (a2, b2, _) = x, y
    return a1 * a2 + b1 * b2 * m, a1 * b2 + a2 * b1, m


def _ref_inverse(x):
    a, b, m = x
    n = a * a - b * b * m
    return a / n, -b / n, m


def _ref_pow(x, k):
    out = (F(1), F(0), x[2])
    for _ in range(abs(k)):
        out = _ref_mul(out, x)
    return _ref_inverse(out) if k < 0 else out


def _matches(q, ref):
    a, b, m = ref
    return q.a == a and q.b == b and q.m == (m if b else 1)


_small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def quad_pairs(draw):
    """Two values of one field Q, Q(sqrt 2) or Q(sqrt 5), with their models."""
    m = draw(st.sampled_from([1, 2, 5]))
    out = []
    for _ in range(2):
        a = draw(_small_fractions)
        b = F(0) if m == 1 else draw(_small_fractions)
        out.append((QuadScalar(a, b, m), (a, b, m)))
    return out


def _normal_form(q):
    return q.d > 0 and gcd(q.p, q.q, q.d) == 1 and (q.q != 0 or q.m == 1)


@settings(max_examples=200, deadline=None)
@given(quad_pairs(), st.integers(-4, 4))
def test_quad_ring_ops_match_fraction_model(pair, k):
    (x, rx), (y, ry) = pair
    m = rx[2]
    results = [
        (x + y, (rx[0] + ry[0], rx[1] + ry[1], m)),
        (x - y, (rx[0] - ry[0], rx[1] - ry[1], m)),
        (x * y, _ref_mul(rx, ry)),
        (-x, (-rx[0], -rx[1], m)),
        (x + 3, (rx[0] + 3, rx[1], m)),
        (F(1, 3) - x, (F(1, 3) - rx[0], -rx[1], m)),
    ]
    if x:
        results += [(x.inverse(), _ref_inverse(rx)), (x ** k, _ref_pow(rx, k)),
                    (y / x, _ref_mul(ry, _ref_inverse(rx)))]
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    for q, ref in results:
        assert _matches(q, ref)
        assert _normal_form(q)
        assert parse_quad(str(q)) == q


@settings(max_examples=100, deadline=None)
@given(_small_fractions, _small_fractions, st.sampled_from([1, 2, 5]))
def test_quad_normal_form_is_unique(a, b, m):
    q = QuadScalar(a, b, m)
    assert _normal_form(q)
    assert (q.a, q.b) == ((a, b) if m != 1 else (a + b, 0))
    # the same value reached through arithmetic has the same fields
    r = QuadScalar(a) + QuadScalar(0, b, m) if m != 1 else QuadScalar(a + b)
    assert (r.p, r.q, r.d, r.m) == (q.p, q.q, q.d, q.m)
    assert q == r and hash(q) == hash(r)


@settings(max_examples=100, deadline=None)
@given(st.fractions(max_denominator=1000), _small_fractions, _small_fractions)
def test_quad_rational_hash_and_eq_agree_with_fraction(r, a, b):
    assert QuadScalar(r) == r and hash(QuadScalar(r)) == hash(r)
    if r.denominator == 1:
        assert QuadScalar(r) == int(r) and hash(QuadScalar(r)) == hash(int(r))
    # a rational reached from Q(sqrt 5) (a norm) hashes like its Fraction
    x = QuadScalar(a, b, 5)
    conj = QuadScalar(a, -b, 5)
    norm = x * conj
    assert norm.is_rational() and norm.m == 1
    assert norm == a * a - 5 * b * b and hash(norm) == hash(a * a - 5 * b * b)


@settings(max_examples=100, deadline=None)
@given(_small_fractions, _small_fractions, st.sampled_from([1, 2, 5]))
def test_quad_lex_nonneg_matches_model(a, b, m):
    q = QuadScalar(a, b, m)
    assert q.lex_nonneg() == ((q.a, q.b) >= (0, 0))
    if q:
        assert (-q).lex_nonneg() != q.lex_nonneg()


@settings(max_examples=100, deadline=None)
@given(_small_fractions, _small_fractions.filter(bool), _small_fractions,
       _small_fractions.filter(bool))
def test_quad_discriminant_mismatch_sqrt2_sqrt5(a2, b2, a5, b5):
    x, y = QuadScalar(a2, b2, 2), QuadScalar(a5, b5, 5)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
               lambda u, v: u / v):
        with pytest.raises(DiscriminantMismatch):
            op(x, y)
        with pytest.raises(DiscriminantMismatch):
            op(y, x)
    # a rational of either field mixes with both
    assert (x * QuadScalar(b5)).m == 2 and (y + QuadScalar(a2)).m == 5


def test_quad_public_constructor_keeps_its_checks():
    for m in (0, 4, 8, 12, -4, 18):
        with pytest.raises(ValueError, match="square-free"):
            QuadScalar(1, 1, m)
    with pytest.raises(ValueError, match="re-wrap"):
        QuadScalar(QuadScalar(0, 1, 2), 1)
    with pytest.raises(ValueError, match="re-wrap"):
        QuadScalar(QuadScalar(0, 1, 2), 0, 5)
    assert QuadScalar(QuadScalar(0, 1, 2), 0, 2) == QuadScalar(0, 1, 2)
    assert QuadScalar(3, 2, 1) == 5 and QuadScalar(1, 0, 4) == 1
    assert QuadScalar.coerce(F(6, 4)).d == 2 and QuadScalar.coerce(7) == 7


# ---------------------------------------------------------------------------
# ExpPolynomial
# ---------------------------------------------------------------------------

def _t(i, n=3):
    return ExpPolynomial.variable(n, i)


def test_difference_of_squares():
    t1, t2 = _t(0, 2), _t(1, 2)
    assert (t1 + t2) * (t1 - t2) == t1 * t1 - t2 * t2


def test_exponent_addition():
    e = ExpPolynomial.monomial(2, 1, (0, 0), (0, 1))   # e^{t2}
    prod = e * e
    assert prod == ExpPolynomial.monomial(2, 1, (0, 0), (0, 2))


def test_scale():
    p = ExpPolynomial.monomial(3, F(1, 2), (2, 0, 1))
    assert p.scale(2) == ExpPolynomial.monomial(3, 1, (2, 0, 1))


def test_diff_examples():
    # d3 (t1^2 t3 / 2) = t1^2/2
    p = ExpPolynomial.monomial(3, F(1, 2), (2, 0, 1))
    assert poly_diff(p, 2) == ExpPolynomial.monomial(3, F(1, 2), (2, 0, 0))
    # d2 e^{t2} = e^{t2}
    e = ExpPolynomial.monomial(2, 1, (0, 0), (0, 1))
    assert e.diff(1) == e
    # d2 (t2^2 e^{3 t2}) = (2 t2 + 3 t2^2) e^{3 t2}
    p = ExpPolynomial.monomial(2, 1, (0, 2), (0, 3))
    want = (ExpPolynomial.monomial(2, 2, (0, 1), (0, 3))
            + ExpPolynomial.monomial(2, 3, (0, 2), (0, 3)))
    assert p.diff(1) == want


def test_exppoly_op_results_hold_no_zero_coefficients():
    t1, t2 = _t(0, 2), _t(1, 2)
    e = ExpPolynomial.monomial(2, 1, (0, 0), (1, 0))          # e^{t1}
    p, q = t1 + t2, t2 - t1
    results = [p + q, -p, p * q, (t1 + t2) * (t1 - t2), p.scale(0), p.scale(F(-3, 2)),
               ((t1 - 1) * e).diff(0),                      # e^{t1} terms cancel
               p - p]
    for r in results:
        assert all(c for c in r.terms.values())
        assert all(len(pw) == 2 and len(ex) == 2 for pw, ex in r.terms)
        assert ExpPolynomial(2, r.terms) == r
    assert ((t1 - 1) * e).diff(0) == t1 * e
    assert (p - p).is_zero() and p.scale(0).is_zero()


def test_exppoly_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        ExpPolynomial(2, {((1,), (0,)): 1})
    with pytest.raises(ValueError):
        ExpPolynomial(2, {((1, 0), (0, 0, 1)): 1})
    p = ExpPolynomial(2, {((1, 0), (0, 0)): 0, ((F(2), 0), (0, 1)): F(3, 6)})
    assert p.terms == {((2, 0), (0, 1)): QuadScalar(F(1, 2))}
    assert all(type(x) is int for x in next(iter(p.terms))[0])


@st.composite
def exp_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        pows = tuple(draw(st.integers(0, 3)) for _ in range(2))
        exps = tuple(draw(st.integers(0, 1)) for _ in range(2))
        coeff = F(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        terms[(pows, exps)] = QuadScalar(coeff)
    return ExpPolynomial(2, terms)


@settings(max_examples=60, deadline=None)
@given(exp_polys(), exp_polys(), exp_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(exp_polys())
def test_mixed_partials_commute(p):
    assert p.diff(0).diff(1) == p.diff(1).diff(0)


@settings(max_examples=40, deadline=None)
@given(exp_polys(), st.integers(0, 1))
def test_integrate_then_diff(p, var):
    assert p.integrate(var).diff(var) == p


def test_laurent_diff():
    p = ExpPolynomial.monomial(2, 1, (-2, 0))
    assert p.diff(0) == ExpPolynomial.monomial(2, -2, (-3, 0))


def test_substitute():
    # (t1 + t2)^2 under t1 -> t1 - t2 gives t1^2
    p = (_t(0, 2) + _t(1, 2)) ** 2
    image = p.substitute([_t(0, 2) - _t(1, 2), _t(1, 2)])
    assert image == _t(0, 2) ** 2


def test_eval_complex_with_exp():
    import cmath
    p = ExpPolynomial.monomial(2, 2, (1, 0), (0, 3))  # 2 t1 e^{3 t2}
    val = p.eval_complex([1.5, 0.25])
    assert abs(val - 3.0 * cmath.exp(0.75)) < 1e-14


def test_exp_filters_equal_the_constructor_and_copy_the_terms():
    from frobenii.gwcp2 import truncated_potential
    src = truncated_potential(6).F
    assert src.has_exp()
    before = dict(src.terms)
    cases = [
        (src.polynomial_part(), {k: c for k, c in src.terms.items() if not any(k[1])}),
        (src.truncate_exp(1, 3), {k: c for k, c in src.terms.items() if k[1][1] <= 3}),
    ]
    for got, kept in cases:
        want = ExpPolynomial(src.nvars, kept)
        assert got == want and got.nvars == want.nvars
        assert 0 < len(got.terms) < len(src.terms)
        got.terms.clear()
        assert src.terms == before


def _golden_integer(rng):
    # (a + c sqrt5)/2 with a = c mod 2 lies in Z[(1+sqrt5)/2]
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    return QuadScalar(F(a, 2), F(a + 2 * b, 2), 5)


_FIELDS = {
    "Q": lambda rng: QuadScalar(F(rng.randint(-5, 5), rng.randint(1, 4))),
    "Z[sqrt2]": lambda rng: QuadScalar(rng.randint(-3, 3), rng.randint(-3, 3), 2),
    "Z[golden]": _golden_integer,
}


def _random_exppoly(rng, coeff, n=3):
    # Laurent powers and exp weights of both signs; few distinct keys, so
    # products collide and partly cancel
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = (tuple(rng.randint(-2, 2) for _ in range(n)),
               tuple(rng.randint(-1, 2) for _ in range(n)))
        terms[key] = coeff(rng)
    return ExpPolynomial(n, terms)


def _reference_dot(n, pairs, truncation):
    # term by term into one dict, zero coefficients dropped by the
    # constructor; shares no code with ``dot``
    acc = {}
    for f, g in pairs:
        for (p1, e1), c1 in f.terms.items():
            for (p2, e2), c2 in g.terms.items():
                key = (tuple(a + b for a, b in zip(p1, p2)),
                       tuple(a + b for a, b in zip(e1, e2)))
                acc[key] = acc.get(key, QuadScalar(0)) + c1 * c2
    full = ExpPolynomial(n, acc)
    return full if truncation is None else full.truncate_exp(*truncation)


@pytest.mark.parametrize("field", sorted(_FIELDS))
@pytest.mark.parametrize("seed", range(8))
def test_dot_equals_the_naive_sum_then_truncation(field, seed):
    rng = random.Random(seed)
    coeff = _FIELDS[field]
    pairs = [(_random_exppoly(rng, coeff), _random_exppoly(rng, coeff))
             for _ in range(rng.randint(2, 4))]
    pairs.append((pairs[0][0], -pairs[0][1]))       # cancels the first pair
    pairs.append((ExpPolynomial.constant(3, coeff(rng) + 7), pairs[1][1]))
    total = sum(len(f.terms) * len(g.terms) for f, g in pairs)
    naive = ExpPolynomial.zero(3)
    for f, g in pairs:
        naive = naive + f * g
    for truncation in [None, (0, 0), (1, 1), (2, -1), (rng.randrange(3), 3)]:
        got, formed, skipped = dot(3, iter(pairs), truncation)
        want = _reference_dot(3, pairs, truncation)
        assert got == want
        assert got == (naive if truncation is None else naive.truncate_exp(*truncation))
        assert all(got.terms.values())
        if truncation is None:
            assert (formed, skipped) == (total, 0)
        else:
            var, order = truncation
            assert skipped == sum(1 for f, g in pairs for (_, e1) in f.terms
                                  for (_, e2) in g.terms if e1[var] + e2[var] > order)
            assert formed + skipped == total


def test_dot_cancels_to_zero_and_sums_nothing():
    rng = random.Random(5)
    f = _random_exppoly(rng, _FIELDS["Z[golden]"]) + _t(0)
    g = _random_exppoly(rng, _FIELDS["Z[golden]"]) + _t(1)
    zero, formed, skipped = dot(3, [(f, g), (-f, g), (ExpPolynomial.zero(3), g)])
    assert zero.is_zero() and zero.nvars == 3
    assert (formed, skipped) == (2 * len(f.terms) * len(g.terms), 0)
    assert dot(3, [(f, g), (f, -g)], (1, 0))[0].is_zero()
    empty, formed, skipped = dot(2, [])
    assert empty == ExpPolynomial.zero(2) and (formed, skipped) == (0, 0)
    assert dot(2, [], (0, 0))[0].is_zero()


def test_dot_rejects_mixed_fields_and_arities():
    f = ExpPolynomial.monomial(2, QuadScalar(0, 1, 2), (1, 0))
    g = ExpPolynomial.monomial(2, QuadScalar(F(1, 2), F(1, 2), 5), (0, 1), (0, 1))
    with pytest.raises(DiscriminantMismatch):
        dot(2, [(f, g)])
    with pytest.raises(DiscriminantMismatch):
        f * g
    with pytest.raises(ValueError):
        dot(2, [(f, _t(0))])


# ---------------------------------------------------------------------------
# GWSeries
# ---------------------------------------------------------------------------

def test_series_trivials():
    e = GWSeries(3, [F(1), F(0), F(0)])
    assert (e * e) == GWSeries(3, [0, 1, 0])             # e^x * e^x = e^{2x}
    half = GWSeries(3, [F(1, 2), 0, 0])
    assert half + half == e
    f = GWSeries(3, [F(1, 2), F(1, 3), F(1, 4)])
    assert f.diff() == GWSeries(3, [F(1, 2), F(2, 3), F(3, 4)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=4, max_size=4),
       st.lists(st.fractions(min_value=-3, max_value=3), min_size=4, max_size=4),
       st.fractions(min_value=-3, max_value=3),
       st.fractions(min_value=1, max_value=3))
def test_two_division_routes_agree(num, den, c_num, c_den):
    f = GWSeries(4, num, c_num)
    g = GWSeries(4, den, c_den)
    assert f.divide_triangular(g) == f.divide_neumann(g)
    # and both invert multiplication
    assert (f.divide_triangular(g)) * g == f


def _series_ref_mul(a0, a, b0, b):
    """Plain Fraction convolution of c0 + sum a_k e^{kx} by b, truncated."""
    K = len(a)
    out = []
    for k in range(1, K + 1):
        s = a0 * b[k - 1] + b0 * a[k - 1]
        for i in range(1, k):
            s += a[i - 1] * b[k - i - 1]
        out.append(s)
    return a0 * b0, out


def _series_ref_div(a0, a, b0, b):
    """Plain Fraction triangular solve of (a0, a) / (b0, b)."""
    q0 = a0 / b0
    out = []
    for k in range(1, len(a) + 1):
        s = a[k - 1] - q0 * b[k - 1]
        for i in range(1, k):
            s -= out[i - 1] * b[k - i - 1]
        out.append(s / b0)
    return q0, out


def _canonical(s):
    """Integer fields over a positive denominator with gcd 1."""
    return s._den > 0 and gcd(s._den, s._c0, *s._num) == 1


_mixed = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@settings(max_examples=60, deadline=None)
@given(st.lists(_mixed, min_size=5, max_size=5), _mixed,
       st.lists(_mixed, min_size=5, max_size=5),
       _mixed.filter(lambda x: x != 0))
def test_series_ops_match_fraction_reference(a, a0, b, b0):
    f, g = GWSeries(5, a, a0), GWSeries(5, b, b0)
    prod = f * g
    assert (prod.c0, prod.coeffs) == _series_ref_mul(a0, a, b0, b)
    want = _series_ref_div(a0, a, b0, b)
    for q in (f.divide_triangular(g), f.divide_neumann(g), f / g):
        assert (q.c0, q.coeffs) == want
        assert _canonical(q)
    total = f + g
    assert (total.c0, total.coeffs) == (a0 + b0, [x + y for x, y in zip(a, b)])
    assert f - g == f + (-g)
    assert (f - g).coeffs == [x - y for x, y in zip(a, b)]
    assert all(_canonical(s) for s in (prod, total, f - g, -f, f.diff()))
    assert [f[k] for k in range(7)] == [a0] + a + [F(0)]


def test_series_canonical_form():
    assert GWSeries(3, [F(2, 4), 0, 0]) == GWSeries(3, [F(1, 2), 0, 0])
    # a common factor left by a sum or product is divided out
    s = GWSeries(2, [F(1, 2), F(1, 2)]) + GWSeries(2, [F(1, 2), F(-1, 2)])
    assert s == GWSeries(2, [1, 0]) and s._den == 1
    t = GWSeries(3, [F(1, 6), F(-5, 4), 0], F(-7, 3))
    assert (t * 6) * F(1, 6) == t and _canonical((t * 6) * F(1, 6))
    assert t != GWSeries(3, [F(1, 6), F(-5, 4), 0], F(7, 3))
    assert t.c0 == F(-7, 3) and t.coeffs == [F(1, 6), F(-5, 4), F(0)]
    assert GWSeries.zero(3) == GWSeries(3, [0, 0, 0]) and (t * 0).is_zero()


def test_series_scalar_ops_int_and_fraction():
    t = GWSeries(3, [F(1, 6), F(-5, 4), 2], F(-7, 3))
    cs = [F(1, 6), F(-5, 4), F(2)]
    for c in (3, -2, F(3, 4), F(-5, 6)):
        assert (t * c).coeffs == [x * c for x in cs] and (t * c).c0 == F(-7, 3) * c
        assert c * t == t * c
        assert (t + c).coeffs == cs and (t + c).c0 == F(-7, 3) + c
        assert c + t == t + c
        assert (t - c).c0 == F(-7, 3) - c and (c - t).c0 == c - F(-7, 3)
        assert (c - t).coeffs == [-x for x in cs]
        assert all(_canonical(s) for s in (t * c, t + c, t - c, c - t))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17])
def test_neumann_doubling_at_power_of_two_orders(K):
    # the doubled product must cover step^m for every m <= K
    a = [F((-1) ** k * (k + 2), k + 1) for k in range(K)]
    b = [F(3 - k, 2 * k + 1) for k in range(K)]
    f, g = GWSeries(K, a, F(5, 3)), GWSeries(K, b, F(-2, 7))
    want = _series_ref_div(F(5, 3), a, F(-2, 7), b)
    q = f.divide_neumann(g)
    assert (q.c0, q.coeffs) == want and q == f.divide_triangular(g)


def test_series_zero_constant_denominator_raises():
    f = GWSeries(3, [F(1, 2), 1, F(-1, 3)], F(-1, 4))
    g = GWSeries(3, [F(1, 3), 0, 2])
    for divide in (f.divide_triangular, f.divide_neumann, f.__truediv__):
        with pytest.raises(ZeroDivisionError):
            divide(g)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def test_exact_solve_identity():
    A = ExactMatrix.identity(3)
    rhs = [F(1), F(2, 3), F(-5)]
    assert exact_solve(A, rhs) == [QuadScalar(x) for x in rhs]


def test_antidiagonal_inverse():
    A = ExactMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert A.inverse() == A


def test_singular_reported():
    A = ExactMatrix([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        exact_solve(A, [1, 0])


def test_solve_multiply_back_exact():
    A = ExactMatrix([[QuadScalar(1), QuadScalar(0, 1, 5)],
                     [QuadScalar(F(1, 3)), QuadScalar(2)]])
    rhs = [QuadScalar(F(2, 7)), QuadScalar(1, -1, 5)]
    x = exact_solve(A, rhs)
    assert [sum((a * v for a, v in zip(row, x)), QuadScalar(0)) for row in A.rows] == rhs


def test_charpoly_matches_trace_det():
    A = ExactMatrix([[1, 2, 0], [0, F(1, 2), 3], [4, 0, -1]])
    c = A.charpoly()
    assert c[2] == -A.trace()
    # det(lambda I - A) at lambda = 0 equals (-1)^n det A
    assert c[0] == A.det() * (-1) ** 3


# The fraction-free kernel against an independent oracle: the Leibniz
# permutation sum, in QuadScalar arithmetic.

def _leibniz_det(rows):
    n = len(rows)
    total = QuadScalar(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = QuadScalar(1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


_PHI = QuadScalar(F(1, 2), F(1, 2), 5)
_RINGS = {
    "Z": lambda rng: QuadScalar(rng.randint(-3, 3)),
    "Q/2,3": lambda rng: QuadScalar(F(rng.randint(-4, 4), rng.choice((1, 2, 3)))),
    "Z[sqrt2]/3": lambda rng: QuadScalar(F(rng.randint(-3, 3), rng.choice((1, 3))),
                                         F(rng.randint(-2, 2), rng.choice((1, 3))), 2),
    "Z[phi]": lambda rng: QuadScalar(rng.randint(-2, 2)) + _PHI * rng.randint(-2, 2),
}


def _kernel_cases(ring, n, seed=0):
    """Seeded n x n matrices over `ring`: generic ones, one whose (0, 0)
    pivot is zero (a row swap) and, for n > 1, a singular one."""
    rng = random.Random(f"{ring}-{n}-{seed}")
    draw = _RINGS[ring]
    cases = [[[draw(rng) for _ in range(n)] for _ in range(n)] for _ in range(3)]
    swap = [[draw(rng) for _ in range(n)] for _ in range(n)]
    swap[0][0] = QuadScalar(0)
    cases.append(swap)
    if n > 1:
        sing = [[draw(rng) for _ in range(n)] for _ in range(n)]
        c = draw(rng)
        sing[-1] = [x * c for x in sing[0]]
        cases.append(sing)
    return cases


@pytest.mark.parametrize("ring", list(_RINGS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_leibniz(ring, n):
    for rows in _kernel_cases(ring, n):
        assert ExactMatrix(rows).det() == _leibniz_det(rows)
    if n > 1:
        assert not ExactMatrix(_kernel_cases(ring, n)[-1]).det()


def test_det_row_swap_sign():
    A = ExactMatrix([[0, 1, 0], [1, 0, 0], [0, 0, QuadScalar(0, 1, 2)]])
    assert A.det() == QuadScalar(0, -1, 2)
    assert ExactMatrix([[0, 0], [0, 1]]).det() == QuadScalar(0)


@pytest.mark.parametrize("ring", list(_RINGS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_charpoly_is_det_of_lambda_minus_a(ring, n):
    for rows in _kernel_cases(ring, n):
        A = ExactMatrix(rows)
        c = A.charpoly()
        assert len(c) == n + 1 and c[n] == QuadScalar(1)
        for lam in range(-1, n):
            shifted = [[(lam if i == j else 0) - x for j, x in enumerate(r)]
                       for i, r in enumerate(rows)]
            value = sum((ck * lam ** k for k, ck in enumerate(c)), QuadScalar(0))
            assert value == _leibniz_det(shifted)
        assert c[n - 1] == -A.trace()
        assert c[0] == A.det() * (-1) ** n


@pytest.mark.parametrize("ring", list(_RINGS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_and_solve_multiply_back(ring, n):
    rng = random.Random(f"rhs-{ring}-{n}")
    cases = _kernel_cases(ring, n)
    for rows in cases[:-1] if n > 1 else cases:
        A = ExactMatrix(rows)
        if not A.det():
            continue
        inv = A.inverse()
        assert A @ inv == ExactMatrix.identity(n) == inv @ A
        rhs = [_RINGS[ring](rng) for _ in range(n)]
        x = exact_solve(A, rhs)
        assert [sum((a * v for a, v in zip(r, x)), QuadScalar(0)) for r in rows] == rhs
    if n > 1:
        singular = ExactMatrix(cases[-1])
        with pytest.raises(SingularMatrixError):
            singular.inverse()
        with pytest.raises(SingularMatrixError):
            exact_solve(singular, [1] * n)


def test_kernel_rejects_mixed_fields():
    A = ExactMatrix([[QuadScalar(0, 1, 2), 1], [1, QuadScalar(0, 1, 5)]])
    for call in (ExactMatrix.det, ExactMatrix.charpoly, ExactMatrix.inverse):
        with pytest.raises(DiscriminantMismatch):
            call(A)
    with pytest.raises(DiscriminantMismatch):
        exact_solve(ExactMatrix([[QuadScalar(0, 1, 2)]]), [QuadScalar(0, 1, 5)])


def test_exact_division_checks_the_remainder():
    # (1 + sqrt2)(3 - sqrt2) = 1 + 2 sqrt2, divided back through the norm 7
    assert _divide(1, 2, 3, -1, 2) == (1, 1)
    assert _divide(-6, 4, 2, 0, 1) == (-3, 2)
    assert _divide(1, 0, 1, 1, 2) == (-1, 1)     # 1 + sqrt2 is a unit
    with pytest.raises(ArithmeticError):
        _divide(3, 0, 2, 0, 1)
    with pytest.raises(ArithmeticError):
        _divide(1, 0, 2, 1, 2)      # 1/(2 + sqrt2) = (2 - sqrt2)/2


# ---------------------------------------------------------------------------
# eigen_small
# ---------------------------------------------------------------------------

def test_eigen_diag():
    lam, _ = eigen_small(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(lam, [1, 2, 3])


def test_eigen_zero():
    lam, _ = eigen_small(np.zeros((3, 3)))
    assert np.allclose(lam, 0)


def test_eigen_cp2_matrix():
    # [[0,0,3q],[3,0,0],[0,3,0]] with q = 1: eigenvalues 3, 3 e^{+-2 pi i/3}
    M = np.array([[0, 0, 3.0], [3.0, 0, 0], [0, 3.0, 0]], dtype=complex)
    lam, vecs = eigen_small(M, tol=1e-10)
    eps2 = np.exp(2j * np.pi / 3)
    want = sorted([3, 3 * eps2, 3 * np.conj(eps2)], key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(lam, want)) < 1e-12
    for i, l in enumerate(lam):
        assert np.linalg.norm(M @ vecs[:, i] - l * vecs[:, i]) < 1e-10


def test_eigen_random_trace_det():
    rng = np.random.default_rng(42)
    for _ in range(8):
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lam, _ = eigen_small(M, tol=1e-8)
        assert abs(sum(lam) - np.trace(M)) < 1e-10 * max(1, abs(np.trace(M)))
        det = np.prod(np.array(lam))
        assert abs(det - np.linalg.det(M)) < 1e-10 * max(1.0, abs(np.linalg.det(M)))


def test_quartic_closed_form_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(12):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lam, _ = eigen_small(M, tol=1e-8)
        ref = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(lam, ref)) < 1e-9


def test_eigen_symmetric_triple_eigenvalue():
    # Q diag(1,1,1,2,3) Q^T: a triple eigenvalue with a full eigenspace
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        M = Q @ np.diag([1.0, 1.0, 1.0, 2.0, 3.0]) @ Q.T
        lam, vecs = eigen_small(M)
        assert max(abs(a - b) for a, b in zip(lam, [1, 1, 1, 2, 3])) < 1e-12
        assert np.linalg.norm(M @ vecs - vecs * np.array(lam)) < 1e-12


def test_sort_spectrum_rounding_tie_orders_by_imag():
    # real parts one ulp (2.2e-16) apart count as equal: order by Im
    x = -1.5
    upper, lower = complex(x, 2.6), complex(np.nextafter(x, 0), -2.6)
    assert sort_spectrum([upper, lower]) == [lower, upper]
    assert sort_spectrum([lower, upper]) == [lower, upper]
    # a real gap well above rounding still decides
    assert sort_spectrum([complex(x + 1e-9, -2.6), upper]) == [upper, complex(x + 1e-9, -2.6)]


def test_eigen_small_uses_canonical_order():
    # the CP2 pair 3 e^{+-2 pi i/3} has equal real parts in exact arithmetic
    M = np.array([[0, 0, 3.0], [3.0, 0, 0], [0, 3.0, 0]], dtype=complex)
    lam, vecs = eigen_small(M)
    assert lam == sort_spectrum(lam)
    assert lam[0].imag < 0 < lam[1].imag


def test_polynomial_roots_exact_multiplicities():
    # (x - 1)^3 (x + 2)^2 (x - sqrt2)^2 (x + sqrt2) over Q(sqrt 2)
    r2 = QuadScalar(0, 1, 2)

    def linear(root):
        return [-QuadScalar.coerce(root), QuadScalar(1)]

    def mul(p, q):
        out = [QuadScalar(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
        return out

    f = [QuadScalar(1)]
    for root in [1, 1, 1, -2, -2, r2, r2, -r2]:
        f = mul(f, linear(root))
    roots = sort_spectrum(polynomial_roots(f))
    s2 = np.sqrt(2)
    want = [-2, -2, -s2, 1, 1, 1, s2, s2]
    assert len(roots) == len(want)
    assert max(abs(a - b) for a, b in zip(roots, want)) < 1e-14
