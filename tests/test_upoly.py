"""Univariate polynomials over an exact ring: expansion at infinity,
residues, monic gcd and Yun's square-free split."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from frobenii.exact import ExpPolynomial, QuadScalar
from frobenii.exact import upoly
from frobenii.painleve import FAMILIES

RT5 = QuadScalar(0, 1, 5)
PHI = QuadScalar(F(1, 2), F(1, 2), 5)


def _linear(root):
    return [-QuadScalar.coerce(root), QuadScalar(1)]


def _product(polys):
    out = [QuadScalar(1)]
    for p in polys:
        out = upoly.mul(out, p)
    return out


def test_square_free_split_with_repeated_roots_over_z_sqrt5():
    # 3 (x - phi)^3 (x + sqrt5)^2 (x - 2) over Z[(1 + sqrt5)/2]
    factors = {1: _linear(2), 2: _linear(-RT5), 3: _linear(PHI)}
    f = [c * 3 for c in _product([factors[1]] + [factors[2]] * 2 + [factors[3]] * 3)]
    split = upoly.square_free(f)
    assert split == [(factors[i], i) for i in (1, 2, 3)]
    rebuilt = _product(a for a, i in split for _ in range(i))
    assert [c * 3 for c in rebuilt] == f


def test_square_free_of_a_square_free_polynomial_is_itself_monic():
    f = [QuadScalar(-2), QuadScalar(0), QuadScalar(2)]          # 2 (x^2 - 1)
    assert upoly.square_free(f) == [([QuadScalar(-1), QuadScalar(0), QuadScalar(1)], 1)]


def test_monic_gcd():
    a, b, c = _linear(1), _linear(RT5), _linear(PHI)
    g = upoly.gcd(_product([a, b, b]), [c * 5 for c in _product([b, c])])
    assert g == b


def test_quotient_and_remainder_rebuild_the_dividend():
    rng = random.Random(3)
    for _ in range(40):
        p = upoly.trim([F(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 8))])
        q = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))] + [F(1)]
        if not p:
            continue
        quo, rem = upoly.quotient(p, q), upoly.remainder(p, q)
        assert len(rem) < len(q)
        assert upoly.sub(p, upoly.mul(q, quo)) == rem


def test_residue_orientation_over_quadscalar():
    one = QuadScalar(1)
    assert upoly.residue_at_infinity([one], [QuadScalar(0), one]) == -1       # dx/x
    # x^2 / (sqrt5 x^3 + 1): not monic, divided by sqrt5 first
    q = [one, QuadScalar(0), QuadScalar(0), RT5]
    assert upoly.residue_at_infinity([0, 0, one], q) == -RT5.inverse()
    # a polynomial has no residue at infinity
    assert upoly.residue_at_infinity([one, PHI], [PHI]) == 0


def test_residue_orientation_over_exppolynomial():
    n = 2
    s = ExpPolynomial.variable(n, 0)
    zero, one = ExpPolynomial.zero(n), ExpPolynomial.constant(n, 1)
    q = [zero, s, zero, one]                                     # x^3 + s x
    # x^2/(x^3 + s x) = 1/x - s/x^3 + ...
    assert upoly.residue_at_infinity([zero, zero, one], q) == ExpPolynomial.constant(n, -1)
    # x^4/(x^3 + s x) = x - s/x + ...
    assert upoly.residue_at_infinity([zero] * 4 + [one], q) == s
    # the leading coefficient of an ExpPolynomial divisor is not inverted
    with pytest.raises(TypeError):
        upoly.residue_at_infinity([one], [zero, ExpPolynomial.constant(n, 4)])


def test_expand_is_the_series_at_infinity():
    # 1/(x - 2) = x^-1 + 2 x^-2 + 4 x^-3 + ...
    assert upoly.expand([1], [-2, 1], 5) == [1, 2, 4, 8, 16]


# sha256 of repr([(name, x.num, x.den, y.num, y.den), ...]) of the families as
# built from the printed factorizations by schoolbook products of int tuples
FAMILIES_SHA256 = "d9c11f9e975ee0889885d6e9f2b50392bbb7a0ae5d6454a10066ec3102314557"


def test_pvi_families_are_unchanged_int_tuples():
    data = [(name, f.x.num, f.x.den, f.y.num, f.y.den) for name, f in sorted(FAMILIES.items())]
    for row in data:
        for poly in row[1:]:
            assert type(poly) is tuple and all(type(c) is int for c in poly)
    assert hashlib.sha256(repr(data).encode()).hexdigest() == FAMILIES_SHA256
