"""Landau-Ginzburg residue construction for A_n singularities."""

from fractions import Fraction as F

import pytest

from frobenii.exact import ExpPolynomial, QuadScalar
from frobenii.frobenius import (catalog, check_grading_eta,
                                check_quasihomogeneity, check_wdvv1,
                                metric_eta, structure_constants)
from frobenii.singularity import (a_n_metric, a_n_structure, flat_coordinates,
                                  residue_at_infinity)


def test_residue_orientation():
    assert residue_at_infinity([1], [0, 1]) == QuadScalar(-1)       # 1/x
    assert residue_at_infinity([0, 0, 1], [0, 0, 0, 4]) == QuadScalar(F(-1, 4))
    # polynomials have zero residue at infinity
    assert residue_at_infinity([1, 2, 3], [5]) == QuadScalar(0)


def test_residue_basis_pairing():
    # the n = 3 pairing: -(n+1) res x^{k+l} / ((n+1) x^n) = 1 at k+l = n-1
    n = 3
    denom = [0] * n + [n + 1]
    val = residue_at_infinity([0, 0, 1], denom)           # x^2/(4x^3)
    assert QuadScalar(-(n + 1)) * val == QuadScalar(1)


def test_a3_metric_matrix():
    eta = a_n_metric(3)
    s3 = ExpPolynomial.variable(3, 2)
    assert eta[0][0].is_zero() and eta[0][1].is_zero()
    assert eta[0][2] == ExpPolynomial.constant(3, 1)
    assert eta[1][1] == ExpPolynomial.constant(3, 1)
    assert eta[1][2].is_zero()
    assert eta[2][2] == s3.scale(F(-1, 2))


def test_a2_metric_constant_antidiagonal():
    eta = a_n_metric(2)
    assert eta[0][1] == ExpPolynomial.constant(2, 1)
    assert eta[0][0].is_zero()
    assert eta[1][1].is_zero()


def test_flat_coordinates_a3_printed_substitution():
    subs = flat_coordinates(3)
    t1 = ExpPolynomial.variable(3, 0)
    t3 = ExpPolynomial.variable(3, 2)
    assert subs[0] == t1 + (t3 * t3).scale(F(1, 8))
    assert subs[1] == ExpPolynomial.variable(3, 1)
    assert subs[2] == t3


def test_flat_coordinates_a2_identity():
    subs = flat_coordinates(2)
    assert subs[0] == ExpPolynomial.variable(2, 0)
    assert subs[1] == ExpPolynomial.variable(2, 1)


def test_flat_coordinates_a4_substitution():
    subs = flat_coordinates(4)
    t1, t2, t3, t4 = (ExpPolynomial.variable(4, i) for i in range(4))
    assert subs[0] == t1 + (t3 * t4).scale(F(1, 5))
    assert subs[1] == t2 + (t4 * t4).scale(F(1, 5))
    assert subs[2] == t3
    assert subs[3] == t4


@pytest.mark.parametrize("n", [0, 9])
def test_flat_coordinates_out_of_range(n):
    with pytest.raises(ValueError):
        flat_coordinates(n)


def test_a3_reconstruction_is_1_22():
    c_low, pot = a_n_structure(3)
    assert pot.F == catalog("A3").F
    t2 = ExpPolynomial.variable(3, 1)
    t3 = ExpPolynomial.variable(3, 2)
    assert c_low[0][0][2] == ExpPolynomial.constant(3, 1)
    assert c_low[0][1][1] == ExpPolynomial.constant(3, 1)
    assert c_low[1][1][2] == t3.scale(F(-1, 4))
    assert c_low[1][2][2] == t2.scale(F(-1, 4))
    assert c_low[2][2][2] == (t3 * t3).scale(F(1, 16))


@pytest.mark.parametrize("n", range(1, 9))
def test_reconstructed_potentials_pass_all_checks(n):
    c_low, pot = a_n_structure(n)
    assert pot.d == F(n - 1, n + 1)
    assert pot.q == tuple(F(a, n + 1) for a in range(n))
    assert check_wdvv1(pot).passed  # every residual is exactly zero
    qrep, *_ = check_quasihomogeneity(pot)
    assert qrep.passed
    assert check_grading_eta(pot)
    # symmetry of the residue tensor
    for a in range(n):
        for b in range(n):
            for g in range(n):
                assert c_low[a][b][g] == c_low[b][a][g] == c_low[g][b][a]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_metric_routes_agree(n):
    """eta from the residue pairing (in flat coordinates) equals
    d1 da db F of the reconstructed potential."""
    _, pot = a_n_structure(n)
    eta_pot = metric_eta(pot)
    eta_s = a_n_metric(n)
    subs = flat_coordinates(n)
    jac = [[subs[i].diff(a) for a in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(n):
            acc = ExpPolynomial.zero(n)
            for i in range(n):
                for j in range(n):
                    term = jac[i][a] * jac[j][b]
                    if not term.is_zero():
                        acc = acc + eta_s[i][j].substitute(subs) * term
            assert acc.is_constant()
            assert acc.constant_term() == eta_pot[a, b]


def test_a2_potential_value():
    # A2: F = 1/2 t1^2 t2 - t2^4/72 (c_222 = -t2/3 from the residue pairing)
    _, pot = a_n_structure(2)
    assert check_wdvv1(pot).passed
    assert pot.F.coefficient((2, 1)) == QuadScalar(F(1, 2))
    assert pot.F.coefficient((0, 4)) == QuadScalar(F(-1, 72))
