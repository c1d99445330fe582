"""Gromov-Witten numbers of the plane: recursions, elliptic series,
asymptotics, truncated potential."""

import math
from fractions import Fraction as F

import pytest

from frobenii.exact import GWSeries, QuadScalar
from frobenii.frobenius import check_wdvv1, origin_monodromy
from frobenii import gwcp2
from frobenii.gwcp2 import (
    IntegralityError, _ode_next, _ratio_test, elliptic_invariants,
    elliptic_report, elliptic_series, fit_report, genus0_coefficients,
    genus0_coefficients_pde, genus0_invariants, genus0_numbers,
    kontsevich_numbers, nk_report, asymptotic_fit,
    truncated_potential,
)

KNOWN_N = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}
KNOWN_N1 = {1: 0, 2: 0, 3: 1, 4: 225, 5: 87192}


def test_first_numbers():
    rows = genus0_invariants(6)
    assert {r.k: r.N for r in rows} == KNOWN_N


def test_ode_and_pde_routes_agree_to_20():
    assert genus0_coefficients(20) == genus0_coefficients_pde(20)


def _fraction_ode(K):
    """The ODE recursion on Fractions, unscaled: the reference the integer
    routes must reproduce."""
    A = [F(0)] * (K + 1)
    A[1] = F(1, 2)
    for k in range(2, K + 1):
        s = F(0)
        for i in range(1, k):
            j = k - i
            s += F(i * i * j * (2 * i - 3 * i * j - j)) * A[i] * A[j]
        A[k] = -s / (3 * (k - 1) * (3 * k - 1) * (3 * k - 2))
    return A[1:]


def test_integer_routes_match_fraction_ode_to_150():
    ref = _fraction_ode(150)
    N = genus0_numbers(150)
    assert N == kontsevich_numbers(150)
    assert genus0_coefficients(150) == ref
    assert genus0_coefficients_pde(150) == ref
    assert all(F(n, math.factorial(3 * k - 1)) == a
               for k, (n, a) in enumerate(zip(N, ref), start=1))


def test_exact_division_rejects_a_non_integral_input():
    N = genus0_numbers(4)
    assert _ode_next(N[:3]) == N[3]
    with pytest.raises(IntegralityError, match="not an integer"):
        _ode_next([1, 1, F(25, 2)])             # N_3 = 12 moved off the integers


def test_exact_division_rejects_a_perturbed_binomial(monkeypatch):
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(IntegralityError, match="not an integer"):
        genus0_numbers(6)


def test_ode_route_rejects_a_non_positive_number():
    with pytest.raises(IntegralityError, match="positive"):
        _ode_next([0])


def test_genus0_built_once_per_call(monkeypatch):
    calls = []
    real = gwcp2.genus0_numbers
    monkeypatch.setattr(gwcp2, "genus0_numbers", lambda K: calls.append(K) or real(K))
    for build in (gwcp2.elliptic_invariants, gwcp2.fit_report,
                  gwcp2.nk_report, gwcp2.elliptic_report):
        calls.clear()
        build(24)
        assert calls == [24], build.__name__


def test_integrality_to_40():
    for row in genus0_invariants(40):
        assert row.N > 0


def test_elliptic_constant_and_first_values():
    psi = elliptic_series(8)
    assert psi.c0 == F(-1, 8)
    rows = elliptic_invariants(5)
    assert {r.k: r.N1 for r in rows} == KNOWN_N1


def test_elliptic_definition_identity():
    # psi * 8 (27 + 2 phi' - 3 phi'') - (phi''' - 27) = 0 as a series
    K = 12
    phi = GWSeries(K, genus0_coefficients(K))
    d1 = phi.diff(); d2 = d1.diff(); d3 = d2.diff()
    den = (d1 * 2 - d2 * 3 + 27) * 8
    psi = elliptic_series(K)
    assert (psi * den - (d3 - 27)).is_zero()


@pytest.mark.parametrize("shift", [-1, 1, 2])
def test_elliptic_integrality_rejects_a_wrong_genus0_number(shift):
    # unlike the exact division of the genus-0 recursion, the integrality of
    # N^(1)_k catches a single wrong N_i
    N = genus0_numbers(12)
    for i in range(12):
        wrong = N[:i] + [N[i] + shift] + N[i + 1:]
        with pytest.raises(IntegralityError):
            gwcp2._elliptic_rows(gwcp2._coefficients(wrong), {})


def test_division_routes_cross_check():
    for K in (1, 2, 3, 7, 15, 40, 60, 100):
        assert elliptic_series(K, "triangular") == elliptic_series(K, "neumann")


def test_asymptotic_fit_window():
    a_hat, b_hat, r_hat = asymptotic_fit(40)
    assert 0.124 <= a_hat <= 0.152          # a ~ 0.138 within 10%
    assert 4.9 <= b_hat <= 7.3              # b ~ 6.1 within 20%
    assert 1.8 <= r_hat <= 2.2              # R ~ 1.981 within 10%


def test_ratio_tail_near_di_constant():
    r = fit_report(40)["tail_ratio"]
    A = genus0_coefficients(40)
    assert r == float(A[-1] / A[-2])
    assert abs(r - 0.138) < 0.0138


def test_convergence_bound():
    A = genus0_coefficients(30)
    assert _ratio_test(A, 0.0)
    assert _ratio_test(A, None)             # at log(6/5) - 0.01
    assert not _ratio_test(A, 2.5)          # beyond the radius
    assert fit_report(30)["ratio_test_at_log65"] is True


def test_truncated_potential_k1_term():
    P = truncated_potential(1)
    # N_1/(3-1)! t3^2 e^{t2} = 1/2 t3^2 e^{t2}
    assert P.F.coefficient((0, 0, 2), (0, 1, 0)) == QuadScalar(F(1, 2))


def test_truncated_classical_limit():
    P = truncated_potential(3)
    F0 = P.F.polynomial_part()
    assert F0.coefficient((2, 0, 1)) == QuadScalar(F(1, 2))
    assert F0.coefficient((1, 2, 0)) == QuadScalar(F(1, 2))
    assert len(F0.terms) == 2


@pytest.mark.parametrize("K", [2, 4])
def test_truncated_wdvv_mod_truncation(K):
    assert check_wdvv1(truncated_potential(K)).passed


def test_truncated_wdvv_fails_without_truncation_window():
    # dropping the truncation marker exposes the genuine tail residuals
    P = truncated_potential(2)
    from frobenii.frobenius import FrobeniusPotential
    Q = FrobeniusPotential(P.n, P.F, P.d, P.q, P.r, name="raw")
    assert not check_wdvv1(Q).passed


def test_cp2_origin_monodromy_example():
    mono = origin_monodromy(truncated_potential(4))
    assert mono.mu == [F(-1), F(0), F(1)]
    from frobenii.exact import ExactMatrix
    assert mono.R1 == ExactMatrix([[0, 0, 0], [3, 0, 0], [0, 3, 0]])


def test_csv_table():
    # the rows `gw nk` and `gw elliptic` hand to `--csv`, one dict per line
    rows = nk_report(4)[1]
    assert list(rows[0]) == ["k", "N_k", "A_k", "ratio"]
    assert len(rows) == 4
    assert rows[0]["N_k"] == 1 and rows[0]["ratio"] == ""
    assert rows[2]["N_k"] == 12
    rows = elliptic_report(4)[1]
    assert [(r["k"], r["N1_k"]) for r in rows] == [(1, 0), (2, 0), (3, 1), (4, 225)]
    assert all(list(r) == ["k", "N1_k"] for r in rows)


def test_cp2_truncated_grading_and_quasihomogeneity():
    from frobenii.frobenius import check_grading_eta, check_quasihomogeneity
    P = truncated_potential(3)
    assert check_grading_eta(P)
    qrep, A, B, C = check_quasihomogeneity(P)
    assert qrep.passed


def test_table_json_mirror():
    import json
    nk, nk_rows = nk_report(3)
    ell, ell_rows = elliptic_report(3)
    assert json.loads(json.dumps(nk_rows)) == nk_rows
    assert [r["N_k"] for r in nk_rows] == [1, 1, 12]
    assert [r["N1_k"] for r in ell_rows] == [0, 0, 1]
    # the JSON results carry the same numbers as the rows
    assert json.loads(json.dumps(nk["N"])) == {str(r["k"]): r["N_k"] for r in nk_rows}
    assert json.loads(json.dumps(ell["N1"])) == {str(r["k"]): r["N1_k"] for r in ell_rows}
