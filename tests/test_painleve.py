"""PVI(mu): residual evaluation, the three algebraic families, integration
and the (q, p, k) -> Psi chain."""

import cmath
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from frobenii import painleve
from frobenii.painleve import (
    FAMILIES, H3_DEGREE9, AlgebraicFamily, ParametrizationPoleError, PviPoint, QpkState,
    RationalFunction, algebraic_solution, log_k_increment, pvi_integrate, pvi_residual_on_curve,
    pvi_rhs, qp_flow_check, qp_from_family, reconstruct_psi, residual_table,
    sample_parameters, verify_algebraic, y_to_qp,
)

MUS = {"A3": F(-1, 4), "B3": F(-1, 3), "H3": F(-2, 5)}


# ---------------------------------------------------------------------------
# the right-hand side
# ---------------------------------------------------------------------------

def test_first_bracket_arithmetic():
    # at y = 2, x = 3: 1/y + 1/(y-1) + 1/(y-x) = 1/2 + 1 - 1 = 1/2
    y, x = F(2), F(3)
    assert 1 / y + 1 / (y - 1) + 1 / (y - x) == F(1, 2)


def test_mu_half_kills_constant_term():
    # (2 mu - 1)^2 = 0 at mu = 1/2: rhs loses the constant bracket term
    a = pvi_rhs(F(1, 2), F(3), F(2), F(0))
    b = pvi_rhs(F(1, 2), F(3), F(2), F(0))
    assert a == b
    full = pvi_rhs(F(0), F(3), F(2), F(0)) - a
    # difference is exactly (2 mu - 1)^2 /2 * y(y-1)(y-x)/(x^2(x-1)^2)
    want = F(1, 2) * F(2) * F(1) * F(-1) / (F(9) * F(4))
    assert full == want


def test_sqrt_solution_of_pvi_half():
    # y = sqrt(x) solves PVI(1/2): check numerically at a few points
    for xv in (0.3, 1.7, 2.4):
        y = xv ** 0.5
        yp = 0.5 / y
        ypp = -0.25 * xv ** -1.5
        assert abs(ypp - pvi_rhs(0.5, xv, y, yp)) < 1e-13


def test_rhs_overflows_to_a_non_finite_value_on_python_complex():
    # pvi_integrate's field runs on Python complex: a runaway Runge-Kutta
    # stage must give a non-finite y'' (the step is retried), not raise
    ypp = pvi_rhs(0.5, 0.3 + 0.1j, complex(1e200, 0), 1 + 0j)
    assert not cmath.isfinite(ypp)


# ---------------------------------------------------------------------------
# algebraic families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
def test_residual_vanishes_exactly_on_rational_grid(family):
    assert verify_algebraic(family, sample_count=50) == 0.0


@pytest.mark.parametrize("family,mu", [("A3", F(-1, 4)), ("B3", F(-1, 3)),
                                       ("H3", F(-2, 5))])
def test_family_mu_values(family, mu):
    assert FAMILIES[family].mu1 == mu


@pytest.mark.parametrize("family,wrong", [("A3", F(-1, 3)), ("B3", F(-1, 4)),
                                          ("H3", F(-1, 4))])
def test_negative_control_swapped_mu(family, wrong):
    assert verify_algebraic(family, sample_count=20, mu1=wrong) > 1e-2


def test_b3_sample_point():
    x, y = algebraic_solution("B3", F(1, 2))
    assert x == F(27, 25)
    assert y == F(1089, 1090)


def test_a3_denominator_evaluates_exactly():
    # y-denominator (1+s)(25 - 207 s^2 + 1539 s^4 + 243 s^6) at s = 1/5
    s = F(1, 5)
    x, y = algebraic_solution("A3", s)
    den = (1 + s) * (25 - 207 * s ** 2 + 1539 * s ** 4 + 243 * s ** 6)
    num = (s - 1) ** 2 * (1 + 3 * s) * (9 * s ** 2 - 5) ** 2
    assert y == num / den


def test_h3_degree9_constant_term():
    assert H3_DEGREE9[0] == 49


def _poly_at(c, s):
    return sum(F(a) * s ** i for i, a in enumerate(c))


def _poly_der(c):
    return [i * a for i, a in enumerate(c)][1:]


@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
def test_jet_satisfies_leibniz_identities(family):
    # r = num/den: r den = num, r' den + r den' = num', and
    # r'' den + 2 r' den' + r den'' = num'', with the polynomials evaluated
    # here by plain Fraction powers
    rng = random.Random(11)
    for f in (FAMILIES[family].x, FAMILIES[family].y):
        assert all(type(c) is int for c in f.num + f.den)
        for _ in range(12):
            s = F(rng.randint(-60, 60), rng.randint(1, 45))
            d = _poly_at(f.den, s)
            if d == 0:
                continue
            d1, d2 = _poly_at(_poly_der(f.den), s), _poly_at(_poly_der(_poly_der(f.den)), s)
            n1 = _poly_at(_poly_der(f.num), s)
            n2 = _poly_at(_poly_der(_poly_der(f.num)), s)
            r, r1, r2 = f.jet(s)
            assert r * d == _poly_at(f.num, s) and r == f(s)
            assert r1 * d + r * d1 == n1
            assert r2 * d + 2 * r1 * d1 + r * d2 == n2


@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
def test_jet_complex_parameter_matches_exact(family):
    fam = FAMILIES[family]
    for s in sample_parameters(fam, 12):
        for f in (fam.x, fam.y):
            for exact, approx in zip(f.jet(s), f.jet(complex(s))):
                assert abs(approx - complex(exact)) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
def test_integer_parameter_is_exact(family):
    fam = FAMILIES[family]
    for s in (2, -3):
        for f in (fam.x, fam.y):
            jet = f.jet(s)
            assert all(type(v) is F for v in jet) and jet == f.jet(F(s))
            assert type(f(s)) is F and f(s) == jet[0]


def test_jet_of_low_degree_at_rational_parameter():
    # r = (1 + 2s)/(1 + s): the numerator's second derivative is the empty
    # coefficient list, whose value at s = 1/3 is 0
    f = RationalFunction((1, 2), (1, 1))
    s = F(1, 3)
    r = F(5, 4)
    r1 = (2 - r) / F(4, 3)
    assert f.jet(s) == (r, r1, -2 * r1 / F(4, 3)) == (F(5, 4), F(9, 16), F(-27, 32))


def test_pole_is_reported_by_jet():
    with pytest.raises(ParametrizationPoleError):
        FAMILIES["A3"].x.jet(F(1, 3))


def test_pole_is_reported():
    with pytest.raises(ParametrizationPoleError):
        algebraic_solution("A3", F(1, 3))    # x-pole at 3s = 1


def _fraction_residual(fam, s, mu1):
    """The residual by the Fraction route: the quotient-rule jets and
    pvi_rhs, or the type of the exception that route raises."""
    try:
        x, xs, xss = fam.x.jet(s)
        y, ys, yss = fam.y.jet(s)
        yp = ys / xs
        ypp = (yss * xs - ys * xss) / xs ** 3
        return complex(ypp - pvi_rhs(fam.mu1 if mu1 is None else mu1, x, y, yp))
    except ZeroDivisionError as exc:
        return type(exc)


def _cleared_residual(fam, s, mu1):
    try:
        return pvi_residual_on_curve(fam if mu1 is None else replace(fam, mu1=mu1), s)
    except ZeroDivisionError as exc:
        return type(exc)


@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
def test_cleared_residual_equals_the_fraction_route(family):
    # bit for bit: one correctly rounded division of the cleared numerator
    # and denominator against complex() of the reduced Fraction
    fam = FAMILIES[family]
    rng = random.Random(16)
    for _ in range(25):
        s = F(rng.randint(-1000, 1000), rng.randint(1, 1000))
        for mu in (fam.mu1, F(-1, 3), F(1, 7), F(0)):
            want = _fraction_residual(fam, s, mu)
            got = _cleared_residual(fam, s, mu)
            assert repr(got) == repr(want), (s, mu)
            if mu == fam.mu1 and not isinstance(want, type):
                assert got == 0 and repr(got) == "0j"


@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
def test_cleared_residual_at_integer_parameter(family):
    fam = FAMILIES[family]
    for k in (2, -3, 7):
        for mu in (None, F(1, 7)):
            assert (repr(_cleared_residual(fam, k, mu))
                    == repr(_cleared_residual(fam, F(k), mu))
                    == repr(_fraction_residual(fam, F(k), mu)))


def _line(c0, c1):
    return RationalFunction((c0, c1), (1,))


@pytest.mark.parametrize("fam,s,error", [
    (FAMILIES["A3"], F(1, 3), ParametrizationPoleError),    # x-pole, 3s = 1
    (FAMILIES["A3"], F(-1), ParametrizationPoleError),      # x-pole, s = -1
    (FAMILIES["A3"], F(1), ZeroDivisionError),              # x = y = 0
    (FAMILIES["A3"], F(0), ZeroDivisionError),              # x = 1
    (FAMILIES["B3"], F(-2), ParametrizationPoleError),
    (FAMILIES["B3"], F(2), ZeroDivisionError),              # x = y = 0
    (FAMILIES["H3"], F(1, 3), ParametrizationPoleError),
    (FAMILIES["H3"], F(-1, 3), ZeroDivisionError),          # x = y = 0
    # x(s) = 2 + s^2, y(s) = 3 + s: x'(0) = 0
    (AlgebraicFamily("T", F(1, 7), RationalFunction((2, 0, 1), (1,)), _line(3, 1)),
     F(0), ZeroDivisionError),
    (AlgebraicFamily("T", F(1, 7), _line(2, 1), _line(2, 2)), F(0), ZeroDivisionError),  # y = x
    (AlgebraicFamily("T", F(1, 7), _line(2, 1), _line(1, 2)), F(0), ZeroDivisionError),  # y = 1
    (AlgebraicFamily("T", F(1, 7), _line(2, 1), _line(0, 2)), F(0), ZeroDivisionError),  # y = 0
    (AlgebraicFamily("T", F(1, 7), _line(2, 1), RationalFunction((1,), (-1, 2))),
     F(1, 2), ParametrizationPoleError),                                                 # y-pole
])
def test_cleared_residual_raises_where_the_fraction_route_does(fam, s, error):
    assert _fraction_residual(fam, s, None) is error
    with pytest.raises(error) as info:
        pvi_residual_on_curve(fam, s)
    assert type(info.value) is error


@pytest.mark.parametrize("y", [_line(1, 9), _line(0, 8), _line(-1, 8),
                               RationalFunction((1,), (-1, 8))])
def test_grid_skips_singular_and_pole_values(y):
    # at s = 1/8, the first point of the 2-point grid, x = 17/8 and
    # y = x, 1, 0 or a pole
    fam = AlgebraicFamily("T", F(1, 7), _line(2, 1), y)
    assert sample_parameters(fam, 2) == [F(3, 8), F(5, 8)]


@pytest.mark.parametrize("count", [0, -3])
def test_grid_of_no_samples_is_refused(count):
    # an empty grid would make verify_algebraic report 0.0 on no evidence
    with pytest.raises(ValueError, match=f"at least 1, got {count}"):
        sample_parameters(FAMILIES["B3"], count)
    with pytest.raises(ValueError, match=f"at least 1, got {count}"):
        verify_algebraic("B3", count)


def test_residual_table_is_exact_and_cleared():
    fam = FAMILIES["B3"]
    grid = sample_parameters(fam, 6)
    for s, x, y, res, num, den in residual_table(replace(fam, mu1=F(1, 7)), grid):
        assert (x, y) == algebraic_solution("B3", s)
        assert type(num) is int and type(den) is int and abs(num / den) == res
        assert res == abs(_fraction_residual(fam, s, F(1, 7)))


def test_residual_on_complex_parameter():
    fam = FAMILIES["H3"]
    for s in (0.11 + 0.07j, 0.2 - 0.3j):
        assert abs(pvi_residual_on_curve(fam, s)) < 1e-9


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_zero_length_path():
    pt = PviPoint(F(-1, 3), 1.6, 0.9, 0.1)
    out = pvi_integrate(pt, 1.6)
    assert out.y == pt.y and out.yprime == pt.yprime


def test_integrate_b3_segment_and_reverse():
    fam = FAMILIES["B3"]
    s0, s1 = F(3, 4), F(9, 10)
    x0, y0 = algebraic_solution("B3", s0)
    x1, y1 = algebraic_solution("B3", s1)
    yp0 = fam.y.jet(s0)[1] / fam.x.jet(s0)[1]
    pt = PviPoint(fam.mu1, complex(x0), complex(y0), complex(yp0))
    end = pvi_integrate(pt, complex(x1), tol=1e-11, margin=1e-4)
    assert abs(end.y - complex(y1)) < 1e-7
    back = pvi_integrate(end, complex(x0), tol=1e-11, margin=1e-4)
    assert abs(back.y - complex(y0)) < 1e-7


def test_integrate_b3_around_apparent_singularity():
    # between s = 0.4 and s = 0.6 the curve crosses y = 1 (an apparent
    # singularity); a two-leg complex detour reaches the exact endpoint
    fam = FAMILIES["B3"]
    s0, s1 = F(2, 5), F(3, 5)
    x0, y0 = algebraic_solution("B3", s0)
    x1, y1 = algebraic_solution("B3", s1)
    yp0 = fam.y.jet(s0)[1] / fam.x.jet(s0)[1]
    pt = PviPoint(fam.mu1, complex(x0), complex(y0), complex(yp0))
    mid = pvi_integrate(pt, 1.1 + 0.25j, tol=1e-11, margin=1e-6)
    end = pvi_integrate(mid, complex(x1), tol=1e-11, margin=1e-6)
    assert abs(end.y - complex(y1)) < 1e-7


def test_guard_refuses_singular_straight_path():
    from frobenii.ode import StepUnderflowError
    fam = FAMILIES["B3"]
    s0 = F(2, 5)
    x0, y0 = algebraic_solution("B3", s0)
    yp0 = fam.y.jet(s0)[1] / fam.x.jet(s0)[1]
    pt = PviPoint(fam.mu1, complex(x0), complex(y0), complex(yp0))
    # straight segment hits y = 1: margin forces the step size to collapse
    with pytest.raises(StepUnderflowError):
        pvi_integrate(pt, complex(x0) + 0.05, tol=1e-10, margin=2e-2)


# ---------------------------------------------------------------------------
# (q, p, k) chain
# ---------------------------------------------------------------------------

def test_y_to_qp_normalized_triple():
    # with u = (0, 1, x): q = y
    st = qp_from_family("B3", 0.8)
    fam = FAMILIES["B3"]
    assert abs(st.q - complex(fam.y(0.8))) < 1e-14


def test_y_to_qp_affine_covariance():
    fam = FAMILIES["A3"]
    s = 0.21
    x = complex(fam.x(s)); y = complex(fam.y(s))
    yp = complex(fam.y.jet(s)[1]) / complex(fam.x.jet(s)[1])
    a, b = 1.7 - 0.3j, 0.4 + 0.2j
    st1 = y_to_qp(y, yp, x, (0, 1, x))
    u2 = (b, a + b, a * x + b)
    st2 = y_to_qp(y, yp / a, x, u2)   # dy/dx scales as 1/a when u -> a u + b
    assert abs(st2.q - (a * st1.q + b)) < 1e-12


def test_y_to_qp_rejects_bad_x():
    with pytest.raises(ValueError):
        y_to_qp(0.5, 0.1, 2.0, (0, 1, 3.0))


def test_p_rejected_at_root_of_P():
    fam = FAMILIES["B3"]
    with pytest.raises(ZeroDivisionError):
        y_to_qp(0.0, 0.1, complex(fam.x(0.8)), (0, 1, complex(fam.x(0.8))))


@pytest.mark.parametrize("family,s0", [("B3", 0.8), ("A3", 0.21), ("H3", 0.15)])
def test_qp_flow_equations(family, s0):
    dq, dp = qp_flow_check(family, s0)
    assert dq < 1e-6
    assert dp < 1e-6


RATIONAL_POINTS = [("A3", F(21, 100)), ("B3", F(4, 5)), ("H3", F(3, 20))]


@pytest.mark.parametrize("family,s0", RATIONAL_POINTS)
def test_qp_flow_exact_at_rational_s(family, s0):
    assert qp_flow_check(family, s0) == (0.0, 0.0)


@pytest.mark.parametrize("family,s0", RATIONAL_POINTS)
@pytest.mark.parametrize("change", ["mu", "curve"])
def test_qp_flow_controls_break_p_only(monkeypatch, family, s0, change):
    # p is built from q and dy/dx, so the q equation holds on any curve;
    # a wrong mu, or y(s) of another family, breaks the p equation alone
    fam = FAMILIES[family]
    if change == "mu":
        bad = replace(fam, mu1=fam.mu1 + F(1, 7))
    else:
        bad = replace(fam, y=FAMILIES["B3" if family == "A3" else "A3"].y)
    monkeypatch.setitem(painleve.FAMILIES, family, bad)
    dq, dp = qp_flow_check(family, s0)
    assert dq == 0.0
    assert dp > 0


def test_log_k_quadrature_runs():
    val = log_k_increment("B3", 0.75, 0.85)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_reconstruct_psi_invariants():
    fam = FAMILIES["B3"]
    base_s = 0.75
    st0 = qp_from_family("B3", base_s)
    st0.logk = 0j
    Psi0 = reconstruct_psi(st0, fam.mu1)
    G0 = Psi0.T @ Psi0
    # eta_33 = 0 by the Lagrange interpolation identity
    assert abs(G0[2, 2]) < 1e-10
    mu = np.diag([float(fam.mu1), 0.0, -float(fam.mu1)]).astype(complex)
    V = Psi0 @ mu @ np.linalg.inv(Psi0)
    assert np.abs(V + V.T).max() < 1e-10
    # c from (3.17) is totally symmetric
    c = np.einsum("ia,ib,ig,i->abg", Psi0, Psi0, Psi0, 1.0 / Psi0[:, 0])
    for a in range(3):
        for b in range(3):
            for g in range(3):
                assert abs(c[a, b, g] - c[b, a, g]) < 1e-10
                assert abs(c[a, b, g] - c[g, b, a]) < 1e-10


def test_psi_gram_constant_along_curve():
    # Psi^T Psi stays constant when log k follows the quadrature (5.23)
    fam = FAMILIES["B3"]
    s0 = 0.75
    st0 = qp_from_family("B3", s0)
    st0.logk = 0j
    G0 = reconstruct_psi(st0, fam.mu1).T @ reconstruct_psi(st0, fam.mu1)
    worst = 0.0
    for s1 in (0.78, 0.82, 0.86):
        st1 = qp_from_family("B3", s1)
        st1.logk = log_k_increment("B3", s0, s1)
        G1 = reconstruct_psi(st1, fam.mu1).T @ reconstruct_psi(st1, fam.mu1)
        worst = max(worst, float(np.abs(G1 - G0).max()))
    assert worst < 1e-6


def test_qp_roundtrip_to_y():
    # the inverse of y_to_qp: y = (q - u1)/(u2 - u1) and
    # y' = (p + 1/(2(q - u3))) 2 P(q) / P'(u3)
    fam = FAMILIES["B3"]
    s = 0.8
    x = complex(fam.x(s)); y = complex(fam.y(s))
    yp = complex(fam.y.jet(s)[1]) / complex(fam.x.jet(s)[1])
    u = (0, 1, x)
    st = y_to_qp(y, yp, x, u)
    y_back = (st.q - u[0]) / (u[1] - u[0])
    P = lambda lam: (lam - u[0]) * (lam - u[1]) * (lam - u[2])
    Pp_u3 = (u[2] - u[0]) * (u[2] - u[1])
    yp_back = (st.p + 1 / (2 * (st.q - u[2]))) * 2 * P(st.q) / Pp_u3
    assert abs(y_back - y) < 1e-12
    assert abs(yp_back - yp) < 1e-10


def test_y_to_qp_rejects_coincident_u():
    with pytest.raises(ValueError):
        y_to_qp(0.5, 0.1, 1.0, (0, 1, 1))
