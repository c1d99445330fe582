"""PVI(mu): residual evaluation, the three algebraic families, integration
and the (q, p, k) -> Psi chain."""

import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from rk_reference import rk_integrate

from frobenii.painleve import (
    FAMILIES, H3_DEGREE9, AlgebraicFamily, ParametrizationPoleError, PviPoint, QpkState,
    RationalFunction, log_k_increment, pvi_integrate, pvi_residual_on_curve,
    pvi_rhs, qp_flow_check, qp_from_family, qp_from_v, reconstruct_psi,
    residual_table, sample_parameters, v_from_qp, verify_algebraic, y_to_qp,
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


# ---------------------------------------------------------------------------
# algebraic families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
def test_residual_vanishes_exactly_on_rational_grid(family):
    assert verify_algebraic(FAMILIES[family], sample_count=50) == 0.0


@pytest.mark.parametrize("family,mu", [("A3", F(-1, 4)), ("B3", F(-1, 3)),
                                       ("H3", F(-2, 5))])
def test_family_mu_values(family, mu):
    assert FAMILIES[family].mu1 == mu


@pytest.mark.parametrize("family,wrong", [("A3", F(-1, 3)), ("B3", F(-1, 4)),
                                          ("H3", F(-1, 4))])
def test_negative_control_swapped_mu(family, wrong):
    assert verify_algebraic(replace(FAMILIES[family], mu1=wrong), sample_count=20) > 1e-2


def test_b3_sample_point():
    fam = FAMILIES["B3"]
    x, y = fam.x(F(1, 2)), fam.y(F(1, 2))
    assert x == F(27, 25)
    assert y == F(1089, 1090)


def test_a3_denominator_evaluates_exactly():
    # y-denominator (1+s)(25 - 207 s^2 + 1539 s^4 + 243 s^6) at s = 1/5
    s = F(1, 5)
    x, y = FAMILIES["A3"].x(s), FAMILIES["A3"].y(s)
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
        FAMILIES["A3"].x(F(1, 3))    # x-pole at 3s = 1


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
        verify_algebraic(FAMILIES["B3"], count)


def test_residual_table_is_exact_and_cleared():
    fam = FAMILIES["B3"]
    grid = sample_parameters(fam, 6)
    for s, x, y, res, num, den in residual_table(replace(fam, mu1=F(1, 7)), grid):
        assert (x, y) == (fam.x(s), fam.y(s))
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
    out, diag = pvi_integrate(pt, 1.6)
    assert out.y == pt.y and out.yprime == pt.yprime
    assert (diag.segments, diag.stats.steps, diag.max_order) == (0, 0, 0)


@pytest.mark.parametrize("x1", [1.6, 1.7])
def test_mu_zero_is_refused(x1):
    # V = mu (psi_1 psi_3^T - psi_3 psi_1^T) vanishes: no (y, y') to carry
    with pytest.raises(ValueError, match="mu must be nonzero"):
        pvi_integrate(PviPoint(F(0), 1.6, 0.9, 0.1), x1)


def _family_point(fam, s0):
    x0, y0 = fam.x(s0), fam.y(s0)
    yp0 = fam.y.jet(s0)[1] / fam.x.jet(s0)[1]
    return PviPoint(fam.mu1, complex(x0), complex(y0), complex(yp0))


@pytest.mark.parametrize("tol, message", [
    (0.0, "tol must be positive, got 0.0"),
    (float("nan"), "tol must be positive, got nan"),
    (float("inf"), "tol must be finite, got inf"),
])
def test_a_tolerance_not_positive_and_finite_is_refused(tol, message):
    # also on a segment of length zero
    pt = _family_point(FAMILIES["B3"], F(3, 4))
    for x1 in (pt.x, pt.x + 0.05):
        with pytest.raises(ValueError) as info:
            pvi_integrate(pt, x1, tol=tol)
        assert str(info.value) == message


def test_integrate_b3_segment_and_reverse():
    fam = FAMILIES["B3"]
    s0, s1 = F(3, 4), F(9, 10)
    pt = _family_point(fam, s0)
    end, _ = pvi_integrate(pt, complex(fam.x(s1)), tol=1e-11)
    assert abs(end.y - complex(fam.y(s1))) < 1e-7
    back, _ = pvi_integrate(end, pt.x, tol=1e-11)
    assert abs(back.y - pt.y) < 1e-7


def test_integrate_b3_around_apparent_singularity():
    # between s = 0.4 and s = 0.6 the curve crosses y = 1 (an apparent
    # singularity); a two-leg complex detour reaches the exact endpoint
    fam = FAMILIES["B3"]
    s0, s1 = F(2, 5), F(3, 5)
    pt = _family_point(fam, s0)
    mid, _ = pvi_integrate(pt, 1.1 + 0.25j, tol=1e-11)
    end, _ = pvi_integrate(mid, complex(fam.x(s1)), tol=1e-11)
    assert abs(end.y - complex(fam.y(s1))) < 1e-7


def test_straight_path_through_y_1_finishes():
    # y - 1 = -s^2 (s^2 + 2s - 1)^2 / den(s): the straight segment meets
    # y = 1 at s = sqrt(2) - 1, where the y-form of PVI is singular; the
    # isomonodromic flow of V is regular there
    fam = FAMILIES["B3"]
    s0, s1 = F(2, 5), F(3, 5)
    assert s0 < 2 ** 0.5 - 1 < s1 and abs(fam.y(2 ** 0.5 - 1) - 1) < 1e-15
    end, diag = pvi_integrate(_family_point(fam, s0), complex(fam.x(s1)))
    assert abs(end.y - complex(fam.y(s1))) < 1e-10
    assert diag.stats.steps >= 1


def _branches_over(fam, x1):
    """Every s with x(s) = x1: np.roots of num(s) - x1 den(s), polished by
    Newton on the jet of x."""
    num, den = fam.x.num, fam.x.den
    width = max(len(num), len(den))
    coeffs = [complex(a) - x1 * b for a, b in zip(num + (0,) * (width - len(num)),
                                                  den + (0,) * (width - len(den)))]
    roots = []
    for s in np.roots(coeffs[::-1]):
        for _ in range(4):
            x, xs, _ = fam.x.jet(complex(s))
            s = s - (x - x1) / xs
        roots.append(complex(s))
    return roots


def test_every_finished_segment_ends_on_a_branch():
    # straight x-segments between seeded parameters: the end y is y(s) at a
    # root s of x(s) = x1, not necessarily s1 (the x-segment can wind round
    # a branch point); a segment that crosses x = 0 or 1 is a collision
    from frobenii.semisimple import CoalescingEigenvaluesError
    rng = random.Random(18)
    segments = finished = 0
    while segments < 150:
        fam = FAMILIES[rng.choice(("A3", "B3", "H3"))]
        s0 = F(3 * rng.randint(1, 399), 400) - 1
        s1 = s0 + F(rng.randint(-40, 40), 400)
        try:
            pt = _family_point(fam, s0)
            x1 = complex(fam.x(s1))
        except ZeroDivisionError:
            continue
        if s1 == s0 or abs(x1 - pt.x) > 2:
            continue
        segments += 1
        try:
            end, _ = pvi_integrate(pt, x1)
        except CoalescingEigenvaluesError:
            continue
        finished += 1
        ys = [complex(fam.y(s)) for s in _branches_over(fam, x1)]
        err = min(abs(end.y - y) / max(1.0, abs(y)) for y in ys)
        assert err < 1e-9, (fam.name, s0, s1, err)
    assert finished >= 120
# ---------------------------------------------------------------------------
# (q, p, k) chain
# ---------------------------------------------------------------------------

def test_y_to_qp_normalized_triple():
    # with u = (0, 1, x): q = y
    fam = FAMILIES["B3"]
    st = qp_from_family(fam, 0.8)
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
    dq, dp = qp_flow_check(FAMILIES[family], s0)
    assert dq < 1e-6
    assert dp < 1e-6


RATIONAL_POINTS = [("A3", F(21, 100)), ("B3", F(4, 5)), ("H3", F(3, 20))]


@pytest.mark.parametrize("family,s0", RATIONAL_POINTS)
def test_qp_flow_exact_at_rational_s(family, s0):
    assert qp_flow_check(FAMILIES[family], s0) == (0.0, 0.0)


@pytest.mark.parametrize("family,s0", RATIONAL_POINTS)
@pytest.mark.parametrize("change", ["mu", "curve"])
def test_qp_flow_controls_break_p_only(family, s0, change):
    # p is built from q and dy/dx, so the q equation holds on any curve;
    # a wrong mu, or y(s) of another family, breaks the p equation alone
    fam = FAMILIES[family]
    if change == "mu":
        bad = replace(fam, mu1=fam.mu1 + F(1, 7))
    else:
        bad = replace(fam, y=FAMILIES["B3" if family == "A3" else "A3"].y)
    dq, dp = qp_flow_check(bad, s0)
    assert dq == 0.0
    assert dp > 0


def test_log_k_quadrature_runs():
    val = log_k_increment(FAMILIES["B3"], 0.75, 0.85)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def _log_k_by_runge_kutta(fam, s_from, s_to):
    """d log k/ds = (2 mu - 1)(q - x) x'/(x (x - 1)) on u = (0, 1, x(s))
    integrated along the straight s-segment at tol 1e-12."""
    mu1 = complex(fam.mu1)
    s0 = complex(s_from)
    ds = complex(s_to) - s0

    def f(sig, y):
        s = s0 + sig * ds
        x, xs, _ = fam.x.jet(s)
        return np.array([(2 * mu1 - 1) * (fam.y(s) - x) / (x * (x - 1)) * xs * ds])

    return complex(rk_integrate(f, np.zeros(1, dtype=complex), 0.0, 1.0, tol=1e-12)[0])


@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
def test_log_k_closed_form_against_runge_kutta(family):
    fam = FAMILIES[family]
    segments = [(F(3, 4), F(17, 20)), (F(17, 20), F(3, 4)), (F(2, 5), 0.5 + 0.1j),
                (0.5 + 0.1j, F(3, 5)), (0.3 + 0.2j, 1.7 - 0.3j)]
    for s0, s1 in segments:
        ref = _log_k_by_runge_kutta(fam, s0, s1)
        assert abs(log_k_increment(fam, s0, s1) - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("family, want", [
    ("A3", {F(3), F(1), F(-2, 3)}),
    ("B3", {F(1), F(2), F(-3, 5)}),
    ("H3", {F(5), F(3), F(1), F(-5, 9)}),
])
def test_log_k_residues_are_the_factor_coefficients(family, want):
    # d log k/ds = (2 mu - 1) sum_f c_f f'/f over the factors f of x and y
    # (ROADMAP item 3): every pole of N/D has one of the c_f as its residue
    _, res = FAMILIES[family]._log_k_residues
    got = {min(want, key=lambda c: abs(r - c)) for r in res}
    assert got == want
    assert all(min(abs(r - float(c)) for c in want) < 1e-9 for r in res)


def test_log_k_round_a_pole_and_round_none():
    # a triangle round A3's pole s = 1/3 (residue 1) gains 2 pi i (2 mu - 1);
    # a square that encloses no pole gains nothing, on every family
    fam = FAMILIES["A3"]
    loop = [0.3 - 0.05j, 0.4 + 0j, 0.3 + 0.05j]
    total = sum(log_k_increment(fam, a, b) for a, b in zip(loop, loop[1:] + loop[:1]))
    assert abs(total - 2j * np.pi * (2 * float(fam.mu1) - 1)) < 1e-12
    square = [0.6 + 0j, 0.9 + 0j, 0.9 + 0.2j, 0.6 + 0.2j]
    for fam in FAMILIES.values():
        total = sum(log_k_increment(fam, a, b)
                    for a, b in zip(square, square[1:] + square[:1]))
        assert abs(total) < 1e-12


@pytest.mark.parametrize("family", ["A3", "H3"])
def test_log_k_segment_through_a_pole_is_refused(family):
    # 0.2 -> 0.4 crosses the pole s = 1/3; an endpoint on it is refused too
    fam = FAMILIES[family]
    with pytest.raises(ParametrizationPoleError, match=r"from s = 0\.2 to s = 0\.4 meets"):
        log_k_increment(fam, 0.2, 0.4)
    with pytest.raises(ParametrizationPoleError, match=r"from s = 1/3 to s = 1/2 meets"):
        log_k_increment(fam, F(1, 3), F(1, 2))


@pytest.mark.parametrize("family, other, why", [
    ("B3", "A3", "multiple pole"),
    ("A3", "B3", "deg N = 9 >= deg D = 9"),
])
def test_log_k_refuses_a_family_without_a_closed_form(family, other, why):
    # with another family's y, log k is no sum of logarithms
    fam = replace(FAMILIES[family], name=f"{family} with {other}'s y",
                  y=FAMILIES[other].y)
    with pytest.raises(ValueError, match=f"^{family} with {other}'s y: .*{why}"):
        log_k_increment(fam, F(3, 4), F(17, 20))


def test_reconstruct_psi_invariants():
    # at every s and k: Psi^T Psi = eta = antidiag(1, 1, 1), V = Psi mu Psi^-1
    # is skew and c from (3.17) is totally symmetric; c itself depends on k
    fam = FAMILIES["B3"]
    mu = np.diag([float(fam.mu1), 0.0, -float(fam.mu1)]).astype(complex)
    eta = np.eye(3)[::-1]
    cs = []
    for s, logk in [(0.75, 0j), (0.75, 0.37 + 0.2j), (0.75, 5 + 0j), (0.86, 0.37 + 0.2j)]:
        st = qp_from_family(fam, s)
        st.logk = logk
        Psi = reconstruct_psi(st, fam.mu1)
        assert np.abs(Psi.T @ Psi - eta).max() < 1e-10
        V = Psi @ mu @ np.linalg.inv(Psi)
        assert np.abs(V + V.T).max() < 1e-10
        c = np.einsum("ia,ib,ig,i->abg", Psi, Psi, Psi, 1.0 / Psi[:, 0])
        assert np.abs(c - c.transpose(1, 0, 2)).max() < 1e-10
        assert np.abs(c - c.transpose(2, 1, 0)).max() < 1e-10
        cs.append(c)
    assert np.abs(cs[1] - cs[0]).max() > 1e-3


def test_psi_gram_constant_along_curve():
    # Psi^T Psi stays constant when log k follows the quadrature (5.23)
    fam = FAMILIES["B3"]
    s0 = 0.75
    st0 = qp_from_family(fam, s0)
    st0.logk = 0j
    G0 = reconstruct_psi(st0, fam.mu1).T @ reconstruct_psi(st0, fam.mu1)
    worst = 0.0
    for s1 in (0.78, 0.82, 0.86):
        st1 = qp_from_family(fam, s1)
        st1.logk = log_k_increment(fam, s0, s1)
        G1 = reconstruct_psi(st1, fam.mu1).T @ reconstruct_psi(st1, fam.mu1)
        worst = max(worst, float(np.abs(G1 - G0).max()))
    assert worst < 1e-6


def test_an_unregistered_family_gives_the_registered_values():
    # the functions act on the family value: a copy outside FAMILIES under
    # another name gives what B3 gives
    fam = FAMILIES["B3"]
    copy = replace(fam, name="B3*")
    assert "B3*" not in FAMILIES
    assert verify_algebraic(copy, sample_count=10) == verify_algebraic(fam, sample_count=10)
    assert qp_from_family(copy, 0.8) == qp_from_family(fam, 0.8)
    assert qp_flow_check(copy, F(4, 5)) == qp_flow_check(fam, F(4, 5))
    assert log_k_increment(copy, 0.75, 0.85) == log_k_increment(fam, 0.75, 0.85)


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


@pytest.mark.parametrize("family", ["A3", "B3", "H3"])
@pytest.mark.parametrize("s", [F(3, 10), F(3, 4), 0.2 + 0.1j])
def test_v_round_trip(family, s):
    # (q, p) -> V -> (q, p); V is skew with spectrum (mu, 0, -mu)
    fam = FAMILIES[family]
    st = qp_from_family(fam, s)
    V = v_from_qp(st, fam.mu1)
    mu = float(fam.mu1)
    assert np.abs(V + V.T).max() < 1e-12
    assert np.abs(np.sort_complex(np.linalg.eigvals(V)) - [mu, 0, -mu]).max() < 1e-10
    back = qp_from_v(st.u[2], V, fam.mu1)
    assert back.u == st.u and back.logk == 0
    assert abs(back.q - st.q) <= 1e-10 * max(1.0, abs(st.q))
    assert abs(back.p - st.p) <= 1e-10 * max(1.0, abs(st.p))
