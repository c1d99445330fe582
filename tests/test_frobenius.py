"""WDVV potentials: checks, tensors, monodromy, deformed coordinates,
symmetries, tensor locus, catalog and serialization."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest

from frobenii.exact import ExactMatrix, ExpPolynomial, QuadScalar
from frobenii.frobenius import (
    CATALOG_NAMES, DegenerateMetricError, FrobeniusPotential,
    NonConstantMetricError,
    catalog, check_grading_eta, check_quasihomogeneity, check_wdvv1,
    deformed_flat_coords, euler_multiplication_symbolic, gradient_pairing,
    intersection_form, inversion, legendre, metric_eta, origin_monodromy,
    potential_from_dict, potential_from_json, potential_to_dict, potential_to_json, structure_constants,
    tensor_locus,
)


def _window(P, p):
    """p truncated to the exp window of P, if P has one."""
    return p if P.exp_truncation is None else p.truncate_exp(*P.exp_truncation)


ALL_NAMES = ["I2(3)", "I2(4)", "I2(5)", "A3", "B3", "H3",
             "A4", "B4", "D4", "F4", "H4", "CP1"]


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_a3_antidiagonal():
    eta = metric_eta(catalog("A3"))
    assert eta == ExactMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_metric_cp1():
    eta = metric_eta(catalog("CP1"))
    assert eta == ExactMatrix([[0, 1], [1, 0]])


def test_metric_nonconstant_rejected():
    # d1 d2 d2 F = t3 is not constant
    F_ = (ExpPolynomial.variable(3, 0) * ExpPolynomial.variable(3, 1) ** 2
          * ExpPolynomial.variable(3, 2)).scale(F(1, 2)) \
        + ExpPolynomial.variable(3, 0) ** 2 * ExpPolynomial.variable(3, 2)
    P = FrobeniusPotential(3, F_, F(1), (F(0), F(1, 2), F(1, 2)),
                           (F(0),) * 3)
    with pytest.raises(NonConstantMetricError):
        metric_eta(P)


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "CP2(6)", "A3 residues",
                                  "A4 residues", "A5 residues"])
def test_eta_is_the_unity_plane_of_c(name):
    # eta is read from c_1ab, not derived a second time: the cached eta,
    # metric_eta and the unity plane of the cached c_abg agree
    from frobenii.singularity import a_n_structure
    P = a_n_structure(int(name[1]))[1] if name.endswith("residues") else catalog(name)
    T = P.tensors
    assert T.eta == metric_eta(P)
    plane = T.c_low[P.unity_index]
    assert all(plane[a][b] == T.eta[a, b] for a in range(P.n) for b in range(P.n))


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def test_a3_three_point_functions():
    P = catalog("A3")
    c_low, c_up, eta, _ = structure_constants(P)
    t2 = ExpPolynomial.variable(3, 1)
    t3 = ExpPolynomial.variable(3, 2)
    assert c_low[1][1][2] == t3.scale(F(-1, 4))
    assert c_low[1][2][2] == t2.scale(F(-1, 4))
    assert c_low[2][2][2] == (t3 * t3).scale(F(1, 16))
    assert c_low[0][0][2] == ExpPolynomial.constant(3, 1)
    assert c_low[0][1][1] == ExpPolynomial.constant(3, 1)
    # c_{1 b}^g = delta
    for b in range(3):
        for g in range(3):
            want = ExpPolynomial.constant(3, 1 if b == g else 0)
            assert c_up[0][b][g] == want


def test_cp1_exponential_structure_constant():
    P = catalog("CP1")
    c_low, _, _, _ = structure_constants(P)
    assert c_low[1][1][1] == ExpPolynomial.monomial(2, 1, (0, 0), (0, 1))


def test_c_total_symmetry_and_unity_row():
    for nm in ("A3", "B4", "CP1"):
        P = catalog(nm)
        c_low, _, eta, _ = structure_constants(P)
        n = P.n
        for a in range(n):
            for b in range(n):
                assert c_low[0][a][b].is_constant()
                assert c_low[0][a][b].constant_term() == eta[a, b]
                for g in range(n):
                    assert c_low[a][b][g] == c_low[b][a][g] == c_low[g][b][a]


def test_quasihomogeneity_of_structure_constants():
    # L_E c_abg = (q_a + q_b + q_g - d) c_abg for homogeneous entries
    for nm in ("A3", "H3", "D4"):
        P = catalog(nm)
        c_low, _, _, _ = structure_constants(P)
        for a in range(P.n):
            for b in range(P.n):
                for g in range(P.n):
                    lhs = P.lie_euler(c_low[a][b][g])
                    rhs = c_low[a][b][g].scale(P.q[a] + P.q[b] + P.q[g] - P.d)
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# the three checks over the catalog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_entry_passes_all_checks(name):
    P = catalog(name)
    assert check_wdvv1(P).passed
    qrep, A, B, C = check_quasihomogeneity(P)
    assert qrep.passed
    assert check_grading_eta(P)


def test_a3_quasihomogeneity_data_vanishes():
    _, A, B, C = check_quasihomogeneity(catalog("A3"))
    assert all(x == 0 for row in A for x in row)
    assert all(x == 0 for x in B)
    assert C == 0


def test_cp1_quasihomogeneity_A_matches_r():
    P = catalog("CP1")
    _, A, B, C = check_quasihomogeneity(P)
    # A_{1 alpha} = eta_{alpha eps} r_eps: here A_11 = eta_12 r_2 = 2
    assert A[0][0] == 2
    assert B == [0, 0] and C == 0


def _reference_quasihomogeneity(P):
    """(passed, A, B, C) with the normalization as three formulas, one per
    degree: A_ij stays where q_i + q_j = d - 1, B_i where q_i = d - 2 and C
    where d = 3."""
    n = P.n
    rem = _window(P, P.lie_euler(P.F) - P.F.scale(3 - P.d))
    ok = (not rem.has_exp()) and rem.total_degree() <= 2
    A = [[F(0)] * n for _ in range(n)]
    B = [F(0)] * n
    C = F(0)
    for (pows, _), coeff in rem.terms.items() if ok else ():
        assert coeff.is_rational()
        idx = [i for i, p in enumerate(pows) for _ in range(p)]
        if len(idx) == 0:
            C = coeff.a
        elif len(idx) == 1:
            B[idx[0]] = coeff.a
        else:
            i, j = idx
            A[i][j] = A[j][i] = coeff.a * (2 if i == j else 1)
    for i in range(n):
        for j in range(i, n):
            if P.q[i] + P.q[j] != P.d - 1:
                A[i][j] = A[j][i] = F(0)
        if P.q[i] != P.d - 2:
            B[i] = F(0)
    if P.d != 3:
        C = F(0)
    return ok, A, B, C


def _seeded_quadratic(n, rng):
    """A random rational combination of 1, t^i and t^i t^j."""
    g = ExpPolynomial.zero(n)
    for pows in itertools.product(range(3), repeat=n):
        if sum(pows) <= 2 and rng.random() < 0.5:
            g = g + ExpPolynomial.monomial(n, F(rng.randint(-9, 9), rng.randint(1, 5)), pows)
    return g


def _quasihomogeneity_cases():
    from dataclasses import replace
    rng = random.Random(25)
    pots = [catalog(name) for name in ALL_NAMES + ["CP2(3)"]]
    pots += [inversion(catalog(name)) for name in ("I2(4)", "A3")]
    # a bare quadratic F on a grading where every degree has a resonant
    # direction for some charge d
    for d in (F(1), F(2), F(5, 2), F(3)):
        pots.append(FrobeniusPotential(3, ExpPolynomial.zero(3), d,
                                       (F(0), F(1, 2), F(1)), (F(0), F(0), F(2))))
    return [replace(P, F=P.F + _seeded_quadratic(P.n, rng))
            for P in pots for _ in range(3)] + pots


def test_one_resonance_test_matches_the_three_formulas():
    # a term t^a of L_E F - (3 - d) F stays iff its Euler eigenvalue
    # sum_i a_i (1 - q_i) is 3 - d: at degrees 2, 1 and 0 that is
    # q_i + q_j = d - 1, q_i = d - 2 and d = 3
    kept = [0, 0, 0]
    for P in _quasihomogeneity_cases():
        qrep, A, B, C = check_quasihomogeneity(P)
        assert (qrep.passed, A, B, C) == _reference_quasihomogeneity(P), P.name
        kept[0] += any(x for row in A for x in row)
        kept[1] += any(B)
        kept[2] += C != 0
    assert min(kept) > 0  # each degree keeps a resonant term somewhere


def test_perturbed_a3_fails():
    P = catalog("A3")
    bad = P.F + ExpPolynomial.monomial(3, F(1, 961) - F(1, 960), (0, 0, 5))
    Q = FrobeniusPotential(3, bad, P.d, P.q, P.r, name="A3-broken")
    rep = check_wdvv1(Q)
    assert not rep.passed
    assert rep.max_nonzero() > 0


def _wdvv_by_double_contraction(P):
    # the route check_wdvv1 replaced: c_abl eta^{lm} c_mgd - (a <-> d),
    # contracted from c_low and eta^{-1} for every residual
    n = P.n
    c_low, _, _, eta_inv = structure_constants(P)

    def pairing(a, b, g, d):
        acc = ExpPolynomial.zero(n)
        for l in range(n):
            for m in range(n):
                if eta_inv[l, m]:
                    acc = acc + (c_low[a][b][l] * c_low[m][g][d]).scale(eta_inv[l, m])
        return acc
    return {(a, b, g, d): _window(P, pairing(a, b, g, d) - pairing(d, b, g, a))
            for a in range(n) for d in range(a + 1, n)
            for b in range(n) for g in range(b, n)}


def _perturbed(name):
    # the coefficient of F's last non-cubic term moved by 1/7; a truncated
    # potential keeps its truncation
    P = catalog(name)
    key = max(k for k in P.F.terms if sum(k[0]) >= 4)
    terms = dict(P.F.terms)
    terms[key] = terms[key] + QuadScalar(F(1, 7))
    return FrobeniusPotential(P.n, ExpPolynomial(P.n, terms), P.d, P.q, P.r,
                              name=name + "~", exp_truncation=P.exp_truncation)


@pytest.mark.parametrize("name", CATALOG_NAMES + ["CP2(6)", "CP2(8)", "CP2(10)",
                                                  "H3~", "H4~", "CP2(8)~"])
def test_wdvv_residuals_match_the_double_contraction(name):
    perturbed = name.endswith("~")
    P = _perturbed(name[:-1]) if perturbed else catalog(name)
    rep = check_wdvv1(P)
    want = _wdvv_by_double_contraction(P)
    assert list(rep.residuals) == list(want)
    assert rep.residuals == want
    assert rep.passed != perturbed
    # X(ab, gd) is formed once per unordered pair of unordered pairs but
    # X(aa, aa); only a truncated potential skips products
    pairs = P.n * (P.n + 1) // 2
    assert rep.entries == pairs * (pairs + 1) // 2 - P.n
    assert rep.products > 0 and (rep.skipped > 0) == (P.exp_truncation is not None)
    assert (rep.max_nonzero() > 0) == perturbed


def test_degenerate_metric_is_a_typed_error():
    # F = t1^3/6 + t2^3/6: eta = diag(1, 0)
    t1, t2 = (ExpPolynomial.variable(2, a) for a in range(2))
    P = FrobeniusPotential(2, (t1 ** 3 + t2 ** 3).scale(F(1, 6)), F(0),
                           (F(0), F(0)), (F(0), F(0)))
    assert metric_eta(P) == ExactMatrix([[1, 0], [0, 0]])
    with pytest.raises(DegenerateMetricError, match="degenerate"):
        P.tensors
    rep = check_wdvv1(P)
    assert not rep.passed
    assert "degenerate" in rep.details


def test_quasihomogeneity_failure_reports_remainder():
    from dataclasses import replace
    P = catalog("A3")
    Q = replace(P, F=P.F + ExpPolynomial.monomial(3, 1, (0, 0, 4)))
    qrep, *_ = check_quasihomogeneity(Q)
    assert not qrep.passed
    assert qrep.residuals[(0,)] == ExpPolynomial.monomial(3, F(-1, 2), (0, 0, 4))


def test_laurent_remainder_of_degree_two_fails_quasihomogeneity():
    # L_E F - (3-d) F = t1^3/t2 / 2 has total degree 2 but is no quadratic
    P = FrobeniusPotential(2, ExpPolynomial.monomial(2, 1, (3, -1)), F(1),
                           (F(0), F(1, 2)), (F(0), F(0)))
    qrep, A, B, C = check_quasihomogeneity(P)
    assert not qrep.passed
    assert qrep.residuals[(0,)] == ExpPolynomial.monomial(2, F(1, 2), (3, -1))


def test_wrong_charge_fails_quasihomogeneity():
    P = catalog("A3")
    Q = FrobeniusPotential(3, P.F, F(1), (F(0), F(1, 2), F(1)), (F(0),) * 3)
    qrep, *_ = check_quasihomogeneity(Q)
    assert not qrep.passed


def test_n2_wdvv1_vacuous():
    # any n = 2 potential passes WDVV1 (the equations are empty/identities)
    F_ = (ExpPolynomial.variable(2, 0) ** 2 * ExpPolynomial.variable(2, 1)
          ).scale(F(1, 2)) + ExpPolynomial.variable(2, 1) ** 7
    P = FrobeniusPotential(2, F_, F(5, 7), (F(0), F(5, 7)), (F(0), F(0)))
    assert check_wdvv1(P).passed


def test_nonsemisimple_family_exercise():
    # F = t1^2 t4/2 + t1 t2 t3 + f(t2), E = t1 d1 - t3 d3 - 2 t4 d4, d = 3
    for fpoly in [ExpPolynomial.monomial(4, 1, (0, 5, 0, 0)),
                  ExpPolynomial.monomial(4, 1, (0, 3, 0, 0))
                  + ExpPolynomial.monomial(4, 2, (0, 7, 0, 0)),
                  ExpPolynomial.zero(4)]:
        base = (ExpPolynomial.variable(4, 0) ** 2
                * ExpPolynomial.variable(4, 3)).scale(F(1, 2)) \
            + (ExpPolynomial.variable(4, 0) * ExpPolynomial.variable(4, 1)
               * ExpPolynomial.variable(4, 2))
        P = FrobeniusPotential(4, base + fpoly, F(3),
                               (F(0), F(1), F(2), F(3)), (F(0),) * 4)
        assert check_wdvv1(P).passed
        qrep, *_ = check_quasihomogeneity(P)
        assert qrep.passed


# ---------------------------------------------------------------------------
# grading of eta, mu, R1
# ---------------------------------------------------------------------------

def test_grading_violation_detected():
    F_ = (ExpPolynomial.variable(2, 0) ** 2 * ExpPolynomial.variable(2, 0)
          ).scale(F(1, 6)) + \
        (ExpPolynomial.variable(2, 0) * ExpPolynomial.variable(2, 1) ** 2
         ).scale(F(1, 2))
    # eta_11 = t-independent nonzero with d != 0 forces a violation
    P = FrobeniusPotential(2, F_, F(1, 3), (F(0), F(1, 6)), (F(0), F(0)))
    assert not check_grading_eta(P)


def test_origin_monodromy_a3():
    mono = origin_monodromy(catalog("A3"))
    assert mono.mu == [F(-1, 4), F(0), F(1, 4)]
    assert mono.R1 == ExactMatrix.zeros(3)


def test_origin_monodromy_cp1():
    mono = origin_monodromy(catalog("CP1"))
    assert mono.mu == [F(-1, 2), F(1, 2)]
    assert mono.R1 == ExactMatrix([[0, 0], [2, 0]])


def _r1_from_full_cubic_tensors(P):
    # the route origin_monodromy replaced: every tensor of the cubic part
    n = P.n
    cubic = FrobeniusPotential(n, P.F.polynomial_part(), P.d, P.q, P.r,
                               unity_index=P.unity_index)
    c_up = cubic.tensors.c_up
    rows = [[QuadScalar(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for e in range(n):
                if P.r[e]:
                    rows[a][b] = rows[a][b] + \
                        c_up[e][b][a].constant_term() * QuadScalar(P.r[e])
    return ExactMatrix(rows)


@pytest.mark.parametrize("name", CATALOG_NAMES + ["CP2(6)"])
def test_origin_monodromy_matches_the_full_cubic_build(name):
    from frobenii.gwcp2 import truncated_potential
    P = truncated_potential(6) if name == "CP2(6)" else catalog(name)
    mono = origin_monodromy(P)
    assert mono.R1 == _r1_from_full_cubic_tensors(P)
    assert mono.mu == P.mu()


def test_origin_monodromy_without_shifts_builds_nothing(monkeypatch):
    from frobenii import frobenius
    P = catalog("H4")
    for name in ("structure_constants", "_third_derivatives"):
        monkeypatch.setattr(frobenius, name, lambda *a: pytest.fail(name))
    mono = origin_monodromy(P)
    assert mono.R1 == ExactMatrix.zeros(4)
    assert "tensors" not in vars(P)


def test_origin_monodromy_keeps_its_refusals():
    # a shift on a quartic cubic part: non-constant c_{e b}^a
    t = [ExpPolynomial.variable(2, a) for a in range(2)]
    F_ = (t[0] * t[0] * t[1]).scale(F(1, 2)) + (t[1] * t[1] * t[1] * t[1]).scale(F(1, 12))
    P = FrobeniusPotential(2, F_, F(0), (F(0), F(1)), (F(0), F(1)))
    from frobenii.exact.exppoly import NotClosedFormError
    with pytest.raises(NotClosedFormError):
        origin_monodromy(P)
    # a shift whose R1 entry sits where mu_a - mu_b is not 1
    G = (t[0] * t[0] * t[1]).scale(F(1, 2)) + (t[1] * t[1] * t[1]).scale(F(1, 6))
    Q = FrobeniusPotential(2, G, F(1, 2), (F(0), F(1)), (F(0), F(1)))
    with pytest.raises(ValueError, match="mu gap"):
        origin_monodromy(Q)


def test_mu_eta_antisymmetry():
    for nm in ALL_NAMES:
        P = catalog(nm)
        eta = metric_eta(P)
        mu = P.mu()
        for a in range(P.n):
            for b in range(P.n):
                # (mu eta + eta mu)_ab = (mu_a + mu_b) eta_ab
                assert (mu[a] + mu[b]) * eta[a, b] == QuadScalar(0) \
                    or eta[a, b] == QuadScalar(0)


# ---------------------------------------------------------------------------
# intersection form
# ---------------------------------------------------------------------------

def test_intersection_form_discriminant_a3():
    P = catalog("A3")
    g, gamma = intersection_form(P)
    U = euler_multiplication_symbolic(P)
    # g = U eta^{-1} so det g = det U / det eta; for A3 det eta = -1
    def det3(M):
        out = ExpPolynomial.zero(3)
        from itertools import permutations
        sign = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
        for perm, sg in sign.items():
            term = M[0][perm[0]] * M[1][perm[1]] * M[2][perm[2]]
            out = out + (term if sg > 0 else -term)
        return out
    assert det3(g) == -det3(U) or det3(g) == det3(U).scale(-1)


def test_intersection_form_t1_part():
    # g^{ab} = t^1 eta^{ab} + (terms without t^1)
    for nm in ("A3", "CP1"):
        P = catalog(nm)
        g, _ = intersection_form(P)
        eta_inv = metric_eta(P).inverse()
        for a in range(P.n):
            for b in range(P.n):
                coef = g[a][b].coefficient([1 if i == 0 else 0 for i in range(P.n)])
                assert coef == eta_inv[a, b]
                # no higher powers of t1
                for key in g[a][b].terms:
                    assert key[0][0] <= 1


def test_intersection_form_zero_euler_point():
    # at t with E(t) = 0 (all r = 0, t = 0) the form vanishes
    P = catalog("A3")
    g, _ = intersection_form(P)
    for a in range(3):
        for b in range(3):
            # a polynomial (no exp factor), so its value at t = 0 is its constant term
            assert not g[a][b].has_exp() and g[a][b].constant_term() == QuadScalar(0)


def test_christoffel_coefficients():
    # Gamma_g^{ab} = ((d+1)/2 - q_b) c^{ab}_g; for A3 spot check one entry
    P = catalog("A3")
    _, gamma = intersection_form(P)
    _, c_up, _, eta_inv = structure_constants(P)
    coef = F(P.d + 1, 2) - P.q[1]
    want = ExpPolynomial.zero(3)
    for e in range(3):
        if eta_inv[0, e]:
            want = want + c_up[e][2][1].scale(eta_inv[0, e])
    assert gamma[2][0][1] == want.scale(coef)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_intersection_form_matches_double_contraction(name):
    # oracle: c_e^{ab} = eta^{al} eta^{bm} c_{lme} contracted from c_low,
    # then g^{ab} = E^e c_e^{ab} and Gamma_e^{ab} = ((d+1)/2 - q_b) c_e^{ab}
    P = catalog(name)
    n = P.n
    c_low, _, _, eta_inv = structure_constants(P)
    ce = [[[ExpPolynomial.zero(n) for _ in range(n)] for _ in range(n)]
          for _ in range(n)]
    for e in range(n):
        for a in range(n):
            for b in range(n):
                for l in range(n):
                    for m in range(n):
                        coef = eta_inv[a, l] * eta_inv[b, m]
                        if coef:
                            ce[e][a][b] = ce[e][a][b] + c_low[l][m][e].scale(coef)
    g, gamma = intersection_form(P)
    for a in range(n):
        for b in range(n):
            want = ExpPolynomial.zero(n)
            for e in range(n):
                lin, shift = 1 - P.q[e], P.r[e]
                want = want + ExpPolynomial.variable(n, e) * ce[e][a][b].scale(lin)
                want = want + ce[e][a][b].scale(shift)
            assert g[a][b] == _window(P, want)
            for e in range(n):
                assert gamma[e][a][b] == ce[e][a][b].scale(F(P.d + 1, 2) - P.q[b])


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cached_tensors_leave_equality_and_json_unchanged(name):
    P = catalog(name)
    before = potential_to_dict(P)
    Q = potential_from_json(potential_to_json(P))
    assert P.tensors == structure_constants(Q)
    assert "tensors" in vars(P) and "tensors" not in vars(Q)
    assert P == Q and hash(P) == hash(Q)
    assert potential_to_dict(P) == before


def test_cached_tensors_are_immutable():
    P = catalog("A3")
    with pytest.raises(TypeError):
        P.tensors.c_low[0][0] = ExpPolynomial.zero(3)
    with pytest.raises(TypeError):
        P.tensors.c_up[0][0][0] = ExpPolynomial.zero(3)
    assert P.tensors is P.tensors


def test_numeric_lowering_is_cached_and_read_only():
    import numpy as np
    P = catalog("H4")
    num = P.numeric
    assert num is P.numeric
    assert np.array_equal(num.eta, [[complex(x) for x in r] for r in P.tensors.eta.rows])
    assert num.mu == tuple(P.mu())
    assert num.mu_float.tolist() == [float(m) for m in P.mu()]
    assert num._fields == ("eta", "mu", "mu_float", "powers", "weights", "scatter")
    for arr in num:
        if isinstance(arr, np.ndarray):
            with pytest.raises(ValueError):
                arr.flat[0] = 1


def test_lowered_table_equals_eval_complex_of_every_c_abg():
    # on every catalog entry and CP2(8), at seeded complex points, one with
    # t1 = 0; CP1, CP2 and CP2(8) carry the e^{k t2} terms.  U is checked
    # against E^e c_eb^a formed in numpy from eta^{-1} and the c_abg
    import numpy as np
    from frobenii.gwcp2 import truncated_potential
    from frobenii.semisimple import _numeric_tensors
    rng = np.random.default_rng(10)
    pots = [catalog(name) for name in CATALOG_NAMES] + [truncated_potential(8)]
    for P in pots:
        n = P.n
        c_low = P.tensors.c_low
        eta_inv = np.array([[complex(x) for x in row] for row in P.tensors.eta_inv.rows])
        points = [list(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
                  for _ in range(4)]
        points[0][0] = 0j
        for t in points:
            want = np.array([[[c_low[a][b][g].eval_complex(t) for g in range(n)]
                              for b in range(n)] for a in range(n)])
            E = (np.array([float(1 - q) for q in P.q]) * np.array(t)
                 + np.array([float(r) for r in P.r]))
            want_U = np.einsum("e,al,leb->ab", E, eta_inv, want)
            got, got_U, _ = _numeric_tensors(P, t)
            for x, y in ((got, want), (got_U, want_U)):
                assert np.abs(x - y).max() <= 1e-12 * max(1.0, np.abs(y).max()), P.name


@pytest.mark.parametrize("name", CATALOG_NAMES + ["CP2(8)", "inversion(A3)"])
def test_scatter_rows_hold_the_exact_coefficients(name):
    # one row per c_abg, flattened in (a, b, g), then one per U^a_b: each
    # holds the coefficients of its exact entry in the columns of its
    # monomials and zero elsewhere; no (powers, weights) column repeats
    import numpy as np
    P = inversion(catalog("A3")) if name == "inversion(A3)" else catalog(name)
    num = P.numeric
    keys = [(tuple(p), tuple(int(w) for w in ws))
            for p, ws in zip(num.powers.tolist(), num.weights.tolist())]
    assert len(set(keys)) == len(keys)
    assert num.weights.tolist() == [list(w) for _, w in keys]
    entries = [c for plane in P.tensors.c_low for row in plane for c in row]
    entries += [u for row in euler_multiplication_symbolic(P) for u in row]
    assert num.scatter.shape == (P.n ** 3 + P.n ** 2, len(keys))
    assert (num.scatter != 0).any(axis=0).all()
    for row, f in zip(num.scatter, entries):
        assert ({key: x for key, x in zip(keys, row.tolist()) if x}
                == {key: complex(c) for key, c in f.terms.items()}), name


# ---------------------------------------------------------------------------
# deformed flat coordinates
# ---------------------------------------------------------------------------

def test_deformed_level0_is_lowered_coordinates():
    P = catalog("A3")
    h = deformed_flat_coords(P, 0)
    assert h[0][0] == ExpPolynomial.variable(3, 2)
    assert h[0][1] == ExpPolynomial.variable(3, 1)
    assert h[0][2] == ExpPolynomial.variable(3, 0)


def test_identity_2_35():
    P = catalog("A3")
    h = deformed_flat_coords(P, 1)
    for a in range(3):
        assert gradient_pairing(P, h[0][a], h[1][0]) == h[0][a]


def test_identity_2_36_reconstructs_F():
    P = catalog("A3")
    eta_inv = metric_eta(P).inverse()
    h = deformed_flat_coords(P, 3)
    acc = ExpPolynomial.zero(3)
    for a in range(3):
        for b in range(3):
            coef = eta_inv[a, b]
            if coef:
                acc = acc + (gradient_pairing(P, h[1][a], h[1][0])
                             * gradient_pairing(P, h[0][b], h[1][0])
                             ).scale(coef)
    acc = acc - gradient_pairing(P, h[1][0], h[2][0])
    acc = acc - gradient_pairing(P, h[3][0], h[0][0])
    diff = acc.scale(F(1, 2)) - P.F
    assert all(sum(key[0]) <= 2 for key in diff.terms)  # equal mod quadratics
    assert diff.is_zero()  # with our normalization, exactly equal


@pytest.mark.parametrize("name,depth", [("A3", 3), ("CP1", 4), ("I2(4)", 3)])
def test_exercise_2_8(name, depth):
    P = catalog(name)
    n = P.n
    eta_inv = metric_eta(P).inverse()
    c_low, _, _, _ = structure_constants(P)
    h = deformed_flat_coords(P, depth)

    def prod_component(f, g_, gam):
        acc = ExpPolynomial.zero(n)
        for l in range(n):
            for m in range(n):
                inner = ExpPolynomial.zero(n)
                for aa in range(n):
                    if eta_inv[l, aa]:
                        for bb in range(n):
                            if eta_inv[m, bb]:
                                inner = inner + (f.diff(aa) * g_.diff(bb)
                                                 ).scale(eta_inv[l, aa] * eta_inv[m, bb])
                acc = acc + c_low[gam][l][m] * inner
        return _window(P, acc)

    for a in range(n):
        for b in range(n):
            for p in range(depth + 1):
                for q in range(depth + 1):
                    if p + q > depth or (p == 0 and q == 0):
                        continue
                    lhs_scal = gradient_pairing(P, h[p][a], h[q][b])
                    for gam in range(n):
                        rhs = ExpPolynomial.zero(n)
                        if p >= 1:
                            rhs = rhs + prod_component(h[p - 1][a], h[q][b], gam)
                        if q >= 1:
                            rhs = rhs + prod_component(h[p][a], h[q - 1][b], gam)
                        assert _window(P, lhs_scal.diff(gam) - rhs).is_zero()
    # <grad h_a(z), grad h_b(-z)> does not depend on t
    for a in range(n):
        for b in range(n):
            for k in range(depth + 1):
                acc = ExpPolynomial.zero(n)
                for p in range(k + 1):
                    q = k - p
                    if p > depth or q > depth:
                        continue
                    term = gradient_pairing(P, h[p][a], h[q][b])
                    acc = acc + (term if q % 2 == 0 else -term)
                assert acc.is_constant()


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def test_inversion_preserves_wdvv_a3():
    P = catalog("A3")
    Q = inversion(P)
    assert any(p[0][2] < 0 for p in Q.F.terms)   # genuinely Laurent
    assert check_wdvv1(Q).passed
    assert metric_eta(Q) == metric_eta(P)


def test_inversion_involution_on_i2():
    P = catalog("I2(5)")
    Q = inversion(inversion(P))
    diff = Q.F - P.F
    assert all(sum(k[0]) <= 2 for k in diff.terms)


def test_inversion_squared_a3_is_t2_flip():
    P = catalog("A3")
    Q = inversion(inversion(P))
    # the double image equals F(t1, -t2, t3); A3 is even in t2, so equality
    diff = Q.F - P.F
    assert all(sum(k[0]) <= 2 for k in diff.terms)


def test_legendre_on_cubic():
    # group-algebra cubic (Z/3): F = t1^3/6 + t1 t2 t3 + t2^3/6 + t3^3/6;
    # multiplication by e_2 is invertible, so the kappa = 2 transform closes
    t1, t2, t3 = (ExpPolynomial.variable(3, i) for i in range(3))
    F_ = (t1 ** 3 + t2 ** 3 + t3 ** 3).scale(F(1, 6)) + t1 * t2 * t3
    P = FrobeniusPotential(3, F_, F(0), (F(0), F(0), F(0)), (F(0),) * 3)
    assert check_wdvv1(P).passed
    Q = legendre(P, 1)
    assert Q.unity_index == 1
    assert check_wdvv1(Q).passed
    assert metric_eta(Q) == metric_eta(P)


def test_unity_index_survives_json_roundtrip():
    t1, t2, t3 = (ExpPolynomial.variable(3, i) for i in range(3))
    F_ = (t1 ** 3 + t2 ** 3 + t3 ** 3).scale(F(1, 6)) + t1 * t2 * t3
    P = FrobeniusPotential(3, F_, F(0), (F(0), F(0), F(0)), (F(0),) * 3)
    Q = legendre(P, 1)
    R = potential_from_json(potential_to_json(Q))
    assert R.unity_index == Q.unity_index == 1
    assert metric_eta(R) == metric_eta(Q)


def test_potential_json_without_unity_index_defaults_to_first():
    import json
    data = json.loads(potential_to_json(catalog("A3")))
    del data["unity_index"]
    assert potential_from_json(json.dumps(data)).unity_index == 0


# ---------------------------------------------------------------------------
# tensor locus
# ---------------------------------------------------------------------------

def test_tensor_cp1_squared():
    P = catalog("CP1")
    loc = tensor_locus(P, P)
    assert loc.d == F(2)
    eta = metric_eta(P)
    want = ExactMatrix([[eta[a1, b1] * eta[a2, b2]
                         for b1 in range(2) for b2 in range(2)]
                        for a1 in range(2) for a2 in range(2)])
    assert loc.eta == want
    assert loc.euler_shifts == [F(0), F(2), F(2), F(0)]


def test_tensor_trivial_factor():
    # one-dimensional Frobenius manifold F = t^3/6, d = 0
    one = FrobeniusPotential(1, ExpPolynomial.monomial(1, F(1, 6), (3,)),
                             F(0), (F(0),), (F(0),))
    P = catalog("A3")
    loc = tensor_locus(P, one)
    assert loc.d == P.d
    assert loc.eta == metric_eta(P)
    # structure constants on the locus match the factor's
    _, c_up, _, _ = structure_constants(P)
    for a in range(3):
        for b in range(3):
            for g in range(3):
                got = loc.c_up[a][b][g]
                want = ExpPolynomial(3 + 1, {
                    (k[0] + (0,), k[1] + (0,)): v
                    for k, v in c_up[a][b][g].terms.items()})
                assert got == want


def test_tensor_charge_additivity():
    A2 = catalog("I2(3)")
    loc = tensor_locus(A2, A2)
    assert loc.d == 2 * A2.d


# ---------------------------------------------------------------------------
# catalog and serialization
# ---------------------------------------------------------------------------

def test_catalog_a3_is_exactly_1_22():
    P = catalog("A3")
    want = {
        ((2, 0, 1), (0, 0, 0)): F(1, 2),
        ((1, 2, 0), (0, 0, 0)): F(1, 2),
        ((0, 2, 2), (0, 0, 0)): F(-1, 16),
        ((0, 0, 5), (0, 0, 0)): F(1, 960),
    }
    assert {k: v.a for k, v in P.F.terms.items()} == want


def test_catalog_h4_leading_terms():
    P = catalog("H4")
    assert P.F.coefficient((1, 1, 1, 0)) == QuadScalar(1)
    assert P.F.coefficient((2, 0, 0, 1)) == QuadScalar(F(1, 2))
    assert P.d == F(14, 15)


def test_catalog_i2_3_is_a2():
    P = catalog("I2(3)")
    assert P.F.coefficient((0, 4)) == QuadScalar(1)
    assert P.d == F(1, 3)


def test_catalog_charges_match_coxeter_numbers():
    # d = 1 - 2/h
    for nm, h in [("A3", 4), ("B3", 6), ("H3", 10), ("A4", 5), ("B4", 8),
                  ("D4", 6), ("F4", 12), ("H4", 30), ("I2(7)", 7)]:
        assert catalog(nm).d == F(h - 2, h)


def test_unknown_catalog_name():
    with pytest.raises(KeyError):
        catalog("E8")


@pytest.mark.parametrize("name", CATALOG_NAMES + ["CP2(3)", "CP2(4)", "sing an 3"])
def test_json_roundtrip_bit_exact(name):
    if name == "sing an 3":
        from frobenii.singularity import a_n_structure
        P = a_n_structure(3)[1]
    else:
        P = catalog(name)
    Q = potential_from_json(potential_to_json(P))
    assert Q.F == P.F
    assert Q.d == P.d and Q.q == P.q and Q.r == P.r
    assert Q.exp_truncation == P.exp_truncation
    assert potential_to_json(Q) == potential_to_json(P)


def test_potential_json_discriminant_is_the_one_field():
    from frobenii.exact import DiscriminantMismatch
    rt2, rt5 = QuadScalar(0, 1, 2), QuadScalar(0, 1, 5)
    P = catalog("A3")
    P5 = FrobeniusPotential(3, P.F.scale(rt5), P.d, P.q, P.r)
    data = potential_to_dict(P5)
    assert data["discriminant"] == 5
    assert potential_from_dict(data) == P5
    for wrong in (1, 2):
        with pytest.raises(DiscriminantMismatch):
            potential_from_dict({**data, "discriminant": wrong})
    with pytest.raises(DiscriminantMismatch):
        potential_from_dict({**potential_to_dict(P), "discriminant": 5})
    mixed = ExpPolynomial(2, {((3, 0), (0, 0)): rt2, ((0, 3), (0, 0)): rt5})
    with pytest.raises(DiscriminantMismatch):
        potential_to_dict(FrobeniusPotential(2, mixed, F(0), (F(0), F(0)), (F(0), F(0))))


@pytest.mark.parametrize("edit, name", [
    (lambda d: d["terms"][0].update(exps=[0, 1.5]), "exps"),
    (lambda d: d["terms"][1].update(powers=[2, True]), "powers"),
    (lambda d: d.update(n=2.7), "n"),
    (lambda d: d.update(n=True), "n"),
    (lambda d: d.update(unity_index="0"), "unity_index"),
    (lambda d: d.update(exp_truncation=[1, 2.5]), "exp_truncation"),
], ids=["exps 1.5", "powers true", "n 2.7", "n true", "unity_index '0'",
        "exp_truncation 2.5"])
def test_integer_fields_are_read_strictly(edit, name):
    # int() floored these: CP1 with exps [0, 1.5] was read as e^{t2}, n 2.7 as 2
    data = potential_to_dict(catalog("CP1"))
    edit(data)
    with pytest.raises(ValueError, match=f"field '{name}' must be an integer"):
        potential_from_dict(data)


def test_integral_floats_are_integers():
    data = potential_to_dict(catalog("CP1"))
    data.update(n=2.0, unity_index=0.0)
    data["terms"][0].update(exps=[0.0, 1.0])
    assert potential_from_dict(data) == catalog("CP1")


@pytest.mark.parametrize("edit, name", [
    (lambda d: d["q"].__setitem__(2, 0.1), "q"),
    (lambda d: d["r"].__setitem__(0, 0.5), "r"),
    (lambda d: d.update(d=True), "d"),
    (lambda d: d.update(d="1/0"), "d"),
    (lambda d: d["q"].__setitem__(1, "a/4"), "q"),
], ids=["q 0.1", "r 0.5", "d true", "d 1/0", "q a/4"])
def test_rational_fields_are_read_strictly(edit, name):
    # Fraction() read q3 = 0.1 as 3602879701896397/36028797018963968 and
    # d = true as 1, and its errors on a bad string named no field
    data = potential_to_dict(catalog("A3"))
    edit(data)
    with pytest.raises(ValueError,
                       match=f"field '{name}' must be a rational string or an integer"):
        potential_from_dict(data)


def test_rational_fields_take_strings_ints_and_integral_floats():
    data = potential_to_dict(catalog("A3"))
    data.update(d="1/2", q=[0, "1/4", "0.5"], r=[0.0, 0, "0"])
    assert potential_from_dict(data) == catalog("A3")


def test_a_term_beyond_the_window_is_refused():
    # CP2(3) plus 1000 e^{7 t2}: every check that truncated after the fact
    # passed it, while its numeric frames read the extra term
    data = potential_to_dict(catalog("CP2(3)"))
    data["terms"].append({"coeff": "1000", "powers": [0, 0, 0], "exps": [0, 7, 0]})
    with pytest.raises(ValueError, match="exp weight above 3 in t2"):
        potential_from_dict(data)
    with pytest.raises(ValueError, match="outside its window"):
        potential_from_json(json.dumps(data))
    P = catalog("CP2(3)")
    F7 = P.F + ExpPolynomial.monomial(3, 1000, (0, 0, 0), (0, 7, 0))
    with pytest.raises(ValueError, match="outside its window"):
        FrobeniusPotential(3, F7, P.d, P.q, P.r, exp_truncation=(1, 3))
    # the same F is a potential in its own right once the window admits it
    assert FrobeniusPotential(3, F7, P.d, P.q, P.r, exp_truncation=(1, 7)).F == F7


@pytest.mark.parametrize("var", [-1, 3])
def test_a_window_variable_out_of_range_is_refused(var):
    P = catalog("CP2(3)")
    with pytest.raises(ValueError, match="outside 0..2"):
        FrobeniusPotential(3, P.F, P.d, P.q, P.r, exp_truncation=(var, 3))


@pytest.mark.parametrize("name, index", [("A3", 7), ("A3", 3), ("I2(3)", -2)])
def test_a_unity_index_out_of_range_is_refused(name, index):
    P = catalog(name)
    with pytest.raises(ValueError, match=rf"unity_index {index} is outside 0\.\.{P.n - 1}"):
        FrobeniusPotential(P.n, P.F, P.d, P.q, P.r, unity_index=index)


@pytest.mark.parametrize("name", CATALOG_NAMES + ["CP2(3)", "CP2(6)", "CP2(8)"])
def test_euler_contractions_stay_inside_the_window(name, monkeypatch):
    # each Euler contraction truncated to the window, as the checks, the
    # intersection form, U and the deformed coordinates once did, drops
    # nothing and changes no result
    P = catalog(name)

    def results():
        return (check_quasihomogeneity(P), intersection_form(P),
                euler_multiplication_symbolic(P), deformed_flat_coords(P, 2))
    plain = results()
    contract = FrobeniusPotential.contract_euler
    dropped = []

    def truncated(self, fields):
        out = contract(self, fields)
        dropped.append(_window(self, out) != out)
        return _window(self, out)
    monkeypatch.setattr(FrobeniusPotential, "contract_euler", truncated)
    assert results() == plain
    assert dropped and not any(dropped)


def test_deformed_coords_reject_non_wdvv_input():
    # the double integration detects a non-closed right-hand side when
    # associativity fails
    from frobenii.exact.exppoly import NotClosedFormError
    P = catalog("A3")
    bad = P.F + ExpPolynomial.monomial(3, F(1, 961) - F(1, 960), (0, 0, 5))
    Q = FrobeniusPotential(3, bad, P.d, P.q, P.r)
    with pytest.raises(NotClosedFormError):
        deformed_flat_coords(Q, 2)


def test_poly_ops_reject_mixed_fields():
    from frobenii.exact import DiscriminantMismatch
    p = ExpPolynomial.monomial(2, QuadScalar(0, 1, 2), (1, 0))
    q = ExpPolynomial.monomial(2, QuadScalar(0, 1, 5), (1, 0))
    with pytest.raises(DiscriminantMismatch):
        _ = p + q
