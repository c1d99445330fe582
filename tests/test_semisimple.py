"""Canonical coordinates, Psi frames, the isomonodromic flow and its
Hamiltonian structure."""

from fractions import Fraction as F

import numpy as np
import pytest
from rk_reference import rk_integrate

from frobenii.exact import eigen_small, sort_spectrum
from frobenii.frobenius import CATALOG_NAMES, catalog
from frobenii.gwcp2 import truncated_potential
from frobenii.semisimple import (
    CoalescingEigenvaluesError, IllConditionedFrameError, IsoState,
    canonical_coordinates,
    euler_multiplication, hamiltonians, integrate_isomonodromic,
    _lie_poisson, _numeric_tensors, poisson_commutation_check,
    state_from_dict, state_to_dict,
    v_components, v_matrices,
)


def _cp2_frame(t2=0.3):
    P = truncated_potential(4)
    return P, canonical_coordinates(P, [0.0, t2, 0.0])


# ---------------------------------------------------------------------------
# U and canonical coordinates
# ---------------------------------------------------------------------------

def test_euler_multiplication_cp2_at_axis():
    P = truncated_potential(4)
    t2 = 0.37
    U = euler_multiplication(P, [0.0, t2, 0.0])
    q = np.exp(t2)
    want = np.array([[0, 0, 3 * q], [3, 0, 0], [0, 3, 0]], dtype=complex)
    assert np.abs(U - want).max() < 1e-12


def test_euler_multiplication_zero_at_origin_without_shifts():
    P = catalog("A3")
    U = euler_multiplication(P, [0.0, 0.0, 0.0])
    assert np.abs(U).max() == 0.0


def test_trace_u_equals_sum_of_canonical_coordinates():
    P = catalog("A3")
    t = [0.21, 0.4, 0.9]
    U = euler_multiplication(P, t)
    fr = canonical_coordinates(P, t)
    assert abs(sum(fr.u) - np.trace(U)) < 1e-10


def test_cp2_canonical_coordinates_match_cube_roots():
    P, fr = _cp2_frame()
    q = np.exp(0.3)
    eps2 = np.exp(2j * np.pi / 3)
    want = sorted([3 * q ** (1 / 3), 3 * q ** (1 / 3) * eps2,
                   3 * q ** (1 / 3) * np.conj(eps2)],
                  key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(fr.u, want)) < 1e-10


def test_cp2_psi_matches_printed_matrix():
    _, fr = _cp2_frame()
    q3 = np.exp(0.3) ** (1 / 3)
    eps = np.exp(1j * np.pi / 3)
    paper = (1 / np.sqrt(3)) * np.array([
        [1 / q3, 1, q3],
        [np.conj(eps) / q3, -1, eps * q3],
        [eps / q3, -1, np.conj(eps) * q3]])
    used = set()
    for row in paper:
        dists = [(min(np.abs(fr.Psi[i] - row).max(), np.abs(fr.Psi[i] + row).max()), i)
                 for i in range(3) if i not in used]
        d, i = min(dists)
        used.add(i)
        assert d < 1e-9


def test_psi_orthogonality_on_a3_samples():
    P = catalog("A3")
    for t in ([0.3, 0.7, 1.1], [1.0, -0.3, 0.8], [0.1, 0.45, -0.6]):
        fr = canonical_coordinates(P, t)
        assert np.abs(fr.Psi.T @ fr.Psi - fr.eta).max() < 1e-10
        assert fr.c_residual < 1e-9


def test_unity_field_in_psi_frame():
    # sum_i psi_{i1} psi_i^alpha = delta^alpha_1  (e = sum_i d/du_i)
    P = catalog("A3")
    fr = canonical_coordinates(P, [0.3, 0.7, 1.1])
    eta_inv = np.linalg.inv(fr.eta)
    e_flat = np.einsum("i,ia,ab->b", fr.Psi[:, 0], fr.Psi, eta_inv)
    want = np.zeros(3)
    want[0] = 1
    assert np.abs(e_flat - want).max() < 1e-9


def test_collision_margin_refusal():
    P = catalog("A3")
    # t2 = t3 = 0 puts all u at multiples of t1-shift: degenerate
    with pytest.raises((CoalescingEigenvaluesError, ArithmeticError)):
        canonical_coordinates(P, [0.5, 0.0, 0.0])


# ---------------------------------------------------------------------------
# V matrices
# ---------------------------------------------------------------------------

def test_v_skew_and_spectrum_cp2():
    _, fr = _cp2_frame()
    V, Vis = v_matrices(fr)
    assert np.abs(V + V.T).max() < 1e-10
    spec = sorted(np.linalg.eigvals(V), key=lambda z: z.real)
    assert np.abs(np.array(spec) - np.array([-1, 0, 1])).max() < 1e-8
    U = np.diag(fr.u)
    for i, Vi in enumerate(Vis):
        Ei = np.zeros((3, 3), dtype=complex)
        Ei[i, i] = 1
        assert np.abs((U @ Vi - Vi @ U) - (Ei @ V - V @ Ei)).max() < 1e-12
        assert np.abs(np.diag(Vi)).max() == 0


def test_v_components_and_hamiltonians_match_their_definitions():
    rng = np.random.default_rng(8)
    n = 5
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V = W - W.T
    u = list(np.arange(n) + 0.4j * rng.standard_normal(n))
    Vis = v_components(u, V)
    H = hamiltonians(IsoState(u=u, V=V))
    for i in range(n):
        want = np.zeros((n, n), dtype=complex)
        for b in range(n):
            if b != i:
                want[i, b] = V[i, b] / (u[i] - u[b])
                want[b, i] = V[b, i] / (u[i] - u[b])
        assert np.abs(Vis[i] - want).max() < 1e-14
        h = sum(V[i, j] ** 2 / (u[i] - u[j]) for j in range(n) if j != i) / 2
        assert abs(H[i] - h) < 1e-13


def test_frames_share_no_mutable_mu():
    P = catalog("A3")
    fr1 = canonical_coordinates(P, [0.3, 0.7, 1.1])
    fr2 = canonical_coordinates(P, [1.0, -0.3, 0.8])
    fr1.mu[0] = F(7)
    assert fr2.mu == P.mu() == [F(-1, 4), F(0), F(1, 4)]


def test_v_components_n2_closed_form():
    u = [0.3 + 0j, 1.7 + 0j]
    v = 0.8 - 0.2j
    V = np.array([[0, v], [-v, 0]], dtype=complex)
    Vis = v_components(u, V)
    assert abs(Vis[0][0, 1] - v / (u[0] - u[1])) < 1e-15
    U = np.diag(u)
    E0 = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs((U @ Vis[0] - Vis[0] @ U) - (E0 @ V - V @ E0)).max() < 1e-12


# ---------------------------------------------------------------------------
# Hamiltonians, tau, Poisson
# ---------------------------------------------------------------------------

def _random_state(n=3, seed=0):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V = W - W.T
    u = [0.0 + 0j, 1.0 + 0j, 2.3 + 0.7j][:n]
    if n == 2:
        u = [0.0 + 0j, 1.3 - 0.4j]
    return IsoState(u=u, V=V)


def test_hamiltonians_sum_to_zero():
    st = _random_state()
    assert abs(sum(hamiltonians(st))) < 1e-14


def test_hamiltonians_n2():
    st = _random_state(2, seed=3)
    H = hamiltonians(st)
    v = st.V[0, 1]
    assert abs(H[0] - v * v / (2 * (st.u[0] - st.u[1]))) < 1e-14
    assert abs(H[0] + H[1]) < 1e-14


def test_hamiltonians_zero_v():
    st = IsoState(u=[0, 1, 2], V=np.zeros((3, 3), dtype=complex))
    assert all(h == 0 for h in hamiltonians(st))


def test_poisson_commutation():
    for seed in (0, 1, 2):
        st = _random_state(seed=seed)
        assert poisson_commutation_check(st) < 1e-10
    st2 = _random_state(2, seed=5)
    assert poisson_commutation_check(st2) == 0.0
    # no size cap: n = 7 runs as well
    W = np.random.default_rng(6).standard_normal((7, 7))
    st7 = IsoState(u=list(np.arange(7) + 0.5j * np.arange(7) ** 2), V=W - W.T)
    assert poisson_commutation_check(st7) < 1e-10


def _explicit_so_bracket(X, Y, V):
    """sum_{a<b, c<d} X_ab Y_cd {V_ab, V_cd} with
    {V_ab, V_cd} = V_ad d_bc - V_bd d_ac + V_bc d_ad - V_ac d_bd."""
    n = len(V)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    total = 0j
    for a, b in pairs:
        for c, d in pairs:
            br = ((b == c) * V[a, d] - (a == c) * V[b, d]
                  + (a == d) * V[b, c] - (b == d) * V[a, c])
            total += X[a, b] * Y[c, d] * br
    return total


def test_lie_poisson_matches_explicit_so_bracket():
    # negative control: gradients that do not commute give a nonzero bracket,
    # and the array form agrees with the explicit so(n) sum there
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        X, Y, V = (W - W.T for W in (rng.standard_normal((n, n))
                                     + 1j * rng.standard_normal((n, n))
                                     for _ in range(3)))
        want = _explicit_so_bracket(X, Y, V)
        got = _lie_poisson(X[None], Y[None], V)[0, 0]
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
        if n > 2:
            assert abs(want) > 1e-3
    # the Hamiltonians' own gradients commute under the same explicit sum
    st = _random_state(seed=2)
    Vis = v_components(st.u, st.V)
    assert abs(_explicit_so_bracket(Vis[0], Vis[2], st.V)) < 1e-12


# ---------------------------------------------------------------------------
# isomonodromic integration
# ---------------------------------------------------------------------------

def test_constant_path_is_identity():
    st = _random_state()
    fin, diag = integrate_isomonodromic(st, [st.u], tol=1e-10)
    assert np.abs(fin.V - st.V).max() == 0.0
    assert diag.dlog_tau == 0


def test_n2_flow_is_constant():
    st = _random_state(2, seed=7)
    path = [[0.4 + 0.1j, 1.9 - 0.2j], [0.1 - 0.3j, 2.4 + 0.4j]]
    fin, diag = integrate_isomonodromic(st, path, tol=1e-11)
    assert np.abs(fin.V - st.V).max() < 1e-9


def test_n2_tau_closed_form():
    # dlog tau = (v^2/2) dlog(u1 - u2)
    st = _random_state(2, seed=9)
    v = st.V[0, 1]
    target = [0.5 + 0.2j, 1.8 - 0.5j]
    dtau = integrate_isomonodromic(st, [target], tol=1e-12)[1].dlog_tau
    want = (v * v / 2) * (np.log(target[0] - target[1])
                          - np.log(st.u[0] - st.u[1]))
    assert abs(dtau - want) < 1e-9


def test_isospectral_drift_small():
    st = _random_state(seed=11)
    path = [[0.2 + 0.4j, 1.1 + 0.2j, 2.0 + 0.5j]]
    fin, diag = integrate_isomonodromic(st, path, tol=1e-10)
    assert diag.spectral_drift < 1e-8
    assert diag.skewness_drift < 1e-8


def test_closed_loop_tau():
    st = _random_state(seed=13)
    loop = [[0.1 + 0.2j, 1.2 + 0.1j, 2.2 + 0.8j],
            [-0.1 + 0.1j, 1.4 - 0.2j, 2.5 + 0.6j],
            list(st.u)]
    fin, diag = integrate_isomonodromic(st, loop, tol=1e-10)
    assert abs(diag.dlog_tau) < 1e-8
    assert np.abs(fin.V - st.V).max() < 1e-7


def test_margin_refusal():
    st = _random_state()
    bad = [[0.0 + 0j, 1e-9 + 0j, 2.0 + 0j]]
    with pytest.raises(CoalescingEigenvaluesError):
        integrate_isomonodromic(st, bad, tol=1e-10)


@pytest.mark.parametrize("shift", [0, 1e-8j])
def test_interior_collision_is_refused_before_integrating(shift):
    # u_1 and u_2 swap along the segment; both endpoints are clear
    start = [0j, 1 + shift, 3 + 0j]
    end = [1 + 0j, shift, 3 + 0j]
    V = _random_state().V
    for u in (start, end):
        integrate_isomonodromic(IsoState(u=u, V=V), [u])
    with pytest.raises(CoalescingEigenvaluesError) as info:
        integrate_isomonodromic(IsoState(u=start, V=V), [end], tol=1e-10)
    assert "segment 1" in str(info.value)
    assert "u_1 and u_2" in str(info.value)


def test_collision_certificate_is_exact_at_the_margin():
    # the gap u_1 - u_2 runs from -1 - 2i to 1 - 2i: closest 2 at s = 1/2,
    # every other gap is far larger, the scale is |u_3|; so with the margin
    # 1e-6 the segment passes at |u_3| = 1.96e6 and is refused at 2.04e6
    V = _random_state().V

    def segment(u3):
        return IsoState(u=[0j, 1 + 2j, u3], V=V), [[1 + 0j, 2j, u3]]
    integrate_isomonodromic(*segment(1.96e6 + 0j))
    with pytest.raises(CoalescingEigenvaluesError, match="u_1 and u_2 .* s = 0.5"):
        integrate_isomonodromic(*segment(2.04e6 + 0j))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_segment_field_is_the_sum_of_commutators(n):
    # the first Taylor coefficients of a segment are the flow and the tau
    # integrand at its start: V_1 = sum_i du_i [V_i, V], tau' = sum_i du_i H_i
    from frobenii.semisimple import _segment_series
    rng = np.random.default_rng(n)
    for _ in range(5):
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        V = W - W.T
        u = np.arange(n) + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        du = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want = sum(d * (Vi @ V - V @ Vi) for d, Vi in zip(du, v_components(u, V)))
        want_tau = sum(d * h for d, h in zip(du, hamiltonians(IsoState(u=list(u), V=V))))
        Vb, T = _segment_series(V, u, du, du[:, None] - du[None, :], 13, 1e-10, 1.0)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.array_equal(Vb[-1], V)
        assert np.abs(Vb[-2] - want).max() < 1e-12 * scale
        assert abs(T[0] - want_tau) < 1e-12 * max(1.0, abs(want_tau))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_segment_field_on_a_non_skew_v(n):
    # the series assumes nothing of V: on V + V^T != 0 its first coefficient
    # is still [A, V] with A = V (du_a - du_b)/(u_a - u_b), and the tau
    # integrand 1/2 du . (V o V o G) . 1
    from frobenii.semisimple import _segment_series
    rng = np.random.default_rng(10 + n)
    off = 1 - np.eye(n)
    for _ in range(5):
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.arange(n) + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        du = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        G = off / (u[:, None] - u[None, :] + np.eye(n))
        A = V * (du[:, None] - du[None, :]) * G
        want = A @ V - V @ A
        want_tau = 0.5 * du @ (V * V * G).sum(axis=1)
        Vb, T = _segment_series(V, u, du, du[:, None] - du[None, :], 13, 1e-10, 1.0)
        assert np.abs(V + V.T).max() > 0.1
        assert np.abs(Vb[-2] - want).max() < 1e-12 * max(1.0, np.abs(want).max())
        assert abs(T[0] - want_tau) < 1e-12 * max(1.0, abs(want_tau))


def _commutator_field(u0, du):
    """The flow on u(s) = u0 + s du as one commutator, for `rk_integrate`:
    sum_i du_i [V_i, V] = [A, V] with A_ab = V_ab (du_a - du_b)/(u_a - u_b);
    the last component is the tau integrand sum_i du_i H_i."""
    n = len(u0)
    m = n * n
    eye = np.eye(n)
    g0 = u0[:, None] - u0[None, :] + eye
    dg = du[:, None] - du[None, :]
    D = 0.5 * du[:, None] * (1 - eye)

    def f(s, y):
        V = y[:m].reshape(n, n)
        r = 1 / (g0 + s * dg)
        A = V * (dg * r)
        out = np.empty(m + 1, dtype=complex)
        out[:m] = (A @ V - V @ A).reshape(-1)
        out[m] = (V * V * D * r).sum()
        return out
    return f


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_taylor_segment_against_runge_kutta(n):
    # Runge-Kutta at tol 1e-12 is the reference for the Taylor segment at
    # tol 1e-10 and 1e-12, on segments where u_1 ends 0.1 from u_0, with
    # |V| = 1 and 10; for n > 2 (at n = 2 V is constant) some step must add
    # orders beyond the starting order p = _taylor_order(tol)
    from frobenii.semisimple import _taylor_order
    rng = np.random.default_rng(100 + n)
    extended = False
    for size in (1.0, 10.0):
        u0 = np.arange(n) + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        u1 = u0 + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        theta = 2 * np.pi * rng.uniform()
        u0[1] = u0[0] + 0.2 * np.exp(1j * theta)
        u1[1] = u1[0] + 0.1 * np.exp(1j * (theta + rng.uniform(-1, 1)))
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        V = (W - W.T) * (size / np.abs(W - W.T).max())
        y = rk_integrate(_commutator_field(u0, u1 - u0),
                         np.concatenate([V.reshape(-1), [0j]]), 0.0, 1.0, tol=1e-12)
        scale = max(1.0, float(np.abs(y[:-1]).max()))
        for tol in (1e-10, 1e-12):
            fin, diag = integrate_isomonodromic(IsoState(list(u0), V), [list(u1)], tol=tol)
            assert np.abs(fin.V - y[:-1].reshape(n, n)).max() < 1e-8 * scale
            assert abs(diag.dlog_tau - y[-1]) < 1e-8 * scale
            p = _taylor_order(tol)
            assert p <= diag.min_order <= diag.max_order <= 2 * p
            extended |= diag.max_order > p
    assert extended or n == 2


def test_taylor_order_follows_the_tolerance():
    from frobenii.semisimple import _taylor_order
    assert [_taylor_order(t) for t in (1e-10, 1e-12, 0.5, 2.0)] == [13, 15, 2, 2]
    st = _random_state()
    for tol in (0.0, -1e-10, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate_isomonodromic(st, [st.u], tol=tol)
    # refused before _taylor_order reads it
    with pytest.raises(ValueError, match="tol must be finite, got inf"):
        integrate_isomonodromic(st, [st.u], tol=float("inf"))


def test_step_failure_on_an_earlier_segment_wins_over_a_later_collision(monkeypatch):
    # every segment is certified before the first is integrated, but a
    # collision is raised only when the integration reaches its segment: here
    # segment 1 runs out of step attempts first
    from frobenii import semisimple
    from frobenii.semisimple import StepUnderflowError
    monkeypatch.setattr(semisimple, "MAX_SEGMENT_STEPS", 2)
    V = np.array([[0, 5, 5], [-5, 0, 5], [-5, -5, 0]], dtype=complex)
    mid = [0j, 0.2 + 0.1j, 2 + 0j]
    path = [mid, [0.2 + 0.1j, 0j, 2 + 0j]]  # segment 2 swaps u_1 and u_2
    with pytest.raises(CoalescingEigenvaluesError, match="segment 1 .* u_1 and u_2"):
        integrate_isomonodromic(IsoState(u=mid, V=V), path[1:])
    with pytest.raises(StepUnderflowError, match=r"^segment 1 \(vertex 0 to vertex 1\): 2 Taylor"):
        integrate_isomonodromic(IsoState(u=[0j, 1 + 0j, 2 + 0j], V=V), path)


@pytest.mark.parametrize("where, value, message", [
    ("V", np.nan, "V has a non-finite entry"),
    ("u", np.nan, "u has a non-finite entry"),
    ("vertex", np.nan, "path vertex 1 has a non-finite entry"),
    ("vertex", np.inf, "path vertex 1 has a non-finite entry"),
    ("vertex", complex(0, -np.inf), "path vertex 1 has a non-finite entry"),
])
def test_non_finite_input_is_refused_before_the_first_step(where, value, message):
    # a NaN vertex would pass the closest-approach certificate (nan < margin
    # is false) and end in a step-size underflow; it is refused up front
    st = _random_state()
    path = [[0.2 + 0.1j, 1.1 - 0.1j, 2.1 + 0.3j], [-0.1 + 0.2j, 1.3 + 0.1j, 1.9 + 0.4j]]
    if where == "V":
        st.V[0, 2] = value
    elif where == "u":
        st.u[1] = value
    else:
        path[1][2] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        integrate_isomonodromic(st, path)


def test_a_non_finite_series_ends_the_first_step(monkeypatch):
    # a step is taken as sized, so a series that is not finite ends the
    # segment at its first step, not after a run of halvings
    from frobenii import semisimple
    from frobenii.semisimple import StepUnderflowError
    calls = []

    def nan_series(V, u, du, dg, p, bound, reach):
        calls.append(reach)
        return np.full((p + 1, len(V), len(V)), np.nan + 0j), np.full(p, np.nan + 0j)
    monkeypatch.setattr(semisimple, "_segment_series", nan_series)
    st = _random_state()
    with pytest.raises(StepUnderflowError,
                       match=r"^segment 1 \(vertex 0 to vertex 1\): the Taylor step "
                             r"from s=0\.0 ends at a non-finite V$"):
        integrate_isomonodromic(st, [[0.2 + 0.1j, 1.1 - 0.1j, 2.1 + 0.3j]])
    assert calls == [1.0]


def test_a_non_finite_tau_increment_ends_the_first_step(monkeypatch):
    # V stays finite (constant), but the tau coefficients are NaN
    from frobenii import semisimple
    from frobenii.semisimple import StepUnderflowError

    def nan_tau_series(V, u, du, dg, p, bound, reach):
        Vb = np.zeros((p + 1, len(V), len(V)), dtype=complex)
        Vb[p] = V
        return Vb, np.full(p, np.nan + 0j)
    monkeypatch.setattr(semisimple, "_segment_series", nan_tau_series)
    with pytest.raises(StepUnderflowError,
                       match=r"^segment 1 \(vertex 0 to vertex 1\): the Taylor step "
                             r"from s=0\.0 ends at a non-finite tau increment$"):
        integrate_isomonodromic(_random_state(), [[0.2 + 0.1j, 1.1 - 0.1j, 2.1 + 0.3j]])


def test_a_path_near_a_pole_of_v_raises_no_overflow_warning():
    # path 716 of 3000 seeded random paths passes near a pole of V, where the
    # tau products that the series drops overflow; under the suite's
    # filterwarnings = error a numpy warning would fail this test
    rng = np.random.default_rng(0)
    for _ in range(717):
        n = int(rng.integers(3, 7))
        u0 = np.arange(n) + 0.45 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        V0 = (W - W.T) / 2 * rng.uniform(0.1, 5)
        path = [u0 + rng.uniform(0.1, 3) * (rng.standard_normal(n)
                                            + 1j * rng.standard_normal(n))
                for _ in range(3)]
        tol = 10 ** rng.uniform(-13, -4)
    assert n == 6 and abs(tol / 1.3e-11 - 1) < 0.01
    _, diag = integrate_isomonodromic(IsoState(list(u0), V0), path, tol=tol)
    assert diag.stats.steps == 295
    assert diag.dlog_tau == -16.892396539060755 - 93.7038772758829j


@pytest.mark.parametrize("seed", range(6))
def test_steps_are_the_orders_taken_and_none_is_rejected(monkeypatch, seed):
    # every series computed is one step taken: the step count is the number
    # of orders the segments return, and the rejection count stays 0
    from frobenii import semisimple
    rng = np.random.default_rng(seed)
    n = 3 + seed % 3
    u0 = np.arange(n) + 0.45 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V0 = (W - W.T) / 2 * rng.uniform(0.1, 5)
    path = [list(u0 + rng.uniform(0.1, 1) * (rng.standard_normal(n)
                                             + 1j * rng.standard_normal(n)))
            for _ in range(3)]
    orders, series = [], []
    taylor_segment, segment_series = semisimple._taylor_segment, semisimple._segment_series

    def counted_segment(*args):
        out = taylor_segment(*args)
        orders.extend(out[-1])
        return out

    def counted_series(*args):
        series.append(1)
        return segment_series(*args)
    monkeypatch.setattr(semisimple, "_taylor_segment", counted_segment)
    monkeypatch.setattr(semisimple, "_segment_series", counted_series)
    tol = 10.0 ** -(6 + seed)
    _, diag = integrate_isomonodromic(IsoState(list(u0), V0), path, tol=tol)
    assert diag.stats.steps == len(orders) == len(series) >= 3
    assert diag.stats.rejected == 0
    assert (diag.min_order, diag.max_order) == (min(orders), max(orders))


def test_stacked_drift_equals_the_chained_segments():
    # the drifts are read from one eigensolve of every vertex's V; run as
    # one-segment paths chained by hand, the same vertices give the same
    # largest drift from the start's spectrum and skewness
    st = _random_state(seed=19)
    path = [[0.2 + 0.1j, 1.1 - 0.1j, 2.1 + 0.3j], [0.2 + 0.1j, 1.1 - 0.1j, 2.1 + 0.3j],
            [-0.1 + 0.2j, 1.3 + 0.1j, 1.9 + 0.4j], list(st.u)]
    fin, diag = integrate_isomonodromic(st, path, tol=1e-10)
    assert diag.segments == 3
    def spectrum(V):
        return sort_spectrum(np.linalg.eigvals(V))

    def skewness(V):
        return float(np.abs(V + V.T).max())
    spec0, skew0 = spectrum(st.V), skewness(st.V)
    cur, drift, skew = st, 0.0, 0.0
    for vert in path:
        cur = integrate_isomonodromic(cur, [vert], tol=1e-10)[0]
        drift = max([drift] + [abs(a - b) for a, b in zip(spectrum(cur.V), spec0)])
        skew = max(skew, abs(skewness(cur.V) - skew0))
    assert np.array_equal(cur.V, fin.V)
    assert diag.spectral_drift == drift > 0
    assert diag.skewness_drift == skew


def test_a_first_vertex_at_the_start_is_a_segment_of_length_zero():
    # vertex 0 is the start, so repeating it moves nothing: same V, tau,
    # steps and segment count as the path without it
    st = _random_state(seed=23)
    path = [[0.2 + 0.1j, 1.1 - 0.1j, 2.1 + 0.3j], [-0.1 + 0.2j, 1.3 + 0.1j, 1.9 + 0.4j]]
    fin, diag = integrate_isomonodromic(st, path)
    fin2, diag2 = integrate_isomonodromic(st, [list(st.u)] + path)
    assert np.array_equal(fin.V, fin2.V) and fin.u == fin2.u
    assert diag2.segments == diag.segments == 2
    assert (diag2.dlog_tau, diag2.stats) == (diag.dlog_tau, diag.stats)
    # a point near the start, not on it, is a segment of its own
    near = [z + 1e-13 for z in st.u]
    assert integrate_isomonodromic(st, [near] + path)[1].segments == 3


def test_collision_messages_number_vertex_k_as_path_k_minus_1():
    V = _random_state().V
    start, tilt = [0j, 1 + 0j, 3 + 0j], [0j, 1 + 0.1j, 3 + 0j]
    # u_1 and u_2 meet halfway along each swap
    swap, tilted_swap = [1 + 0j, 0j, 3 + 0j], [1 + 0.1j, 0j, 3 + 0j]
    for path, k in (([swap], 1), ([start, swap], 2), ([tilt, tilted_swap], 2),
                    ([start, tilt, tilted_swap], 3)):
        with pytest.raises(CoalescingEigenvaluesError,
                           match=rf"^segment {k} \(vertex {k - 1} to vertex {k}\) "
                                 r"brings u_1 and u_2"):
            integrate_isomonodromic(IsoState(u=start, V=V), path)


@pytest.mark.parametrize("path", [[], [[0j, 1 + 0j, 3 + 0j]]])
def test_a_start_point_collision_names_the_start_point(path):
    st = IsoState(u=[0j, 1e-9 + 0j, 3 + 0j], V=_random_state().V)
    with pytest.raises(CoalescingEigenvaluesError,
                       match=r"^the start point brings u_1 and u_2 within 1\.000e-09"):
        integrate_isomonodromic(st, path)


def test_state_json_roundtrip():
    st = _random_state(seed=17)
    st2 = state_from_dict(state_to_dict(st))
    assert np.abs(st2.V - st.V).max() == 0
    assert st2.u == list(np.asarray(st.u, dtype=complex))


def test_psi_orthogonality_across_catalog():
    # Psi^T Psi = eta and the c-reconstruction at a semisimple sample point
    # of every catalog entry (generic complex points keep eigenvalues apart;
    # the truncated CP2 entry is sampled inside its convergence domain)
    base = [0.31 + 0.11j, 0.77 - 0.23j, 1.13 + 0.41j, 0.53 + 0.29j]
    special = {
        "H4": [1.1 + 0.3j, 0.5 - 0.7j, 0.9 + 0.9j, 1.3 - 0.4j],
        "CP2": [0.1 + 0.05j, 0.3 - 0.2j, 0.2 + 0.1j],
    }
    for name in CATALOG_NAMES:
        P = catalog(name) if name != "CP2" else truncated_potential(5)
        t = special.get(name, base[:P.n])
        fr = canonical_coordinates(P, t, tol=1e-8)
        assert np.abs(fr.Psi.T @ fr.Psi - fr.eta).max() < 1e-9
        assert fr.c_residual < 1e-8


def _idempotent_frame(P, t):
    """The frame by idempotent normalization, the reference for
    `canonical_coordinates`: lambda_i from v_i o v_i = lambda_i v_i through
    c_ab^g, pi_i = v_i / lambda_i, psi_i = eta pi_i / sqrt<pi_i, pi_i>, and
    the same sign rule for psi_{i1}.  Returns Psi, lambda, the v_i and eta."""
    c_low, U, eta = _numeric_tensors(P, t)
    c_up = np.einsum("ge,eab->abg", np.linalg.inv(eta), c_low)
    _, vecs = eigen_small(U)
    w = np.einsum("abg,ai,bi->gi", c_up, vecs, vecs)
    lam = (w * vecs.conj()).sum(axis=0) / (vecs * vecs.conj()).sum(axis=0)
    pi = vecs / lam
    norm2 = np.einsum("ai,ab,bi->i", pi, eta, pi)
    Psi = (eta @ (pi / np.sqrt(norm2))).T
    p1 = Psi[:, P.unity_index]
    Psi[~((p1.real > 0) | ((p1.real == 0) & (p1.imag > 0)))] *= -1
    return Psi, lam, vecs, eta


@pytest.mark.parametrize("name", CATALOG_NAMES + ["CP2(8)"])
def test_frame_from_the_pairing_matches_the_idempotent_normalization(name):
    # psi_i = eta v_i / sqrt<v_i, v_i> is the normalized idempotent, because
    # <v, v> = <v o v, e> = lambda <v, e>; the CP2 entries are sampled where
    # their truncation holds (t1 = 0, Re t2 <= 0, |t3| <= 0.05)
    P = catalog(name)
    rng = np.random.default_rng(27)
    for _ in range(8):
        if name.startswith("CP2"):
            r = 0.05 * np.sqrt(rng.uniform())
            t = [0j, complex(-rng.uniform(0, 1), rng.uniform(-1, 1)),
                 complex(r * np.exp(2j * np.pi * rng.uniform()))]
        else:
            t = list(rng.uniform(-1, 1, P.n) + 1j * rng.uniform(-1, 1, P.n))
        Psi, lam, vecs, eta = _idempotent_frame(P, t)
        fr = canonical_coordinates(P, t)
        assert np.abs(fr.Psi - Psi).max() <= 1e-12 * np.abs(Psi).max(), (name, t)
        vv = np.einsum("ai,ab,bi->i", vecs, eta, vecs)
        ve = (eta @ vecs)[P.unity_index]
        assert np.abs(vv - lam * ve).max() <= 1e-12 * np.abs(vv).max(), (name, t)


# ---------------------------------------------------------------------------
# numeric tensors against the exact oracle
# ---------------------------------------------------------------------------

def test_numeric_u_matches_symbolic_on_catalog():
    # CP2(8) carries the e^{k t2} terms, the inversion of A3 negative powers
    from frobenii.frobenius import euler_multiplication_symbolic, inversion
    rng = np.random.default_rng(5)
    for name in CATALOG_NAMES + ["CP2(8)", "inversion(A3)"]:
        P = inversion(catalog("A3")) if name == "inversion(A3)" else catalog(name)
        U_sym = euler_multiplication_symbolic(P)
        for _ in range(3):
            t = list(0.5 * (rng.uniform(-1, 1, P.n) + 1j * rng.uniform(-1, 1, P.n)))
            want = np.array([[U_sym[a][b].eval_complex(t) for b in range(P.n)]
                             for a in range(P.n)])
            got = euler_multiplication(P, t)
            assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max()), name


def test_frame_at_a_pole_of_a_laurent_potential_is_a_typed_error():
    # the inversion of A3 has negative powers of t3: the frame is fine away
    # from t3 = 0 and raises ZeroDivisionError on it
    import warnings
    from frobenii.frobenius import inversion
    P = inversion(catalog("A3"))
    canonical_coordinates(P, [0.3, 0.2, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ZeroDivisionError):
            canonical_coordinates(P, [0.3, 0.2, 0.0])


@pytest.mark.parametrize("tol, message", [
    (float("nan"), "tol must be positive, got nan"),
    (0, "tol must be positive, got 0"),
    (-1, "tol must be positive, got -1"),
    (float("inf"), "tol must be finite, got inf"),
])
def test_a_frame_refuses_a_tolerance_not_positive_and_finite(tol, message):
    # nan would skip every check and inf or -1 would fail the wrong one
    with pytest.raises(ValueError) as info:
        canonical_coordinates(catalog("B3"), [0.1, 0.2, 0.3], tol=tol)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        eigen_small(np.eye(2), tol=tol)
    assert str(info.value) == message


def test_canonical_coordinates_derives_structure_constants_once(monkeypatch):
    # every derived-tensor consumer reads the cached P.tensors and every
    # frame the cached P.numeric, so one potential differentiates F into c
    # once, reads eta from it and lowers them once whatever is called on it
    from frobenii import frobenius
    calls = {"structure_constants": 0, "_third_derivatives": 0, "numeric_lowering": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(frobenius, "structure_constants",
                        counted("structure_constants", frobenius.structure_constants))
    monkeypatch.setattr(frobenius, "_third_derivatives",
                        counted("_third_derivatives", frobenius._third_derivatives))
    monkeypatch.setattr(frobenius, "numeric_lowering",
                        counted("numeric_lowering", frobenius.numeric_lowering))
    P = catalog("H4")
    canonical_coordinates(P, [1.1 + 0.3j, 0.5 - 0.7j, 0.9 + 0.9j, 1.3 - 0.4j])
    canonical_coordinates(P, [0.7 - 0.2j, -0.4 + 0.6j, 0.3 + 0.8j, -0.9 - 0.5j])
    euler_multiplication(P, [0.2j, 0.3, -0.1 + 0.4j, 0.5])
    assert frobenius.check_wdvv1(P).passed
    assert frobenius.check_grading_eta(P)
    frobenius.intersection_form(P)
    frobenius.gradient_pairing(P, P.F, P.F)
    assert calls == {"structure_constants": 1, "_third_derivatives": 1,
                     "numeric_lowering": 1}


@pytest.mark.parametrize("name, t", [
    ("H3", [0.8878215328541739 - 0.27980493446782795j,
            -0.510679808614733 + 0.39464668901116795j,
            0.28156371900386157 - 0.8261677997044932j]),
    ("H4", [-0.33110070941570235 + 0.5491159634985685j,
            -0.5674546344021512 + 0.2440668600889746j,
            -0.4475669602114465 - 0.7604389539213423j,
            -0.4756310053677928 + 0.2519681024249185j]),
    ("H4", [-0.46978083789761205 + 0.4397494565471709j,
            0.9229574411742563 - 0.15574677071798182j,
            -0.770624235884994 + 0.9072735539022676j,
            -0.4840413392674796 + 0.4834871166643291j]),
])
def test_frame_checks_hold_where_the_charpoly_route_failed(name, t):
    # generic points off the caustic: every frame check holds at its tol
    fr = canonical_coordinates(catalog(name), t)
    assert np.abs(fr.Psi.T @ fr.Psi - fr.eta).max() < 1e-9
    assert fr.c_residual < 1e-9


@pytest.mark.parametrize("t", [
    # near-caustic H4 points of the chart benchmark: seed 6, point #1, and
    # seed 213, point #12, where Psi^T Psi misses eta by over 20 times the
    # tolerance, so the rounding of U does not decide the test
    [0.1301896791032322 + 0.3575601806387261j,
     -0.6846975361843186 + 0.6246103523465698j,
     0.9831340019546919 - 0.012512860128303549j,
     0.1844394896514474 - 0.5040027283037205j],
    [-0.4653131560767392 - 0.2918482686045518j,
     0.27569285306718183 + 0.2560738260254738j,
     -0.5161475108828291 - 0.8650913309178672j,
     -0.7197650731147263 - 0.5218662100057685j],
])
def test_ill_conditioned_frame_is_a_typed_error(t):
    # the gaps clear the collision margin, yet Psi^T Psi misses eta by more
    # than the absolute 1e-9: the error says how ill-conditioned the frame is
    with pytest.raises(IllConditionedFrameError) as info:
        canonical_coordinates(catalog("H4"), t)
    err = info.value
    assert isinstance(err, ArithmeticError)
    assert not isinstance(err, CoalescingEigenvaluesError)
    assert 1e-6 < err.gap < 1e-3
    assert err.condition > 100
    assert "smallest gap" in str(err) and "condition number" in str(err)


def test_a_c_reconstruction_miss_is_an_ill_conditioned_frame(monkeypatch):
    # Psi^T Psi = eta holds, but one c_abg off by 1e-6 misses the
    # reconstruction (3.17) by that much, against tol * max(1, max |c|)
    from frobenii import semisimple
    P, t = catalog("B3"), [0.31 + 0.11j, 0.77 - 0.23j, 1.13 + 0.41j]
    fr = canonical_coordinates(P, t)
    numeric_tensors = semisimple._numeric_tensors

    def perturbed(P, t):
        c_low, U, eta = numeric_tensors(P, t)
        c_low = c_low.copy()
        c_low[0, 1, 2] += 1e-6
        return c_low, U, eta
    monkeypatch.setattr(semisimple, "_numeric_tensors", perturbed)
    with pytest.raises(IllConditionedFrameError,
                       match=r"^c reconstruction residual 1\.000e-06 \(smallest gap") as info:
        canonical_coordinates(P, t)
    u = np.array(fr.u)
    gaps = np.abs(u[:, None] - u[None, :])
    assert info.value.gap == gaps[gaps > 0].min()
    assert 1 <= info.value.condition < 1e3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reconstructed_c_is_the_sum_over_the_frame(n):
    # the matmul form equals sum_i psi_ia psi_ib psi_ig / psi_i1 written out,
    # to rounding: 16 n eps of the sum of the terms' moduli
    from frobenii.semisimple import _reconstructed_c
    rng = np.random.default_rng(n)
    for unity in range(n):
        Psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = _reconstructed_c(Psi, unity)
        for a in range(n):
            for b in range(n):
                for g in range(n):
                    terms = [Psi[i, a] * Psi[i, b] * Psi[i, g] / Psi[i, unity]
                             for i in range(n)]
                    bound = 16 * n * np.finfo(float).eps * sum(map(abs, terms))
                    assert abs(got[a, b, g] - sum(terms)) <= bound
