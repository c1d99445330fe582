"""Canonical coordinates, the normalized-idempotent frame and the
isomonodromic deformation system.

At a semisimple point the eigenvalues u_i of multiplication by the Euler
field serve as local coordinates; the matrix Psi = (psi_{i alpha}) rotates
flat coordinates into normalized idempotents and satisfies Psi^T Psi = eta.
V = Psi mu Psi^{-1} is skew and evolves isospectrally along u by
dV/du_i = [V_i, V]; the flow is Hamiltonian with quadratic Hamiltonians
H_i = 1/2 sum_{j != i} V_ij^2/(u_i - u_j) whose 1-form sum H_i du_i is
closed (d log tau).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .exact.linalg import eigen_small, sort_spectrum
from .frobenius import FrobeniusPotential
from .ode import IntegrationStats, integrate

DEFAULT_COLLISION_MARGIN = 1e-6


class CoalescingEigenvaluesError(ArithmeticError):
    pass


class IllConditionedFrameError(ArithmeticError):
    """A frame check (Psi^T Psi = eta or the c reconstruction) missed its
    tolerance; the message and attributes give the smallest gap |u_i - u_j|
    and the condition number of the eigenvectors, which bound how well
    double precision can resolve the frame there."""

    def __init__(self, message: str, gap: float, condition: float):
        super().__init__(f"{message} (smallest gap |u_i - u_j| = {gap:.3e}, "
                         f"eigenvector condition number {condition:.3g})")
        self.gap = gap
        self.condition = condition


# ---------------------------------------------------------------------------
# pointwise data
# ---------------------------------------------------------------------------

def _numeric_tensors(P: FrobeniusPotential, t: Sequence[complex]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c_{ab}^g, c_{abg}, eta) at t from the cached ``P.tensors``, the
    raised index last on the first."""
    n = P.n
    c_sym, _, eta, eta_inv = P.tensors
    num = lambda m: np.array([[complex(m[a, b]) for b in range(n)]
                              for a in range(n)])
    c_low = np.empty((n, n, n), dtype=complex)
    for a, b, g in itertools.combinations_with_replacement(range(n), 3):
        val = c_sym[a][b][g].eval_complex(t)
        for i, j, k in itertools.permutations((a, b, g)):
            c_low[i, j, k] = val
    c_up = np.einsum("ge,eab->abg", num(eta_inv), c_low)
    return c_up, c_low, num(eta)


def _euler_matrix(P: FrobeniusPotential, t: Sequence[complex],
                  c_up: np.ndarray) -> np.ndarray:
    """U^a_b = E^e(t) c_{eb}^a with E^e(t) = (1 - q_e) t_e + r_e."""
    E = np.array([(1 - float(q)) * complex(x) + float(r)
                  for q, r, x in zip(P.q, P.r, t)])
    return np.einsum("e,eba->ab", E, c_up)


def euler_multiplication(P: FrobeniusPotential, t: Sequence[complex]) -> np.ndarray:
    """U^a_b(t) = E^e(t) c_{e b}^a, numerically."""
    return _euler_matrix(P, t, _numeric_tensors(P, t)[0])


def _ill_conditioned(message: str, u: Sequence[complex],
                     vecs: np.ndarray) -> IllConditionedFrameError:
    gap = min((abs(x - y) for x, y in itertools.combinations(u, 2)),
              default=float("inf"))
    return IllConditionedFrameError(message, gap, float(np.linalg.cond(vecs)))


@dataclass
class CanonicalFrame:
    u: List[complex]
    Psi: np.ndarray
    mu: List
    eta: np.ndarray
    c_residual: float = 0.0
    branch_note: str = field(default="principal branch of eigenvector phases")


def canonical_coordinates(P: FrobeniusPotential, t: Sequence[complex],
                          tol: float = 1e-9,
                          collision_margin: float = DEFAULT_COLLISION_MARGIN
                          ) -> CanonicalFrame:
    """Canonical coordinates u_i (sorted by (Re, Im)) and the Psi matrix.

    Idempotents are eigenvectors of U normalized by pi.pi = pi in the
    algebra; rows of Psi get the phase of psi_{i1} into (-pi/2, pi/2], the
    tie at -pi/2 flipped.  Verifies Psi^T Psi = eta and the reconstruction
    c_{abg} = sum_i psi_{ia} psi_{ib} psi_{ig} / psi_{i1} within tol."""
    n = P.n
    c_up, c_low, eta = _numeric_tensors(P, t)
    u, vecs = eigen_small(_euler_matrix(P, t, c_up), tol=tol)
    scale = max(1.0, max(abs(x) for x in u))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(u[i] - u[j]) <= collision_margin * scale:
                raise CoalescingEigenvaluesError(
                    f"u_{i + 1} and u_{j + 1} within margin at this point")
    rows = []
    for i in range(n):
        v = vecs[:, i]
        # idempotent normalization: v.v = lambda v in the algebra
        w = np.einsum("abg,a,b->g", c_up, v, v)
        lam_alg = (w @ v.conj()) / (v @ v.conj())
        if abs(lam_alg) < 1e-13:
            raise CoalescingEigenvaluesError("eigenvector is nilpotent-like; "
                                             "point is not semisimple")
        pi = v / lam_alg
        norm2 = pi @ eta @ pi
        if abs(norm2) < 1e-13:
            raise CoalescingEigenvaluesError("idempotent with <pi,pi> = 0")
        f = pi / np.sqrt(norm2)
        psi_row = eta @ f
        p1 = psi_row[P.unity_index]
        if abs(p1) < tol:
            raise CoalescingEigenvaluesError("psi_{i1} = 0: outside the "
                                             "semisimple chart")
        if not (p1.real > 0 or (p1.real == 0 and p1.imag > 0)):
            psi_row = -psi_row
        rows.append(psi_row)
    Psi = np.array(rows)
    ortho = np.abs(Psi.T @ Psi - eta).max()
    if ortho > tol * max(1.0, np.abs(eta).max()):
        raise _ill_conditioned(f"Psi^T Psi differs from eta by {ortho:.3e}", u, vecs)
    # c reconstruction (3.17): c_{abg} = sum_i psi_ia psi_ib psi_ig / psi_i1
    crec = np.einsum("ia,ib,ig,i->abg", Psi, Psi, Psi,
                     1.0 / Psi[:, P.unity_index])
    cres = float(np.abs(crec - c_low).max())
    if cres > tol * max(1.0, float(np.abs(c_low).max())):
        raise _ill_conditioned(f"c reconstruction residual {cres:.3e}", u, vecs)
    return CanonicalFrame(u=u, Psi=Psi, mu=P.mu(), eta=eta, c_residual=cres)


# ---------------------------------------------------------------------------
# V matrices and the isomonodromic system
# ---------------------------------------------------------------------------

@dataclass
class IsoState:
    u: List[complex]
    V: np.ndarray

    def spectrum(self) -> List[complex]:
        return sort_spectrum(np.linalg.eigvals(self.V))

    def skewness(self) -> float:
        return float(np.abs(self.V + self.V.T).max())


def v_matrices(frame: CanonicalFrame) -> Tuple[np.ndarray, List[np.ndarray]]:
    """V = Psi mu Psi^{-1} and the V_i solving [U, V_i] = [E_i, V] with zero
    diagonal: (V_i)_{ib} = V_{ib}/(u_i - u_b), (V_i)_{ai} = V_{ai}/(u_i - u_a)."""
    mu = np.diag([float(m) for m in frame.mu]).astype(complex)
    V = frame.Psi @ mu @ np.linalg.inv(frame.Psi)
    Vis = v_components(frame.u, V)
    return V, Vis


def v_components(u: Sequence[complex], V: np.ndarray) -> List[np.ndarray]:
    n = len(u)
    out = []
    for i in range(n):
        Vi = np.zeros((n, n), dtype=complex)
        for b in range(n):
            if b != i:
                Vi[i, b] = V[i, b] / (u[i] - u[b])
                Vi[b, i] = V[b, i] / (u[i] - u[b])
        out.append(Vi)
    return out


def hamiltonians(state: IsoState) -> List[complex]:
    """H_i = 1/2 sum_{j != i} V_ij^2 / (u_i - u_j)."""
    n = len(state.u)
    out = []
    for i in range(n):
        s = 0j
        for j in range(n):
            if j != i:
                s += state.V[i, j] ** 2 / (state.u[i] - state.u[j])
        out.append(s / 2)
    return out


@dataclass
class IsoDiagnostics:
    spectral_drift: float
    skewness_drift: float
    stats: IntegrationStats
    dlog_tau: complex


def integrate_isomonodromic(state0: IsoState, path: Sequence[Sequence[complex]],
                            tol: float = 1e-10,
                            collision_margin: float = DEFAULT_COLLISION_MARGIN,
                            ) -> Tuple[IsoState, IsoDiagnostics]:
    """Integrate dV/du_i = [V_i, V] along a polyline in u-space.

    The tau increment int sum H_i du_i rides along as an extra component.
    The step guard refuses configurations with min |u_i - u_j| below
    collision_margin * max |u_k|."""
    n = len(state0.u)
    V = np.array(state0.V, dtype=complex)
    spec0 = sort_spectrum(np.linalg.eigvals(V))
    skew0 = float(np.abs(V + V.T).max())
    u_start = np.array(state0.u, dtype=complex)
    verts = [np.array(v, dtype=complex) for v in path]
    if not verts or np.abs(verts[0] - u_start).max() > 1e-12 * max(1.0, np.abs(u_start).max()):
        verts = [u_start] + verts
    total_stats = IntegrationStats()
    logtau = 0j
    spectral_drift = 0.0
    skew_drift = 0.0

    def margin_ok(u: np.ndarray) -> bool:
        scale = max(1.0, float(np.abs(u).max()))
        for i in range(n):
            for j in range(i + 1, n):
                if abs(u[i] - u[j]) < collision_margin * scale:
                    return False
        return True

    if not margin_ok(u_start):
        raise CoalescingEigenvaluesError("start point violates collision margin")
    state_u = u_start
    for vert in verts[1:]:
        du = vert - state_u
        if np.abs(du).max() == 0:
            continue
        u0 = state_u.copy()

        def f(s: float, y: np.ndarray) -> np.ndarray:
            Vmat = y[:n * n].reshape(n, n)
            u = u0 + s * du
            Vis = v_components(u, Vmat)
            dV = np.zeros_like(Vmat)
            ham = 0j
            for i in range(n):
                comm = Vis[i] @ Vmat - Vmat @ Vis[i]
                dV += du[i] * comm
                hi = 0j
                for j in range(n):
                    if j != i:
                        hi += Vmat[i, j] ** 2 / (u[i] - u[j])
                ham += (hi / 2) * du[i]
            out = np.empty(n * n + 1, dtype=complex)
            out[:n * n] = dV.reshape(-1)
            out[n * n] = ham
            return out

        def guard(s: float, y: np.ndarray) -> bool:
            return margin_ok(u0 + s * du)

        y0 = np.concatenate([V.reshape(-1), [0j]])
        y1, stats = integrate(f, y0, 0.0, 1.0, tol=tol, guard=guard)
        V = y1[:n * n].reshape(n, n)
        logtau += y1[n * n]
        total_stats.steps += stats.steps
        total_stats.rejected += stats.rejected
        state_u = vert
        spec = sort_spectrum(np.linalg.eigvals(V))
        spectral_drift = max(spectral_drift,
                             max(abs(a - b) for a, b in zip(spec, spec0)))
        skew_drift = max(skew_drift,
                         abs(float(np.abs(V + V.T).max()) - skew0))
    final = IsoState(u=list(state_u), V=V)
    diag = IsoDiagnostics(spectral_drift=spectral_drift,
                          skewness_drift=skew_drift,
                          stats=total_stats, dlog_tau=logtau)
    return final, diag


def tau_increment(state0: IsoState, path: Sequence[Sequence[complex]],
                  tol: float = 1e-10,
                  collision_margin: float = DEFAULT_COLLISION_MARGIN) -> complex:
    """Delta log tau = int_path sum_i H_i du_i along the isomonodromic flow."""
    _, diag = integrate_isomonodromic(state0, path, tol=tol,
                                      collision_margin=collision_margin)
    return diag.dlog_tau


# ---------------------------------------------------------------------------
# Poisson bracket check
# ---------------------------------------------------------------------------

def _dH(state: IsoState, i: int) -> np.ndarray:
    """dH_i/dV_ab for a < b (full antisymmetric matrix convention)."""
    n = len(state.u)
    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            if a == i:
                out[a, b] = state.V[a, b] / (state.u[a] - state.u[b])
            elif b == i:
                out[a, b] = state.V[a, b] / (state.u[b] - state.u[a])
    return out


def poisson_commutation_check(state: IsoState) -> float:
    """max_{i<j} |{H_i, H_j}| under the so(n) bracket
    {V_ij, V_kl} = V_il d_jk - V_jl d_ik + V_jk d_il - V_ik d_jl,
    with the quadratic Hamiltonians differentiated in closed form."""
    n = len(state.u)
    if n > 6:
        raise ValueError("Poisson check is desk-scale: n <= 6")
    V = state.V

    def bracket(ab, cd):
        a, b = ab
        c, d = cd
        val = 0j
        val += V[a, d] * (1 if b == c else 0)
        val -= V[b, d] * (1 if a == c else 0)
        val += V[b, c] * (1 if a == d else 0)
        val -= V[a, c] * (1 if b == d else 0)
        return val

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    worst = 0.0
    for i in range(n):
        dHi = _dH(state, i)
        for j in range(i + 1, n):
            dHj = _dH(state, j)
            s = 0j
            for ab in pairs:
                if dHi[ab] == 0:
                    continue
                for cd in pairs:
                    if dHj[cd] == 0:
                        continue
                    s += dHi[ab] * dHj[cd] * bracket(ab, cd)
            worst = max(worst, abs(s))
    return worst


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def state_to_dict(state: IsoState) -> dict:
    return {
        "u": [[z.real, z.imag] for z in np.asarray(state.u, dtype=complex)],
        "V": [[[z.real, z.imag] for z in row] for row in np.asarray(state.V)],
    }


def state_from_dict(data: dict) -> IsoState:
    u = [complex(re, im) for re, im in data["u"]]
    V = np.array([[complex(re, im) for re, im in row] for row in data["V"]])
    return IsoState(u=u, V=V)


def path_from_json(text: str) -> List[List[complex]]:
    data = json.loads(text)
    return [[complex(re, im) for re, im in vert] for vert in data]
