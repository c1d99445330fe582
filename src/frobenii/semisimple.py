"""Canonical coordinates, the normalized-idempotent frame and the
isomonodromic deformation system.

At a semisimple point the eigenvalues u_i of multiplication by the Euler
field serve as local coordinates; the matrix Psi = (psi_{i alpha}) rotates
flat coordinates into normalized idempotents and satisfies Psi^T Psi = eta.
Its rows come from the eigenvectors v_i of U and the pairing alone:
psi_i = eta v_i / sqrt<v_i, v_i>, since <v, v> = <v o v, e> = lambda <v, e>.
V = Psi mu Psi^{-1} is skew and evolves isospectrally along u by
dV/du_i = [V_i, V]; the flow is Hamiltonian with quadratic Hamiltonians
H_i = 1/2 sum_{j != i} V_ij^2/(u_i - u_j) whose 1-form sum H_i du_i is
closed (d log tau).

The numerics at a point read the table ``P.numeric`` lowers once per
potential: every distinct monomial of the c_abg and of U as powers and exp
weights, with one scatter matrix of exact coefficients onto both, so a
frame evaluates all monomials in one numpy expression and one mat-vec.

Along a straight segment u(s) = u0 + s du of a path the flow is one
commutator, dV/ds = sum_i du_i [V_i, V] = [A, V] with
A_ab = V_ab (du_a - du_b)/(u_a - u_b).  Every segment of a path is
certified clear of colliding u_i in closed form, all in one stacked
computation, before the first is integrated.  V is meromorphic in u (the
system has the Painleve property), so a segment is integrated by Taylor
steps in s: the coefficients of (du_a - du_b)/(u_a - u_b) are geometric,
those of V follow from a recursion of Cauchy products that costs six numpy
calls per order, and each step's length is read off the last two
coefficients (Jorba-Zou).  That length meets the error bound by
construction, so every step is taken as sized and none is retried.  The
order follows the tolerance: a step starts at p = ceil(-ln(tol) / 2) + 1
and adds orders, up to 2p, while the length read off V falls short of the
rest of the segment.  The tau increment comes from the same coefficients,
and the spectral and skewness drifts from one eigensolve of the V at every
vertex.  V, u and the path must be finite; the integration refuses them
otherwise before its first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .exact.linalg import check_tol, eigen_small, sort_spectrum
from .frobenius import FrobeniusPotential

# u_a and u_b collide when |u_a - u_b| < COLLISION_MARGIN * max(1, max_k |u_k|):
# a frame refuses such a point, a path a segment that comes that close.
COLLISION_MARGIN = 1e-6
MIN_STEP = 1e-14  # a Taylor step below this raises StepUnderflowError
# Taylor steps allowed on one segment; one more raises StepUnderflowError.
# No step is retried, so this counts every step sized.  The largest counts
# seen on one segment are 25 in the test suite and 3 in the chart benchmark's
# loops (seeds 1-10).
MAX_SEGMENT_STEPS = 1000


class CoalescingEigenvaluesError(ArithmeticError):
    pass


class StepUnderflowError(ArithmeticError):
    """The integration cannot proceed: a numerical failure, reported by the
    CLI like any other ArithmeticError."""


@dataclass
class IntegrationStats:
    steps: int = 0
    rejected: int = 0  # no Taylor step is retried, so 0 by construction


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
    """(c_{abg}, U^a_b, eta) at t from the lowered table ``P.numeric``:
    every monomial evaluated in one expression, then one scatter mat-vec."""
    num = P.numeric
    n = P.n
    t = np.asarray(t, dtype=complex)
    mono = np.prod(t ** num.powers, axis=1) * np.exp(num.weights @ t)
    if not np.isfinite(mono).all():
        # a negative power of a zero coordinate (Laurent potentials) or an
        # exp overflow
        raise ZeroDivisionError("a c_abg has a pole or overflows at this point")
    out = num.scatter @ mono
    return out[:n ** 3].reshape(n, n, n), out[n ** 3:].reshape(n, n), num.eta


def euler_multiplication(P: FrobeniusPotential, t: Sequence[complex]) -> np.ndarray:
    """U^a_b(t) = E^e(t) c_{e b}^a, numerically."""
    return _numeric_tensors(P, t)[1]


def _ill_conditioned(message: str, gaps: np.ndarray,
                     vecs: np.ndarray) -> IllConditionedFrameError:
    return IllConditionedFrameError(message, float(gaps.min()),
                                    float(np.linalg.cond(vecs)))


@dataclass
class CanonicalFrame:
    u: List[complex]
    Psi: np.ndarray
    mu: List
    mu_float: np.ndarray  # mu as floats, read-only and shared per potential
    eta: np.ndarray
    c_residual: float = 0.0


def canonical_coordinates(P: FrobeniusPotential, t: Sequence[complex],
                          tol: float = 1e-9) -> CanonicalFrame:
    """Canonical coordinates u_i (sorted by (Re, Im)) and the Psi matrix.

    Row i of Psi is psi_i = eta v_i / sqrt<v_i, v_i> for the eigenvector v_i
    of U (a multiple of the idempotent pi_i; the multiple cancels), with the
    phase of psi_{i1} put into (-pi/2, pi/2], the tie at -pi/2 flipped.
    Verifies Psi^T Psi = eta and the reconstruction
    c_{abg} = sum_i psi_{ia} psi_{ib} psi_{ig} / psi_{i1} within tol."""
    n = P.n
    c_low, U, eta = _numeric_tensors(P, t)
    u, vecs = eigen_small(U, tol=tol)
    ua = np.array(u)
    # gaps[i, j] = |u_i - u_j|, the diagonal excluded
    gaps = np.abs(ua[:, None] - ua[None, :]) + np.diag(np.full(n, np.inf))
    close = np.argwhere(gaps < COLLISION_MARGIN * max(1.0, float(np.abs(ua).max())))
    if close.size:
        # the first pair in row-major order has i < j and is the least such
        i, j = close[0]
        raise CoalescingEigenvaluesError(
            f"u_{i + 1} and u_{j + 1} within margin at this point")
    # <v, v> = <v o v, e> vanishes exactly when v o v = 0
    ev = eta @ vecs
    norm2 = (vecs * ev).sum(axis=0)
    if (np.abs(norm2) < 1e-13).any():
        raise CoalescingEigenvaluesError("<v, v> = 0, so v o v = 0: not semisimple")
    Psi = (ev / np.sqrt(norm2)).T
    p1 = Psi[:, P.unity_index]
    if (np.abs(p1) < tol).any():
        raise CoalescingEigenvaluesError("psi_{i1} = 0: outside the "
                                         "semisimple chart")
    Psi[~((p1.real > 0) | ((p1.real == 0) & (p1.imag > 0)))] *= -1
    ortho = np.abs(Psi.T @ Psi - eta).max()
    if ortho > tol * max(1.0, np.abs(eta).max()):
        raise _ill_conditioned(f"Psi^T Psi differs from eta by {ortho:.3e}", gaps, vecs)
    # c reconstruction (3.17): c_{abg} = sum_i psi_ia psi_ib psi_ig / psi_i1
    crec = np.einsum("ia,ib,ig,i->abg", Psi, Psi, Psi,
                     1.0 / Psi[:, P.unity_index])
    cres = float(np.abs(crec - c_low).max())
    if cres > tol * max(1.0, float(np.abs(c_low).max())):
        raise _ill_conditioned(f"c reconstruction residual {cres:.3e}", gaps, vecs)
    num = P.numeric
    return CanonicalFrame(u=u, Psi=Psi, mu=list(num.mu), mu_float=num.mu_float,
                          eta=eta, c_residual=cres)


# ---------------------------------------------------------------------------
# V matrices and the isomonodromic system
# ---------------------------------------------------------------------------

@dataclass
class IsoState:
    u: List[complex]
    V: np.ndarray


def v_matrices(frame: CanonicalFrame) -> Tuple[np.ndarray, List[np.ndarray]]:
    """V = Psi mu Psi^{-1} and the V_i solving [U, V_i] = [E_i, V] with zero
    diagonal: (V_i)_{ib} = V_{ib}/(u_i - u_b), (V_i)_{ai} = V_{ai}/(u_i - u_a)."""
    V = (frame.Psi * frame.mu_float) @ np.linalg.inv(frame.Psi)
    Vis = v_components(frame.u, V)
    return V, Vis


def _inverse_gaps(u: np.ndarray) -> np.ndarray:
    """G_ab = 1/(u_a - u_b) off the diagonal, G_aa = 0."""
    eye = np.eye(len(u))
    return (1 - eye) / (u[:, None] - u[None, :] + eye)


def _closest_approach(u0: np.ndarray, du: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """min |u_a(s) - u_b(s)| over a < b and s in [0, 1] on each segment
    u(s) = u0[k] + s du[k] of a stack (u0 and du of shape (S, n)), with the
    pair (a, b) and the s where it is attained: four arrays of length S.

    Per pair the gap g0 + s dg is a straight segment in C; its distance to 0
    is attained at s* = clip(-Re(g0 conj(dg))/|dg|^2, 0, 1)."""
    S, n = u0.shape
    g0 = u0[:, :, None] - u0[:, None, :]
    dg = du[:, :, None] - du[:, None, :]
    d2 = (dg * dg.conj()).real
    s = np.clip(-(g0 * dg.conj()).real / np.where(d2 > 0, d2, 1.0), 0.0, 1.0)
    dist = (np.abs(g0 + s * dg) + np.diag(np.full(n, np.inf))).reshape(S, n * n)
    # the first minimum in row-major order has a < b
    at = dist.argmin(axis=1)
    rows = np.arange(S)
    return dist[rows, at], at // n, at % n, s.reshape(S, n * n)[rows, at]


def v_components(u: Sequence[complex], V: np.ndarray) -> List[np.ndarray]:
    """The V_i: (V_i)_{ib} = V_{ib}/(u_i - u_b), (V_i)_{bi} = V_{bi}/(u_i - u_b),
    zero elsewhere."""
    n = len(u)
    inv = _inverse_gaps(np.asarray(u, dtype=complex))
    Vis = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    Vis[idx, idx, :] = V * inv
    Vis[idx, :, idx] = V.T * inv
    return list(Vis)


def hamiltonians(state: IsoState) -> List[complex]:
    """H_i = 1/2 sum_{j != i} V_ij^2 / (u_i - u_j)."""
    V = np.asarray(state.V, dtype=complex)
    inv = _inverse_gaps(np.asarray(state.u, dtype=complex))
    return list(0.5 * (V * V * inv).sum(axis=1))


@dataclass
class IsoDiagnostics:
    spectral_drift: float
    skewness_drift: float
    stats: IntegrationStats
    dlog_tau: complex
    segments: int
    min_order: int  # the lowest and highest Taylor order of a step taken,
    max_order: int  # 0 when the path has no segment of nonzero length


def _segment_series(V: np.ndarray, u: np.ndarray, du: np.ndarray, p: int,
                    bound: float, reach: float) -> Tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients in sigma of V along u + sigma du from V at u, and
    of the tau integrand sum_i du_i H_i, to an order K between p and 2p.

    Off the diagonal the gaps G_ab = u_a - u_b move by dg_ab = du_a - du_b,
    so 1/(G + sigma dg) has the geometric coefficients rho^k / G with
    rho = -dg/G, and B = V o (1/(G + sigma dg)) (zero on the diagonal) has
    B_k = V_k / G + rho o B_{k-1}.  With A = dg o B this is B_k = D_k / G and
    A_k = (dg / G) o D_k for D_k = V_k - A_{k-1} (A_{-1} = 0), with no
    division by dg; pairs with dg = 0 get A_k = 0.  dV/dsigma = [A, V] gives
    (k + 1) V_{k+1} = sum_{j <= k} (A_j V_{k-j} - V_{k-j} A_j).  Nothing is
    assumed of V.  The tau integrand is 1/2 sum_ab du_a V_ab B_ab.

    From order p on, the step length read off the last two coefficients,
    min over j in {K - 1, K} of (bound / |V_j|)^(1/j), is compared with
    `reach`: the series stops at the first K where it reaches `reach`, and
    at K = 2p at the latest.

    Returns (Vb, T): Vb[K - k] = V_k for k <= K, and T[m] for m < K the
    coefficients of the tau integrand."""
    n = len(V)
    top = 2 * p
    dg = du[:, None] - du[None, :]
    inv = _inverse_gaps(u)
    W = dg * inv
    # The commutator sum is one convolution of blocks 2n wide:
    # sum_j [A_j, -V_j] [V_{k-j}; A_{k-j}].  X holds the [A_j, -V_j] forward
    # as a row and Y the [V_i; A_i] backward as a column, so the blocks that
    # V_{k+1} needs are a prefix of X and a suffix of Y: one 2-D matmul.
    X = np.empty((n, top, 2, n), dtype=complex)
    Y = np.empty((top + 1, 2, n, n), dtype=complex)
    Xrow = X.reshape(n, 2 * top * n)
    Ycol = Y.reshape(2 * (top + 1) * n, n)
    D = np.empty((top, n, n), dtype=complex)
    D[0] = V
    Y[top, 0] = V
    np.negative(V, out=X[:, 0, 1])
    np.multiply(W, V, out=Y[top, 1])
    X[:, 0, 0] = Y[top, 1]
    c_prev = 0.0
    for k in range(1, top + 1):
        C = Xrow[:, :2 * k * n] @ Ycol[2 * (top + 1 - k) * n:]
        Vk = Y[top - k, 0]
        np.multiply(C, 1 / k, out=Vk)
        if k >= p - 1:
            c = float(np.abs(Vk).max())
            if k == top or (k >= p and c * reach ** k <= bound
                            and c_prev * reach ** (k - 1) <= bound):
                break
            c_prev = c
        np.negative(Vk, out=X[:, k, 1])
        np.subtract(Vk, Y[top + 1 - k, 1], out=D[k])
        np.multiply(W, D[k], out=Y[top - k, 1])
        X[:, k, 0] = Y[top - k, 1]
    K = k
    Vb = Y[top - K:, 0]
    B = inv * D[:K]
    # M[j, l] pairs V_j with B_l, and T_m sums M over j + l = m: in a
    # zero-padded copy read with rows of 2K - 1, row j is shifted by j, so
    # M[j, l] lands in column j + l.  (A 0/1 matrix-vector product would do
    # the same, but OpenBLAS spreads one of that size over its threads, whose
    # idle spinning then doubles the process time.)  Near a pole of V the
    # products with j + l >= K, which are dropped, may overflow.
    Z = np.zeros((K, 2 * K), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        Z[:, :K] = (Vb[:0:-1] * (0.5 * du[:, None])).reshape(K, n * n) @ B.reshape(K, n * n).T
    return Vb, Z.reshape(-1)[:K * (2 * K - 1)].reshape(K, 2 * K - 1)[:, :K].sum(axis=0)


def _taylor_order(tol: float) -> int:
    """Jorba-Zou's starting order ceil(-ln(tol) / 2) + 1, at least 2."""
    return max(2, math.ceil(-math.log(tol) / 2) + 1)


def _taylor_segment(V: np.ndarray, u0: np.ndarray, du: np.ndarray, tol: float
                    ) -> Tuple[np.ndarray, complex, List[int]]:
    """V and the tau increment at the end of u(s) = u0 + s du, s in [0, 1],
    by Taylor steps of variable order, and the order of each step.

    A step from s starts at Jorba-Zou's order p = ceil(-ln(tol) / 2) + 1 and
    adds orders, up to 2p, while the step length read off V's last two
    coefficients falls short of what is left of the segment; see
    `_segment_series`.  At the order K reached its length comes from the
    last two coefficients of V and of tau: c_j = max(|V_j|, |tau_j|) and
    h = min over j in {K - 1, K} of (tol max(1, |V|) / c_j)^(1/j), capped
    by 1 - s.  So c_K h^K <= tol max(1, |V|) holds by construction and
    every step is taken as sized; none is retried.  A step below MIN_STEP,
    a non-finite end V or tau increment, or one step more than
    MAX_SEGMENT_STEPS raises StepUnderflowError."""
    n = len(V)
    p = _taylor_order(tol)
    powers = np.arange(2 * p + 1)
    orders: List[int] = []
    s, logtau = 0.0, 0j
    while 1.0 - s > MIN_STEP:
        if len(orders) == MAX_SEGMENT_STEPS:
            raise StepUnderflowError(f"{MAX_SEGMENT_STEPS} Taylor steps without "
                                     f"reaching s=1; stuck at s={s}")
        bound = tol * max(1.0, float(np.abs(V).max()))
        Vb, T = _segment_series(V, u0 + s * du, du, p, bound, 1.0 - s)
        K = len(T)
        # c_K and c_{K-1}; tau_{m+1} = T_m / (m + 1)
        last = np.maximum(np.abs(Vb[:2]).reshape(2, -1).max(axis=1),
                          np.abs(T[:-3:-1]) / (K, K - 1))
        h = min([1.0 - s] + [(bound / c) ** (1 / j)
                             for j, c in zip((K, K - 1), last) if c > 0])
        if h < MIN_STEP:
            raise StepUnderflowError(f"Taylor step size underflow at s={s}")
        V = ((h ** powers[K::-1]) @ Vb.reshape(K + 1, n * n)).reshape(n, n)
        if not np.isfinite(V).all():
            raise StepUnderflowError(f"the Taylor step from s={s} ends at a "
                                     f"non-finite V")
        dtau = T @ (h ** powers[1:K + 1] / powers[1:K + 1])
        if not np.isfinite(dtau):
            raise StepUnderflowError(f"the Taylor step from s={s} ends at a "
                                     f"non-finite tau increment")
        logtau += dtau
        s += h
        orders.append(K)
    return V, logtau, orders


def integrate_isomonodromic(state0: IsoState, path: Sequence[Sequence[complex]],
                            tol: float = 1e-10) -> Tuple[IsoState, IsoDiagnostics]:
    """Integrate dV/du_i = [V_i, V] along a polyline in u-space.

    Each straight segment is integrated by Taylor steps in its parameter s
    (`_taylor_segment`), and the tau increment int sum H_i du_i comes from
    the same coefficients.  Every segment is certified before the first is
    integrated, in one stacked computation: the exact closest approach
    min_s |u_a(s) - u_b(s)| of every pair along the straight segment must
    stay at least COLLISION_MARGIN * max(1, max |u_k|) over both endpoints
    (|u| is convex along the segment, so every point of it passes the
    pointwise test); otherwise CoalescingEigenvaluesError names the segment
    and the pair, raised when the integration reaches that segment.  Vertex
    0 is the start and vertex k is path[k - 1]; the start point is segment
    0, of length zero, certified like every segment (the error names "the
    start point"), and a repeated vertex, the start included, is a segment
    of length zero that moves nothing.  A segment that needs more than
    MAX_SEGMENT_STEPS Taylor steps, whose step falls below MIN_STEP or
    whose step ends at a non-finite V raises StepUnderflowError naming the
    segment and the s reached.  The spectral and skewness drifts are read
    from one eigensolve of the V at every vertex reached.  V must be n x n,
    every vertex must have n entries (n = len(u)), every entry of V, u and
    the path must be finite, and tol must be positive and finite; otherwise
    ValueError, before the first step."""
    n = len(state0.u)
    V = np.array(state0.V, dtype=complex)
    if V.shape != (n, n):
        raise ValueError(f"V has shape {V.shape}, but u has {n} entries")
    if not np.isfinite(V).all():
        raise ValueError("V has a non-finite entry")
    for i, vert in enumerate(path):
        if len(vert) != n:
            raise ValueError(f"path vertex {i} has {len(vert)} entries, "
                             f"but u has {n}")
    check_tol(tol)
    # segment k runs from starts[k] to verts[k]; row 0 is the start point
    verts = np.concatenate([np.array([state0.u], dtype=complex),
                            np.array(path, dtype=complex).reshape(-1, n)])
    finite = np.isfinite(verts).all(axis=1)
    if not finite.all():
        k = int(finite.argmin())
        raise ValueError(f"path vertex {k - 1} has a non-finite entry" if k
                         else "u has a non-finite entry")
    starts = np.concatenate([verts[:1], verts[:-1]])
    dus = verts - starts
    margins = COLLISION_MARGIN * np.maximum(
        1.0, np.maximum(np.abs(starts).max(axis=1), np.abs(verts).max(axis=1)))
    gaps, pa, pb, ps = (x.tolist() for x in _closest_approach(starts, dus))
    margins = margins.tolist()
    moving = (dus != 0).any(axis=1).tolist()
    orders: List[int] = []
    logtau = 0j
    Vs = [V]
    for k in range(len(verts)):
        where = f"segment {k} (vertex {k - 1} to vertex {k})" if k else "the start point"
        if gaps[k] < margins[k]:
            raise CoalescingEigenvaluesError(
                f"{where} brings u_{pa[k] + 1} and u_{pb[k] + 1} within {gaps[k]:.3e} "
                f"of each other at s = {ps[k]:.6g}, below the collision margin "
                f"{margins[k]:.3e}")
        if not moving[k]:
            continue
        try:
            V, dlogtau, seg_orders = _taylor_segment(V, starts[k], dus[k], tol)
        except StepUnderflowError as exc:
            raise StepUnderflowError(f"{where}: {exc}") from None
        logtau += dlogtau
        orders += seg_orders
        Vs.append(V)
    stack = np.array(Vs)
    specs = [sort_spectrum(row) for row in np.linalg.eigvals(stack)]
    spectral_drift = max((abs(a - b) for spec in specs[1:]
                          for a, b in zip(spec, specs[0])), default=0.0)
    skews = np.abs(stack + stack.transpose(0, 2, 1)).max(axis=(1, 2))
    final = IsoState(u=list(verts[-1]), V=V)
    diag = IsoDiagnostics(spectral_drift=spectral_drift,
                          skewness_drift=float(np.abs(skews - skews[0]).max()),
                          stats=IntegrationStats(steps=len(orders)), dlog_tau=logtau,
                          segments=len(Vs) - 1,
                          min_order=min(orders, default=0),
                          max_order=max(orders, default=0))
    return final, diag


# ---------------------------------------------------------------------------
# Poisson bracket check
# ---------------------------------------------------------------------------

def _lie_poisson(X: np.ndarray, Y: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The so(n) brackets {f_i, g_j} of functions with skew gradients X_i,
    Y_j at V: the sum over a < b, c < d of X_ab Y_cd {V_ab, V_cd} under
    {V_ab, V_cd} = V_ad d_bc - V_bd d_ac + V_bc d_ad - V_ac d_bd, which for
    skew X, Y is sum_ac (X Y)_ac V_ac.  X and Y are stacks (k, n, n) and
    (l, n, n); the result is (k, l)."""
    return np.einsum("iab,jbc,ac->ij", X, Y, V)


def poisson_commutation_check(state: IsoState) -> float:
    """max_{i<j} |{H_i, H_j}| under the so(n) bracket: the gradient of the
    quadratic Hamiltonian H_i in V is the V_i of `v_components`."""
    V = np.asarray(state.V, dtype=complex)
    Vis = np.array(v_components(state.u, V))
    B = np.abs(_lie_poisson(Vis, Vis, V))
    return float(np.triu(B, 1).max(initial=0.0))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def state_to_dict(state: IsoState) -> dict:
    return {
        "u": [[z.real, z.imag] for z in np.asarray(state.u, dtype=complex)],
        "V": [[[z.real, z.imag] for z in row] for row in np.asarray(state.V)],
    }


def _complex(pair, name: str) -> complex:
    """re + i im of the JSON pair [re, im] in field `name`; any other shape
    is a TypeError, which the command line reports as a malformed field."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise TypeError(f"{name} entry {pair!r} is not a pair [re, im]")
    return complex(*pair)


def state_from_dict(data: dict) -> IsoState:
    u = [_complex(z, "u") for z in data["u"]]
    V = np.array([[_complex(z, "V") for z in row] for row in data["V"]])
    return IsoState(u=u, V=V)


def path_from_list(data: list) -> List[List[complex]]:
    return [[_complex(z, f"path vertex {k}") for z in vert] for k, vert in enumerate(data)]
