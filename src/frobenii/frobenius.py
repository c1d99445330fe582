"""Frobenius potentials: WDVV solutions, their exact checks and invariants.

A :class:`FrobeniusPotential` bundles a free energy F (exp-polynomial in
t1..tn), the charge d, grading degrees q_alpha, shifts r_alpha and the unity
coordinate.  Everything downstream -- the constant metric eta, structure
constants, WDVV residuals, intersection form, monodromy data at the origin,
deformed flat coordinates, inversion symmetry, tensor locus -- is computed
exactly in the coefficient field.  The c_abg are derived once per potential,
eta is read from their unity plane c_1ab and inverted once, and all are
cached on it as ``P.tensors``; their numeric lowering (eta, mu, and one
monomial table with one scatter matrix onto the c_abg and U = E o, as
read-only arrays) is cached as ``P.numeric``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact.exppoly import ExpPolynomial, NotClosedFormError, dot
from .exact.linalg import ExactMatrix, SingularMatrixError
from .exact.scalars import QuadScalar, _field_of, parse_quad


class NonConstantMetricError(ValueError):
    pass


class DegenerateMetricError(ValueError):
    pass


@dataclass(frozen=True)
class FrobeniusPotential:
    n: int
    F: ExpPolynomial
    d: Fraction
    q: Tuple[Fraction, ...]
    r: Tuple[Fraction, ...]
    unity_index: int = 0
    name: str = ""
    # (variable index, max exp order) of a series potential truncated in one
    # exponential direction: F lies inside it, products work modulo e^{(K+1) t_var}
    exp_truncation: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.F.nvars != self.n:
            raise ValueError("F arity does not match n")
        if not 0 <= self.unity_index < self.n:
            raise ValueError(f"unity_index {self.unity_index} is outside 0..{self.n - 1}")
        if self.exp_truncation is not None:
            var, order = self.exp_truncation
            if not 0 <= var < self.n:
                raise ValueError(f"truncation variable {var} is outside 0..{self.n - 1}")
            if any(exps[var] > order for _, exps in self.F.terms):
                raise ValueError(f"F has an exp weight above {order} in t{var + 1}, "
                                 "outside its window")
        if len(self.q) != self.n or len(self.r) != self.n:
            raise ValueError("grading data arity mismatch")
        if self.q[self.unity_index] != 0:
            raise ValueError("q must vanish at the unity coordinate")
        for qa, ra in zip(self.q, self.r):
            if ra != 0 and qa != 1:
                raise ValueError("r_alpha may be nonzero only where q_alpha = 1")

    @cached_property
    def tensors(self) -> Tensors:
        """eta, eta^{-1}, c_abg and c_ab^g, derived once and shared."""
        return structure_constants(self)

    @cached_property
    def numeric(self) -> Numeric:
        """The constant tensors and the c_abg lowered once to read-only
        arrays, built on first use."""
        return numeric_lowering(self)

    @cached_property
    def euler(self) -> Tuple[ExpPolynomial, ...]:
        """Components E^a = (1-q_a) t^a + r_a of the Euler vector field."""
        return tuple(ExpPolynomial.variable(self.n, a).scale(1 - qa)
                     + ExpPolynomial.constant(self.n, ra)
                     for a, (qa, ra) in enumerate(zip(self.q, self.r)))

    def contract_euler(self, fields: Sequence[ExpPolynomial]) -> ExpPolynomial:
        """sum_e E^e fields[e]."""
        return dot(self.n, ((E, f) for E, f in zip(self.euler, fields) if E))[0]

    def lie_euler(self, f: ExpPolynomial) -> ExpPolynomial:
        return self.contract_euler([f.diff(a) for a in range(self.n)])

    def mu(self) -> List[Fraction]:
        return [qa - self.d / 2 for qa in self.q]


@dataclass
class ResidualReport:
    """The residuals of one check; a WDVV report also counts the associator
    entries it formed, the term products it formed and those it skipped
    because the truncation would drop them."""
    passed: bool
    residuals: Dict[Tuple[int, ...], ExpPolynomial] = field(default_factory=dict)
    details: str = ""
    entries: int = 0
    products: int = 0
    skipped: int = 0

    def max_nonzero(self) -> int:
        return sum(1 for r in self.residuals.values() if not r.is_zero())


# ---------------------------------------------------------------------------
# basic tensors
# ---------------------------------------------------------------------------

class Tensors(NamedTuple):
    """c_low[a][b][g] = c_abg = d_a d_b d_g F, c_up[a][b][g] = c_ab^g =
    eta^{ge} c_eab (nested tuples), eta and its inverse."""
    c_low: Tuple[Tuple[Tuple[ExpPolynomial, ...], ...], ...]
    c_up: Tuple[Tuple[Tuple[ExpPolynomial, ...], ...], ...]
    eta: ExactMatrix
    eta_inv: ExactMatrix


class Numeric(NamedTuple):
    """A potential in floating point, as read-only arrays: eta; mu_a =
    q_a - d/2 exact and as floats; and the distinct monomials
    t^powers[k] exp(weights[k] . t) of the c_abg and of U^a_b = E^e c_eb^a,
    which the (n^3 + n^2, T) matrix scatter, the exact coefficients in place,
    sums into c_abg flattened in (a, b, g) followed by U flattened in (a, b)."""
    eta: np.ndarray
    mu: Tuple[Fraction, ...]
    mu_float: np.ndarray
    powers: np.ndarray
    weights: np.ndarray
    scatter: np.ndarray


def _symmetric_fill(n: int, pair, entry):
    """The symmetric tensor T_abg = entry(pair(a, b), g) as nested tuples:
    pair is formed once per a <= b and entry once per a <= b <= g."""
    T = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ab = pair(a, b)
            for g in range(b, n):
                val = entry(ab, g)
                for i, j, k in {(a, b, g), (a, g, b), (b, a, g),
                                (b, g, a), (g, a, b), (g, b, a)}:
                    T[i][j][k] = val
    return tuple(tuple(map(tuple, plane)) for plane in T)


def _third_derivatives(P: FrobeniusPotential):
    """c_abg = d_a d_b d_g F, one derivative per a <= b <= g, and eta_ab =
    c_1ab read from its unity plane, which must be constant."""
    first = [P.F.diff(a) for a in range(P.n)]
    c_low = _symmetric_fill(P.n, lambda a, b: first[a].diff(b), lambda ab, g: ab.diff(g))
    unity = c_low[P.unity_index]
    for a, plane in enumerate(unity):
        for b, e in enumerate(plane):
            if not e.is_constant():
                raise NonConstantMetricError(
                    f"d1 d{a + 1} d{b + 1} F is not constant: {e}")
    return c_low, ExactMatrix([[e.constant_term() for e in plane] for plane in unity])


def metric_eta(P: FrobeniusPotential) -> ExactMatrix:
    """eta_ab = d_1 d_a d_b F, the unity plane of c_abg.  Checks only that
    eta is constant: a degenerate eta is returned as it is, and the one
    elimination in ``structure_constants`` rejects it."""
    return _third_derivatives(P)[1]


def _lincomb(n: int, coefs: Sequence[QuadScalar],
             polys: Sequence[ExpPolynomial]) -> ExpPolynomial:
    """sum_i coefs[i] polys[i], skipping zero coefficients."""
    z = (0,) * n
    return dot(n, ((ExpPolynomial._wrap(n, {(z, z): c}), p)
                   for c, p in zip(coefs, polys) if c))[0]


def structure_constants(P: FrobeniusPotential) -> Tensors:
    """Builds the tensors of P from scratch, c_abg and eta from one
    differentiation of F and eta^{-1} from one elimination; callers read
    the cached ``P.tensors`` instead."""
    n = P.n
    c_low, eta = _third_derivatives(P)
    try:
        eta_inv = eta.inverse()
    except SingularMatrixError as exc:
        raise DegenerateMetricError("eta is degenerate") from exc

    def raised(a: int, b: int) -> Tuple[ExpPolynomial, ...]:
        c_ab = [c[a][b] for c in c_low]  # c_{e a b} over e
        return tuple(_lincomb(n, eta_inv.rows[g], c_ab) for g in range(n))
    c_up = tuple(tuple(raised(a, b) for b in range(n)) for a in range(n))
    return Tensors(c_low, c_up, eta, eta_inv)


def numeric_lowering(P: FrobeniusPotential) -> Numeric:
    """Lowers P from scratch; callers read the cached ``P.numeric``."""
    import numpy as np
    entries = [c for plane in P.tensors.c_low for row in plane for c in row]
    entries += [u for row in euler_multiplication_symbolic(P) for u in row]
    column: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    for f in entries:
        for key in f.terms:
            column.setdefault(key, len(column))
    scatter = np.zeros((len(entries), len(column)), dtype=complex)
    for i, f in enumerate(entries):
        for key, c in f.terms.items():
            scatter[i, column[key]] = complex(c)
    mu = tuple(P.mu())
    arrays = [np.array([[complex(x) for x in row] for row in P.tensors.eta.rows]),
              np.array([float(m) for m in mu]),
              np.array([pows for pows, _ in column]),
              np.array([exps for _, exps in column], dtype=float), scatter]
    for arr in arrays:
        arr.flags.writeable = False
    return Numeric(arrays[0], mu, *arrays[1:])


# ---------------------------------------------------------------------------
# the WDVV checks
# ---------------------------------------------------------------------------

def check_wdvv1(P: FrobeniusPotential) -> ResidualReport:
    """Exact associativity residuals X(ab, gd) - X(db, ga) for a < d, b <= g,
    where X(ab, gd) = c_ab^m c_mgd = c_abl eta^{lm} c_mgd.

    X is symmetric in a <-> b, in g <-> d and under (ab) <-> (gd), so it is
    formed once per unordered pair of unordered pairs, as one ``dot`` over m
    that skips the products the truncation drops."""
    n = P.n
    try:
        c_low, c_up, _, _ = P.tensors
    except (NonConstantMetricError, DegenerateMetricError) as exc:
        return ResidualReport(False, details=str(exc))

    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    X: Dict[Tuple[int, ...], ExpPolynomial] = {}
    entries = products = skipped = 0
    for i, (a, b) in enumerate(pairs):
        for g, dd in pairs[i:]:
            if a == b == g == dd:  # X(aa, aa) enters no residual
                continue
            acc, formed, dropped = dot(n, zip(c_up[a][b], c_low[g][dd]),
                                       P.exp_truncation)
            entries += 1
            products += formed
            skipped += dropped
            for x in ((a, b), (b, a)):
                for y in ((g, dd), (dd, g)):
                    X[x + y] = X[y + x] = acc

    residuals: Dict[Tuple[int, ...], ExpPolynomial] = {}
    for a, dd in itertools.combinations(range(n), 2):
        for b, g in pairs:
            x, y = X[a, b, g, dd], X[dd, b, g, a]
            residuals[(a, b, g, dd)] = ExpPolynomial.zero(n) if x.terms == y.terms else x - y
    ok = all(r.is_zero() for r in residuals.values())
    return ResidualReport(ok, residuals, entries=entries, products=products,
                          skipped=skipped)


def check_quasihomogeneity(P: FrobeniusPotential):
    """L_E F - (3-d) F must be a polynomial of degree at most 2 (t1^3/t2 is
    not one); extract and normalize the quadratic data (A, B, C): a
    quadratic g added to F shifts the remainder by (L_E - (3-d)) g, so it
    kills every term t^a whose Euler eigenvalue sum_i a_i (1 - q_i) is not
    3 - d, and only these resonant terms stay."""
    n = P.n
    rem = P.lie_euler(P.F) - P.F.scale(3 - P.d)
    ok = not rem.has_exp() and all(min(pw) >= 0 and sum(pw) <= 2 for pw, _ in rem.terms)
    A = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    C = Fraction(0)
    if ok:
        for (pows, _), coeff in rem.terms.items():
            if not coeff.is_rational():
                ok = False
                break
            if sum(a * (1 - qa) for a, qa in zip(pows, P.q)) != 3 - P.d:
                continue
            idx = [i for i, p in enumerate(pows) for _ in range(p)]
            if len(idx) == 0:
                C = coeff.a
            elif len(idx) == 1:
                B[idx[0]] = coeff.a
            else:
                i, j = idx
                A[i][j] = A[j][i] = coeff.a * (2 if i == j else 1)
    report = ResidualReport(ok, {(0,): rem} if not ok else {},
                            details="" if ok else f"remainder {rem} is not quadratic")
    return report, A, B, C


def check_grading_eta(P: FrobeniusPotential) -> bool:
    """(q_a + q_b - d) eta_ab = 0 for all a, b."""
    eta = P.tensors.eta
    return all(not eta[a, b] or P.q[a] + P.q[b] == P.d
               for a in range(P.n) for b in range(P.n))


# ---------------------------------------------------------------------------
# intersection form and origin monodromy
# ---------------------------------------------------------------------------

def intersection_form(P: FrobeniusPotential):
    """g^{ab}(t) = E^e c_e^{ab}(t) and the contravariant Christoffels
    Gamma_g^{ab} = ((d+1)/2 - q_b) c^{ab}_g."""
    n = P.n
    _, c_up, _, eta_inv = P.tensors
    # c_e^{ab} = eta^{a l} c_{l e}^b = eta^{a l} eta^{b m} c_{l m e}, one
    # tensor for both g and Gamma
    c_raised = [[[_lincomb(n, eta_inv.rows[a], [c[e][b] for c in c_up])
                  for b in range(n)] for a in range(n)] for e in range(n)]
    g = [[P.contract_euler([c[a][b] for c in c_raised]) for b in range(n)]
         for a in range(n)]
    gamma = [[[c_raised[gg][a][b].scale(Fraction(P.d + 1, 2) - P.q[b])
               for b in range(n)] for a in range(n)] for gg in range(n)]
    return g, gamma


def euler_multiplication_symbolic(P: FrobeniusPotential) -> List[List[ExpPolynomial]]:
    """U^a_b(t) = E^e c_{e b}^a as exact exp-polynomials."""
    n = P.n
    c_up = P.tensors.c_up
    return [[P.contract_euler([c[b][a] for c in c_up]) for b in range(n)]
            for a in range(n)]


@dataclass
class OriginMonodromy:
    mu: List[Fraction]
    R1: ExactMatrix


def origin_monodromy(P: FrobeniusPotential) -> OriginMonodromy:
    """mu_a = q_a - d/2 and (R1)^a_b = sum_e r_e c_{e b}^a, read from the
    polynomial (classical-limit) part of the cached c_up.

    When every r_e vanishes R1 = 0 and no tensor is built."""
    n = P.n
    shifts = [e for e in range(n) if P.r[e]]
    R1 = [[QuadScalar(0)] * n for _ in range(n)]
    if shifts:
        c_up = P.tensors.c_up
        for e in shifts:
            r_e = QuadScalar(P.r[e])
            for b in range(n):
                for a in range(n):
                    val = c_up[e][b][a].polynomial_part()
                    if not val.is_constant():
                        raise NotClosedFormError(
                            "cubic part has non-constant structure constants")
                    R1[a][b] = R1[a][b] + val.constant_term() * r_e
    mu = P.mu()
    for a in range(n):
        for b in range(n):
            if R1[a][b] and mu[a] - mu[b] != 1:
                raise ValueError(f"(R1)^{a + 1}_{b + 1} nonzero but mu gap is not 1")
    return OriginMonodromy(mu=mu, R1=ExactMatrix(R1))


# ---------------------------------------------------------------------------
# deformed flat coordinates
# ---------------------------------------------------------------------------

def _potential_from_gradient(fields: Sequence[ExpPolynomial]) -> ExpPolynomial:
    """Scalar h with grad h = fields, h(0) = 0, by staircase integration
    along 0 -> (t1,0,..) -> (t1,t2,0,..) -> ... -> t.

    Verifies closedness afterwards; raises NotClosedFormError on failure."""
    n = fields[0].nvars
    h = ExpPolynomial.zero(n)
    for v in range(n):
        comp = fields[v]
        for w in range(v + 1, n):
            comp = _set_var_zero(comp, w)
        h = h + comp.integrate(v)
    for v in range(n):
        if not (h.diff(v) - fields[v]).is_zero():
            raise NotClosedFormError("gradient field is not closed")
    return h


def _potential_from_hessian(H: Sequence[Sequence[ExpPolynomial]]) -> ExpPolynomial:
    """Scalar h with Hessian H, h(0) = grad h(0) = 0: each row integrated to
    a gradient component, then the gradient to h."""
    return _potential_from_gradient([_potential_from_gradient(row) for row in H])


def _set_var_zero(p: ExpPolynomial, var: int) -> ExpPolynomial:
    out: Dict = {}
    for (pows, exps), c in p.terms.items():
        if pows[var] > 0:
            continue
        if pows[var] < 0:
            raise NotClosedFormError("cannot restrict negative power to 0")
        key = (pows, tuple(0 if i == var else k for i, k in enumerate(exps)))
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return ExpPolynomial(p.nvars, out)


def deformed_flat_coords(P: FrobeniusPotential, depth: int) -> List[List[ExpPolynomial]]:
    """h_{alpha,p} for p = 0..depth, normalized so the quasihomogeneity
    relation with R = R1 holds whenever the grading permits.

    h[p][alpha] are scalars; gradients are h[p][alpha].diff(beta).
    """
    n = P.n
    _, c_up, eta, _ = P.tensors
    mono = origin_monodromy(P)
    mu = mono.mu
    # h_{alpha,0} = t_alpha = eta_{alpha e} t^e
    t = [ExpPolynomial.variable(n, e) for e in range(n)]
    levels: List[List[ExpPolynomial]] = [[_lincomb(n, eta.rows[a], t) for a in range(n)]]
    for p in range(depth):
        prev = levels[-1]
        grads = [[prev[a].diff(e) for e in range(n)] for a in range(n)]
        lvl = []
        for a in range(n):
            # h_{a,p+1} has Hessian RHS_bg = c_{bg}^e d_e h_{a,p}
            h = _potential_from_hessian(
                [[dot(n, zip(c_up[b][g], grads[a]), P.exp_truncation)[0]
                  for g in range(n)] for b in range(n)])
            h = _normalize_level(P, h, a, p + 1, mu, mono.R1, levels)
            lvl.append(h)
        levels.append(lvl)
    return levels


def _normalize_level(P: FrobeniusPotential, h: ExpPolynomial, a: int, level: int,
                     mu: List[Fraction], R1: ExactMatrix,
                     levels: List[List[ExpPolynomial]]) -> ExpPolynomial:
    """Fix the affine integration constants of h_{a,level}.

    The scalar quasihomogeneity L_E h = (level + 1 - d/2 + mu_a) h
    + sum_e (R1)^e_a h_{e,level-1} + const pins the gradient constants in all
    non-resonant directions; resonant ones (mu-gap = level) stay zero."""
    n = P.n
    deg = Fraction(level + 1) - P.d / 2 + mu[a]
    rterm = _lincomb(n, [R1[e, a] for e in range(n)], levels[level - 1])
    D = P.lie_euler(h) - h.scale(deg) - rterm
    if D.has_exp() or D.total_degree() > 1:
        raise NotClosedFormError(
            f"quasihomogeneity defect of h_({a + 1},{level}) is not affine: {D}")
    shift = [QuadScalar(0)] * n
    for (pows, exps), c in D.terms.items():
        tot = sum(pows)
        if tot == 0:
            continue
        e = next(i for i, pw in enumerate(pows) if pw)
        denom = (1 - P.q[e]) - deg
        if denom != 0:
            shift[e] = -c / QuadScalar(denom)
        # resonant direction: leave the constant at zero
    for e in range(n):
        if shift[e]:
            h = h + ExpPolynomial.variable(n, e).scale(shift[e])
    # re-evaluate the constant part and absorb it when the degree allows
    D = P.lie_euler(h) - h.scale(deg) - rterm
    c0 = D.constant_term()
    if c0 and deg != 0:
        h = h + ExpPolynomial.constant(n, c0 / QuadScalar(deg))
    return h


def gradient_pairing(P: FrobeniusPotential, f: ExpPolynomial, g: ExpPolynomial
                     ) -> ExpPolynomial:
    """<grad f, grad g> = eta^{ab} d_a f d_b g."""
    n = P.n
    eta_inv = P.tensors.eta_inv
    dg = [g.diff(b) for b in range(n)]
    return dot(n, ((f.diff(a), _lincomb(n, eta_inv.rows[a], dg)) for a in range(n)),
               P.exp_truncation)[0]


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def inversion(P: FrobeniusPotential) -> FrobeniusPotential:
    """The special-conformal symmetry: that^n = -1/t^n, that^mid = t^mid/t^n,
    that^1 = (1/2) t_s t^s / t^n, Fhat = (t^n)^{-2} [F - (1/2) t^1 t_s t^s].

    Requires the normalized form: eta antidiagonal, polynomial F.  The image
    is a Laurent-type potential (negative powers of the new t^n)."""
    n = P.n
    if P.F.has_exp():
        raise NotClosedFormError("inversion of exp-potentials is not closed-form")
    eta = P.tensors.eta
    if any(eta[a, b] != int(a + b == n - 1) for a in range(n) for b in range(n)):
        raise NotClosedFormError("inversion requires eta = antidiag(1..1)")
    last = n - 1
    that_n_inv = ExpPolynomial.monomial(n, -1, [0] * (n - 1) + [-1])  # t^n = -1/that^n
    mapping = []
    # sum over middle sigma of that^s that^(n+1-s)
    mid_sum = dot(n, ((ExpPolynomial.variable(n, s), ExpPolynomial.variable(n, n - 1 - s))
                      for s in range(1, n - 1)))[0]
    inv_last = ExpPolynomial.monomial(n, 1, [0] * (n - 1) + [-1])    # 1/that^n
    t1 = ExpPolynomial.variable(n, 0) + (mid_sum * inv_last).scale(Fraction(1, 2))
    mapping.append(t1)
    for s in range(1, n - 1):
        mapping.append(ExpPolynomial.variable(n, s) * that_n_inv)
    mapping.append(that_n_inv)
    Fsub = P.F.substitute(mapping)
    # t_s t^s = 2 t^1 t^n + mid products, evaluated in old coordinates
    ts2 = ExpPolynomial.variable(n, 0) * ExpPolynomial.variable(n, last) * 2 + mid_sum
    corr = (ExpPolynomial.variable(n, 0) * ts2).scale(Fraction(1, 2)).substitute(mapping)
    that_n_sq = ExpPolynomial.monomial(n, 1, [0] * (n - 1) + [2])
    Fhat = that_n_sq * (Fsub - corr)
    dhat = 2 - P.d
    qhat = [Fraction(0)] + [1 - P.d + P.q[s] for s in range(1, n - 1)] + [Fraction(2) - P.d]
    if any(qa == 1 for qa in qhat[1:]):
        raise NotClosedFormError("inversion image has a marginal direction; "
                                 "r-shifts for it are not determined here")
    return FrobeniusPotential(n=n, F=Fhat, d=dhat, q=tuple(qhat),
                              r=tuple(Fraction(0) for _ in range(n)),
                              unity_index=0, name=(P.name + "^" if P.name else ""))


def legendre(P: FrobeniusPotential, kappa: int) -> FrobeniusPotential:
    """Type-1 symmetry that_a = d_a d_kappa F, implemented for the affine case
    (all d_a d_b d_kappa F constant), which keeps the image in the ring.

    The image has charge d - 2 q_kappa, degrees q_a - q_kappa and unity
    coordinate kappa."""
    n = P.n
    if not 0 <= kappa < n:
        raise ValueError("kappa out of range")
    if kappa == P.unity_index:
        return P
    if any(P.r):
        raise NotClosedFormError("type-1 symmetry with r-shifts is not implemented")
    eta_inv = P.tensors.eta_inv
    grad_k = [P.F.diff(kappa).diff(a) for a in range(n)]
    if any(not h.diff(b).is_constant() for h in grad_k for b in range(n)):
        raise NotClosedFormError(
            "type-1 symmetry is closed-form only when d_a d_b d_kappa F is constant")
    # that^a = eta^{ab} d_b d_kappa F = (L t)^a + shift_up[a]
    that_up = [_lincomb(n, eta_inv.rows[a], grad_k) for a in range(n)]
    L = ExactMatrix([[h.diff(b).constant_term() for b in range(n)] for h in that_up])
    shift_up = [h.constant_term() for h in that_up]
    try:
        L_inv = L.inverse()
    except SingularMatrixError as exc:
        raise NotClosedFormError("type-1 transformation is not invertible") from exc
    # G(t) := Fhat(that(t)) so that Hess_t G = L^T (Hess_t F) L
    Lt = L.transpose().rows
    hess = [[P.F.diff(a).diff(b) for b in range(n)] for a in range(n)]
    hess_L = [[_lincomb(n, Lt[g], hess[a]) for g in range(n)] for a in range(n)]
    H = [[_lincomb(n, Lt[e], [row[g] for row in hess_L]) for g in range(n)]
         for e in range(n)]
    G = _potential_from_hessian(H)
    shifted = [ExpPolynomial.variable(n, a) - ExpPolynomial.constant(n, shift_up[a])
               for a in range(n)]
    mapping = [_lincomb(n, L_inv.rows[e], shifted) for e in range(n)]
    Fhat = G.substitute(mapping)
    qhat = tuple(qa - P.q[kappa] for qa in P.q)
    return FrobeniusPotential(n=n, F=Fhat, d=P.d - 2 * P.q[kappa], q=qhat,
                              r=tuple(Fraction(0) for _ in range(n)),
                              unity_index=kappa,
                              name=(P.name + f"~S{kappa + 1}" if P.name else ""))


# ---------------------------------------------------------------------------
# tensor locus
# ---------------------------------------------------------------------------

@dataclass
class TensorLocus:
    n1: int
    n2: int
    eta: ExactMatrix
    d: Fraction
    euler_linear: List[Fraction]   # (1 - q' - q'') per double index, row-major
    euler_shifts: List[Fraction]   # r-contributions per double index
    c_up: List[List[List[ExpPolynomial]]]  # in n1 + n2 variables


def tensor_locus(P1: FrobeniusPotential, P2: FrobeniusPotential) -> TensorLocus:
    """Tensor-product data on the locus where mixed coordinates vanish:
    eta = eta' (x) eta'', c = c'(t') c''(t''), d = d' + d'', Euler field with
    (1 - q'_a - q''_b) coefficients and r-shifts on the two axes."""
    n1, n2 = P1.n, P2.n
    N = n1 * n2
    _, c1up, eta1, _ = P1.tensors
    _, c2up, eta2, _ = P2.tensors
    eta = ExactMatrix([[eta1[a1, b1] * eta2[a2, b2]
                        for b1 in range(n1) for b2 in range(n2)]
                       for a1 in range(n1) for a2 in range(n2)])

    nv = n1 + n2  # the locus is parametrized by (t', t'')

    z1, z2 = (0,) * n1, (0,) * n2

    def embed(p: ExpPolynomial, left: Tuple[int, ...], right: Tuple[int, ...]
              ) -> ExpPolynomial:
        return ExpPolynomial(nv, {(left + pows + right, left + exps + right): c
                                  for (pows, exps), c in p.terms.items()})

    c_up = [[[None] * N for _ in range(N)] for _ in range(N)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    for g1 in range(n1):
                        for g2 in range(n2):
                            val = (embed(c1up[a1][b1][g1], (), z2)
                                   * embed(c2up[a2][b2][g2], z1, ()))
                            c_up[a1 * n2 + a2][b1 * n2 + b2][g1 * n2 + g2] = val
    lin = [1 - P1.q[a1] - P2.q[a2] for a1 in range(n1) for a2 in range(n2)]
    shifts = []
    for a1 in range(n1):
        for a2 in range(n2):
            s = Fraction(0)
            if a2 == P2.unity_index:
                s += P1.r[a1]
            if a1 == P1.unity_index:
                s += P2.r[a2]
            shifts.append(s)
    return TensorLocus(n1=n1, n2=n2, eta=eta, d=P1.d + P2.d,
                       euler_linear=lin, euler_shifts=shifts, c_up=c_up)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _poly(n: int, terms: Dict[Tuple[int, ...], Fraction]) -> ExpPolynomial:
    return ExpPolynomial(n, {(pows, (0,) * n): QuadScalar(c)
                             for pows, c in terms.items()})


# Coxeter entries: the degrees of the invariants, largest (the Coxeter number
# h) first, and the coefficients of F; d = (h - 2)/h and q_a = (h - deg_a)/h.
_COXETER = {
    "A3": ((4, 3, 2), {
        (2, 0, 1): Fraction(1, 2), (1, 2, 0): Fraction(1, 2),
        (0, 2, 2): Fraction(-1, 16), (0, 0, 5): Fraction(1, 960)}),
    "B3": ((6, 4, 2), {
        (2, 0, 1): Fraction(1, 2), (1, 2, 0): Fraction(1, 2),
        (0, 3, 1): Fraction(1, 6), (0, 2, 3): Fraction(1, 6),
        (0, 0, 7): Fraction(1, 210)}),
    "H3": ((10, 6, 2), {
        (2, 0, 1): Fraction(1, 2), (1, 2, 0): Fraction(1, 2),
        (0, 3, 2): Fraction(1, 6), (0, 2, 5): Fraction(1, 20),
        (0, 0, 11): Fraction(1, 3960)}),
    "A4": ((5, 4, 3, 2), {
        (2, 0, 0, 1): Fraction(1, 2), (1, 1, 1, 0): Fraction(1),
        (0, 3, 0, 0): Fraction(1, 2), (0, 0, 4, 0): Fraction(1, 3),
        (0, 1, 2, 1): Fraction(6), (0, 2, 0, 2): Fraction(9),
        (0, 0, 2, 3): Fraction(24), (0, 0, 0, 6): Fraction(216, 5)}),
    "B4": ((8, 6, 4, 2), {
        (2, 0, 0, 1): Fraction(1, 2), (1, 1, 1, 0): Fraction(1),
        (0, 3, 0, 0): Fraction(1), (0, 1, 3, 0): Fraction(1, 3),
        (0, 2, 1, 1): Fraction(3), (0, 0, 4, 1): Fraction(1, 4),
        (0, 1, 2, 2): Fraction(3), (0, 2, 0, 3): Fraction(6),
        (0, 0, 3, 3): Fraction(1), (0, 0, 2, 5): Fraction(18, 5),
        (0, 0, 0, 9): Fraction(18, 7)}),
    "D4": ((6, 4, 4, 2), {
        (2, 0, 0, 1): Fraction(1, 2), (1, 1, 1, 0): Fraction(1),
        (0, 3, 0, 1): Fraction(1), (0, 0, 3, 1): Fraction(1),
        (0, 1, 1, 3): Fraction(6), (0, 0, 0, 7): Fraction(54, 35)}),
    "F4": ((12, 8, 6, 2), {
        (2, 0, 0, 1): Fraction(1, 2), (1, 1, 1, 0): Fraction(1),
        (0, 3, 0, 1): Fraction(1, 18), (0, 0, 4, 1): Fraction(3, 4),
        (0, 1, 2, 3): Fraction(1, 2), (0, 2, 0, 5): Fraction(1, 60),
        (0, 0, 2, 7): Fraction(1, 28),
        (0, 0, 0, 13): Fraction(1, 2 ** 4 * 3 ** 2 * 11 * 13)}),
    "H4": ((30, 20, 12, 2), {
        (1, 1, 1, 0): Fraction(1), (2, 0, 0, 1): Fraction(1, 2),
        (0, 3, 0, 1): Fraction(2, 3), (0, 0, 5, 1): Fraction(1, 240),
        (0, 1, 3, 3): Fraction(1, 18), (0, 2, 1, 5): Fraction(1, 15),
        (0, 0, 4, 7): Fraction(1, 2 ** 3 * 3 ** 3 * 5),
        (0, 1, 2, 9): Fraction(1, 2 * 3 ** 4 * 5),
        (0, 2, 0, 11): Fraction(8, 3 ** 4 * 5 ** 2 * 11),
        (0, 0, 3, 13): Fraction(1, 2 ** 2 * 3 ** 6 * 5 ** 2),
        (0, 0, 2, 19): Fraction(2, 3 ** 8 * 5 ** 3 * 19),
        (0, 0, 0, 31): Fraction(32, 3 ** 13 * 5 ** 6 * 29 * 31)}),
}


def catalog(name: str) -> FrobeniusPotential:
    """Embedded catalog of WDVV solutions.

    Names: I2(k) for k >= 3, A3, B3, H3, A4, B4, D4, F4, H4, CP1, and
    CP2(K), the CP2 potential truncated at order K in e^{t2}; a bare CP2 is
    CP2(5).  Case and spaces are ignored; a NAME(k) whose k is no integer is
    an unknown entry."""
    key = name.strip().upper().replace(" ", "")
    if key in _COXETER:
        degrees, terms = _COXETER[key]
        n, h = len(degrees), degrees[0]
        return FrobeniusPotential(n=n, F=_poly(n, terms), d=Fraction(h - 2, h),
                                  q=tuple(Fraction(h - dg, h) for dg in degrees),
                                  r=(Fraction(0),) * n, name=key)
    if key == "CP1":
        F = ExpPolynomial(2, {
            ((2, 1), (0, 0)): QuadScalar(Fraction(1, 2)),
            ((0, 0), (0, 1)): QuadScalar(1)})
        return FrobeniusPotential(n=2, F=F, d=Fraction(1),
                                  q=(Fraction(0), Fraction(1)),
                                  r=(Fraction(0), Fraction(2)), name="CP1")
    unknown = KeyError(f"unknown catalog entry {name!r}")
    head, k = key, None
    if key.endswith(")") and "(" in key:
        head, arg = key[:-1].split("(", 1)
        try:
            k = int(arg)
        except ValueError:
            raise unknown from None
    if head == "I2" and k is not None:
        if k < 3:
            raise KeyError("I2(k) needs k >= 3")
        # F = 1/2 t1^2 t2 + t2^{k+1}; d = (k-2)/k
        F = _poly(2, {(2, 1): Fraction(1, 2), (0, k + 1): Fraction(1)})
        return FrobeniusPotential(n=2, F=F, d=Fraction(k - 2, k),
                                  q=(Fraction(0), Fraction(k - 2, k)),
                                  r=(Fraction(0), Fraction(0)), name=f"I2({k})")
    if head == "CP2":
        from .gwcp2 import truncated_potential
        return truncated_potential(5 if k is None else k)
    raise unknown


CATALOG_NAMES = ["I2(3)", "I2(4)", "I2(5)", *_COXETER, "CP1", "CP2"]


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def potential_to_dict(P: FrobeniusPotential) -> dict:
    m = _field_of(P.F.terms.values())
    terms = []
    for (pows, exps), c in sorted(P.F.terms.items()):
        terms.append({"coeff": str(c), "powers": list(pows), "exps": list(exps)})
    out = {
        "n": P.n,
        "d": str(P.d),
        "q": [str(x) for x in P.q],
        "r": [str(x) for x in P.r],
        "unity_index": P.unity_index,
        "discriminant": m,
        "terms": terms,
    }
    if P.name:
        out["name"] = P.name
    if P.exp_truncation is not None:
        out["exp_truncation"] = list(P.exp_truncation)
    return out


def _integer(x, name: str) -> int:
    """The value x of the integer field `name`: an int or an integral float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or x % 1:
        raise ValueError(f"field {name!r} must be an integer, got {x!r}")
    return int(x)


def _rational(x, name: str) -> Fraction:
    """The value x of the rational field `name`: a string such as "1/2", an
    int or an integral float.  A bool, a non-integral float or a string that
    is no rational number is refused."""
    if not (isinstance(x, bool) or isinstance(x, float) and x % 1):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"field {name!r} must be a rational string or an integer, got {x!r}")


def potential_from_dict(data: dict) -> FrobeniusPotential:
    n = _integer(data["n"], "n")
    terms = {}
    for t in data["terms"]:
        key = tuple(tuple(_integer(x, f) for x in t[f]) for f in ("powers", "exps"))
        terms[key] = parse_quad(str(t["coeff"]))
    _field_of(terms.values(), data.get("discriminant"))
    F = ExpPolynomial(n, terms)
    trunc = tuple(_integer(x, "exp_truncation") for x in data.get("exp_truncation") or ())
    if trunc and len(trunc) != 2:
        raise ValueError("field 'exp_truncation' must be a pair [variable, order], "
                         f"got {list(trunc)}")
    return FrobeniusPotential(
        n=n, F=F, d=_rational(data["d"], "d"),
        q=tuple(_rational(x, "q") for x in data["q"]),
        r=tuple(_rational(x, "r") for x in data["r"]),
        unity_index=_integer(data.get("unity_index", 0), "unity_index"),
        name=data.get("name", ""),
        exp_truncation=trunc or None)
