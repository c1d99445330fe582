"""Small dense linear algebra: exact over Q(sqrt m), numeric over C.

An exact matrix over one field Q(sqrt m) is lifted once to A/D (`_lift`):
D is the lcm of the entries' denominators and A holds pairs (p, q) of
Python ints meaning p + q sqrt(m), an element of Z[sqrt m]; entries from
two fields raise DiscriminantMismatch (`scalars._field_of`).  Rows are
tuples: a matrix never changes.  Determinant, inverse and solve share one
fraction-free (Bareiss) elimination of A, whose divisions by the
previous pivot are exact in Z[sqrt m] and go through the pivot's norm
p^2 - q^2 m; characteristic polynomials run Faddeev-LeVerrier on A, whose
divisions by k are exact for the same reason.  A nonzero remainder raises
ArithmeticError instead of being floored, and each returned entry is
brought back to a QuadScalar once.  Yun's square-free decomposition
(`upoly.square_free`) gives the roots of a characteristic polynomial with
exact multiplicities.  The numeric eigensolver is LAPACK (np.linalg.eig)
with a residual check; its canonical (Re, Im) order treats real parts
equal up to rounding as equal, so a conjugate pair always comes out
ordered by Im.  numpy is imported by the two numeric functions only,
`polynomial_roots` and `eigen_small`, so the exact part of this module,
and everything that uses only it, loads without numpy.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from typing import List, Sequence, Tuple

from .scalars import ONE, ZERO, QuadScalar, ScalarLike, _field_of, _norm
from .upoly import square_free


class SingularMatrixError(ZeroDivisionError):
    pass


Row = List[QuadScalar]


class ExactMatrix:
    """Square matrix over one quadratic field; `rows` is a tuple of tuples."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        self.n = len(rows)
        self.rows = tuple(tuple(QuadScalar.coerce(x) for x in r) for r in rows)
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def _wrap(rows: Sequence[Sequence[QuadScalar]]) -> "ExactMatrix":
        """Matrix on rows of QuadScalars, frozen into tuples (no coercion)."""
        M = object.__new__(ExactMatrix)
        M.n = len(rows)
        M.rows = tuple(map(tuple, rows))
        return M

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int) -> "ExactMatrix":
        return ExactMatrix([[0] * n for _ in range(n)])

    def __getitem__(self, ij: Tuple[int, int]) -> QuadScalar:
        return self.rows[ij[0]][ij[1]]

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix._wrap([[a + b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix._wrap([[a - b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._wrap([[-a for a in r] for r in self.rows])

    def scale(self, c: ScalarLike) -> "ExactMatrix":
        c = QuadScalar.coerce(c)
        return ExactMatrix._wrap([[a * c for a in r] for r in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        n = self.n
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            ri = self.rows[i]
            for k in range(n):
                a = ri[k]
                if not a:
                    continue
                rk = other.rows[k]
                oi = out[i]
                for j in range(n):
                    if rk[j]:
                        oi[j] = oi[j] + a * rk[j]
        return ExactMatrix._wrap(out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._wrap(list(zip(*self.rows)))

    def trace(self) -> QuadScalar:
        return sum((self.rows[i][i] for i in range(self.n)), ZERO)

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows)
        return f"ExactMatrix({body})"

    # -- solving -------------------------------------------------------------
    def inverse(self) -> "ExactMatrix":
        n = self.n
        return ExactMatrix._wrap(_solve(
            [list(r) + [ONE if i == j else ZERO for j in range(n)]
             for i, r in enumerate(self.rows)]))

    def det(self) -> QuadScalar:
        m, D, A = _lift(self.rows)
        try:
            sign, (p, q) = _bareiss(A, m)
        except SingularMatrixError:
            return ZERO
        return _norm(sign * p, sign * q, D ** self.n, m)

    def charpoly(self) -> List[QuadScalar]:
        """Coefficients [c0..cn] of det(lambda*I - M) = sum c_k lambda^k (c_n = 1)."""
        return _charpoly(*_lift(self.rows))


# ---------------------------------------------------------------------------
# integer kernel: A/D with A over Z[sqrt m] as (p, q) pairs of ints
# ---------------------------------------------------------------------------

Pair = Tuple[int, int]
IntRows = List[List[Pair]]
_PAIR_ZERO = (0, 0)


def _lift(rows: Sequence[Sequence[QuadScalar]]) -> Tuple[int, int, IntRows]:
    """(m, D, A) with rows = A/D: m the one discriminant of the entries (1
    when all are rational), D the lcm of their denominators and A the
    (p, q) pairs of D * entry."""
    m = _field_of(chain.from_iterable(rows))
    D = lcm(*[c.d for r in rows for c in r])
    if D == 1:
        return m, 1, [[(c.p, c.q) for c in r] for r in rows]
    return m, D, [[(c.p * (D // c.d), c.q * (D // c.d)) for c in r] for r in rows]


def _divide(p: int, q: int, a: int, b: int, m: int) -> Pair:
    """(p + q sqrt m) / (a + b sqrt m) in Z[sqrt m], through the norm
    a^2 - b^2 m; raises ArithmeticError if the quotient is not integral."""
    if b:
        p, q, a = p * a - q * b * m, q * a - p * b, a * a - b * b * m
    p, rp = divmod(p, a)
    q, rq = divmod(q, a)
    if rp or rq:
        raise ArithmeticError("inexact division in Z[sqrt m]")
    return p, q


def _bareiss(A: IntRows, m: int) -> Tuple[int, Pair]:
    """Fraction-free elimination below the diagonal of the first n columns
    of the n rows A (each row may carry further columns), in place.

    After step k every entry right of column k in rows > k is a minor of
    order k + 2 of the row-swapped A, so its division by the previous
    pivot is exact; entries below the diagonal are left stale.  Returns
    (sign of the row permutation, last pivot), so det(A) = sign * pivot;
    raises SingularMatrixError at a column without a nonzero pivot."""
    n = len(A)
    sign = 1
    a, b = 1, 0                       # previous pivot
    for k in range(n):
        if A[k][k] == _PAIR_ZERO:
            piv = next((r for r in range(k + 1, n) if A[r][k] != _PAIR_ZERO), None)
            if piv is None:
                raise SingularMatrixError(f"singular at column {k}")
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        rk = A[k]
        kp, kq = rk[k]
        div = a * a - b * b * m if b else a
        cols = range(k + 1, len(rk))
        for i in range(k + 1, n):
            ri = A[i]
            ip, iq = ri[k]
            for j in cols:
                xp, xq = ri[j]
                yp, yq = rk[j]
                p = xp * kp - ip * yp + (xq * kq - iq * yq) * m
                q = xp * kq + xq * kp - ip * yq - iq * yp
                if b:
                    p, q = p * a - q * b * m, q * a - p * b
                if div != 1:
                    p, rp = divmod(p, div)
                    q, rq = divmod(q, div)
                    if rp or rq:
                        raise ArithmeticError("inexact Bareiss division in Z[sqrt m]")
                ri[j] = (p, q)
        a, b = kp, kq
    return sign, (a, b)


def _solve(rows: List[List[QuadScalar]]) -> List[Row]:
    """X with M X = B for the n rows [M | B] over one field, M n x n.

    One lift of [M | B] over one D (which cancels), `_bareiss`, then
    fraction-free back substitution for Y = pivot * X, which lies in
    Z[sqrt m] (pivot = +-det of the lifted M), so its divisions by the
    diagonal are exact; each entry of X is Y / pivot, reduced once."""
    n = len(rows)
    m, _, A = _lift(rows)
    _, (a, b) = _bareiss(A, m)
    norm = a * a - b * b * m        # Y / pivot = Y * conj(pivot) / norm
    out: List[Row] = [[] for _ in range(n)]
    for c in range(n, len(A[0]) if n else 0):
        y: List[Pair] = [_PAIR_ZERO] * n
        for i in range(n - 1, -1, -1):
            ri = A[i]
            bp, bq = ri[c]
            p, q = bp * a + bq * b * m, bp * b + bq * a
            for j in range(i + 1, n):
                up, uq = ri[j]
                yp, yq = y[j]
                p -= up * yp + uq * yq * m
                q -= up * yq + uq * yp
            y[i] = _divide(p, q, *ri[i], m)
        for i, (p, q) in enumerate(y):
            out[i].append(_norm(p * a - q * b * m, q * a - p * b, norm, m))
    return out


def _matmul(A: IntRows, B: IntRows, m: int) -> IntRows:
    """A @ B over Z[sqrt m], skipping zero entries of A."""
    w = len(B[0]) if B else 0
    out = []
    for ra in A:
        acc_p = [0] * w
        acc_q = [0] * w
        for (ap, aq), rb in zip(ra, B):
            if ap or aq:
                for j, (bp, bq) in enumerate(rb):
                    acc_p[j] += ap * bp + aq * bq * m
                    acc_q[j] += ap * bq + aq * bp
        out.append(list(zip(acc_p, acc_q)))
    return out


def _charpoly(m: int, D: int, A: IntRows) -> List[QuadScalar]:
    """Coefficients [c0..cn] of det(lambda*I - A/D), low to high.

    Faddeev-LeVerrier on the ints of A: M_1 = A, c_{n-k} = -tr(M_k)/k and
    M_{k+1} = A (M_k + c_{n-k} I); the c_j of A lie in Z[sqrt m], so the
    division by k is exact (checked).  c_j of A/D is c_j of A over D^(n-j)."""
    n = len(A)
    high: List[Pair] = [(1, 0)]          # c_n, c_{n-1}, ..., c_0
    M = A
    for k in range(1, n + 1):
        cp, cq = _divide(-sum(r[i][0] for i, r in enumerate(M)),
                         -sum(r[i][1] for i, r in enumerate(M)), k, 0, m)
        high.append((cp, cq))
        if k < n:
            B = [list(r) for r in M]
            for i, r in enumerate(B):
                bp, bq = r[i]
                r[i] = (bp + cp, bq + cq)
            M = _matmul(A, B, m)
    return [_norm(p, q, D ** j, m) for j, (p, q) in enumerate(high)][::-1]


def polynomial_roots(coeffs: Sequence[ScalarLike]) -> List[complex]:
    """Roots of a nonzero exact polynomial (coefficients low to high), each
    repeated by its exact multiplicity: np.roots of each square-free factor,
    whose roots are simple and so accurate to rounding even where the
    polynomial itself has repeated roots."""
    import numpy as np
    roots: List[complex] = []
    for a, mult in square_free([QuadScalar.coerce(c) for c in coeffs]):
        simple = np.roots([complex(c) for c in reversed(a)])
        roots += [complex(z) for z in simple for _ in range(mult)]
    return roots


def exact_solve(A: ExactMatrix | Sequence[Sequence[ScalarLike]],
                rhs: Sequence[ScalarLike]) -> List[QuadScalar]:
    """Solve A x = rhs exactly; raises SingularMatrixError if A is singular."""
    if not isinstance(A, ExactMatrix):
        A = ExactMatrix(A)
    n = A.n
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    return [x for (x,) in _solve([list(r) + [QuadScalar.coerce(v)]
                                  for r, v in zip(A.rows, rhs)])]


# ---------------------------------------------------------------------------
# numeric eigenproblem
# ---------------------------------------------------------------------------

# Real parts closer than this fraction of the largest modulus count as equal
# in the canonical order: rounding alone must not swap a conjugate pair.
_REAL_TIE = 1e-12


def _spectrum_order(values: Sequence[complex]) -> List[int]:
    """Indices putting values in (Re, Im) order, real parts within the
    rounding bound _REAL_TIE * max |z| taken as equal."""
    z = [complex(v) for v in values]
    tie = _REAL_TIE * max((abs(v) for v in z), default=0.0)
    by_im = lambda k: (z[k].imag, z[k].real)
    order: List[int] = []
    group: List[int] = []
    for k in sorted(range(len(z)), key=lambda k: z[k].real):
        if group and z[k].real - z[group[-1]].real > tie:
            order += sorted(group, key=by_im)
            group = []
        group.append(k)
    return order + sorted(group, key=by_im)


def sort_spectrum(values: Sequence[complex]) -> List[complex]:
    """Canonical eigenvalue order: lexicographic by (Re, Im), with real parts
    equal up to rounding (see _REAL_TIE) ordered by Im."""
    z = [complex(v) for v in values]
    return [z[k] for k in _spectrum_order(z)]


def eigen_small(M: np.ndarray, tol: float = 1e-9) -> Tuple[List[complex], np.ndarray]:
    """Eigenvalues and eigenvectors of a small complex matrix.

    LAPACK (np.linalg.eig); returns the eigenvalues in the order of
    sort_spectrum and the matching unit eigenvectors as columns.  Raises if a
    residual ||Mv - lambda v|| exceeds tol * max(1, max |M_ij|).
    """
    import numpy as np
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    lam, vecs = np.linalg.eig(M)
    order = _spectrum_order(lam)
    lam = [complex(lam[k]) for k in order]
    vecs = vecs[:, order]
    scale = max(1.0, float(np.abs(M).max()))
    resid = np.linalg.norm(M @ vecs - vecs * np.array(lam), axis=0)
    for l, r in zip(lam, resid):
        if r > tol * scale:
            raise ArithmeticError(
                f"eigenpair residual {r:.3e} exceeds tolerance for lambda={l}")
    return lam, vecs
