"""Small dense linear algebra: exact over Q(sqrt m), numeric over C.

An ExactMatrix over one field Q(sqrt m) is stored as its integer lift A/D:
D > 0 and A the ints p, q of each D * entry = p + q sqrt m, row-major, in
normal form (gcd of D and all of A is 1; m = 1 when every q is 0), so ==
compares fields.  Every operation runs on the lift; the QuadScalar `rows`
are built on first read.  A matrix made from rows is lifted (`_lift`) at
its first integer operation, where entries from two fields raise
DiscriminantMismatch (`scalars._field_of`).  Determinant, inverse and solve
share one fraction-free (Bareiss) elimination of A, whose divisions by the
previous pivot are exact in Z[sqrt m] and go through the pivot's norm
p^2 - q^2 m; characteristic polynomials run Faddeev-LeVerrier on A, whose
divisions by k are exact for the same reason; a nonzero remainder raises
ArithmeticError.  Yun's square-free decomposition (`upoly.square_free`)
gives the roots of a characteristic polynomial with exact multiplicities.
The numeric eigensolver is LAPACK (np.linalg.eig) with a residual check;
its canonical (Re, Im) order treats real parts equal up to rounding as
equal, so a conjugate pair always comes out ordered by Im.  numpy is
imported by `polynomial_roots` and `eigen_small` only, so the exact part of
this module, and everything that uses only it, loads without numpy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, neg, sub
from typing import List, Sequence, Tuple

from .scalars import (ZERO, DiscriminantMismatch, QuadScalar, ScalarLike,
                      _field_of, _norm)
from .upoly import square_free


class SingularMatrixError(ZeroDivisionError):
    pass


Pair = Tuple[int, int]
IntRows = List[List[Pair]]
Flat = Tuple[int, ...]          # p, q of each entry of A, row-major
_PAIR_ZERO = (0, 0)


class ExactMatrix:
    """Square matrix over one quadratic field, stored as A/D (see the module
    docstring); `rows`, a tuple of tuples of QuadScalars, is read-only."""

    __slots__ = ("n", "_m", "_D", "_A", "_rows")

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        self.n = len(rows)
        self._rows = tuple(tuple(QuadScalar.coerce(x) for x in r) for r in rows)
        if any(len(r) != self.n for r in self._rows):
            raise ValueError("matrix must be square")
        self._A = None

    @property
    def rows(self) -> Tuple[Tuple[QuadScalar, ...], ...]:
        if self._rows is None:
            m, D = self._m, self._D
            self._rows = tuple(tuple(_norm(p, q, D, m) for p, q in r)
                               for r in _pairs(self._A, self.n))
        return self._rows

    def lift(self) -> Tuple[int, int, Flat]:
        """(m, D, A), lifting a matrix made from rows on first call."""
        if self._A is None:
            self._m, self._D, self._A = _lift(self._rows)
        return self._m, self._D, self._A

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        A = [0] * (2 * n * n)
        A[::2 * n + 2] = [1] * n
        return _matrix(n, 1, 1, tuple(A))

    @staticmethod
    def zeros(n: int) -> "ExactMatrix":
        return _matrix(n, 1, 1, (0,) * (2 * n * n))

    def __getitem__(self, ij: Tuple[int, int]) -> QuadScalar:
        return self.rows[ij[0]][ij[1]]

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return _sum(self, other, add)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return _sum(self, other, sub)

    def __neg__(self) -> "ExactMatrix":
        m, D, A = self.lift()
        return _matrix(self.n, m, D, tuple(map(neg, A)))

    def scale(self, c: ScalarLike) -> "ExactMatrix":
        c = QuadScalar.coerce(c)
        m, D, A = self.lift()
        m, p, q, it = _join(m, c.m), c.p, c.q, iter(A)
        return _reduced(self.n, m, D * c.d, tuple(chain.from_iterable(
            (x * p + y * q * m, x * q + y * p) for x, y in zip(it, it))))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        (m1, D1, A1), (m2, D2, A2), n = self.lift(), other.lift(), self.n
        m = _join(m1, m2)
        return _reduced(n, m, D1 * D2, _flat(_matmul(_pairs(A1, n), _pairs(A2, n), m)))

    def transpose(self) -> "ExactMatrix":
        m, D, A = self.lift()
        return _matrix(self.n, m, D, _transposer(self.n)(A))

    def trace(self) -> QuadScalar:
        m, D, A = self.lift()
        step = 2 * self.n + 2
        return _norm(sum(A[::step]), sum(A[1::step]), D, m)

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.lift() == other.lift()

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows)
        return f"ExactMatrix({body})"

    # -- solving -------------------------------------------------------------
    def inverse(self) -> "ExactMatrix":
        m, N, d = _solve(self, ExactMatrix.identity(self.n).lift(), self.n)
        return _reduced(self.n, m, d, _flat(N))

    def det(self) -> QuadScalar:
        m, D, A = self.lift()
        try:
            sign, (p, q) = _bareiss(_pairs(A, self.n), m)
        except SingularMatrixError:
            return ZERO
        return _norm(sign * p, sign * q, D ** self.n, m)

    def charpoly(self) -> List[QuadScalar]:
        """Coefficients [c0..cn] of det(lambda*I - M) = sum c_k lambda^k (c_n = 1)."""
        m, D, A = self.lift()
        return _charpoly(m, D, _pairs(A, self.n))


# ---------------------------------------------------------------------------
# the stored form and the integer kernel: A over Z[sqrt m] as (p, q) pairs
# ---------------------------------------------------------------------------

_new = object.__new__


def _matrix(n: int, m: int, D: int, A: Flat) -> ExactMatrix:
    """The ExactMatrix A/D over Q(sqrt m), already in normal form."""
    M = _new(ExactMatrix)
    M.n, M._m, M._D, M._A, M._rows = n, m, D, A, None
    return M


def _reduced(n: int, m: int, D: int, A: Flat) -> ExactMatrix:
    """The ExactMatrix A/D over Q(sqrt m), D != 0, brought to normal form."""
    if D < 0:
        D, A = -D, tuple(map(neg, A))
    if D != 1:
        g = gcd(D, *A)
        if g != 1:
            D, A = D // g, tuple([x // g for x in A])
    if m != 1 and not any(A[1::2]):
        m = 1
    return _matrix(n, m, D, A)


def _join(m1: int, m2: int) -> int:
    """The field of values over Q(sqrt m1) and Q(sqrt m2) (1: rational)."""
    if m1 == m2 or m2 == 1:
        return m1
    if m1 == 1:
        return m2
    raise DiscriminantMismatch(f"sqrt({m1}) vs sqrt({m2})")


def _sum(X: ExactMatrix, Y: ExactMatrix, op) -> ExactMatrix:
    """X + Y or X - Y (op = add, sub), over the lcm of the two D."""
    (m1, D1, A1), (m2, D2, A2) = X.lift(), Y.lift()
    m = _join(m1, m2)
    if D1 == D2:
        return _reduced(X.n, m, D1, tuple(map(op, A1, A2)))
    D = lcm(D1, D2)
    f1, f2 = D // D1, D // D2
    return _reduced(X.n, m, D, tuple([op(x * f1, y * f2) for x, y in zip(A1, A2)]))


@lru_cache(maxsize=None)
def _transposer(n: int):
    """Takes the flat A of an n x n matrix to that of its transpose."""
    at = [2 * (i * n + j) for j in range(n) for i in range(n)]
    return itemgetter(*[x for k in at for x in (k, k + 1)]) if n else tuple


def _lift(rows: Sequence[Sequence[QuadScalar]]) -> Tuple[int, int, Flat]:
    """(m, D, A) with rows = A/D, D the lcm of the entries' d (so that
    gcd(D, A) = 1, as each entry's gcd(p, q, d) is 1)."""
    m = _field_of(chain.from_iterable(rows))
    D = lcm(*[c.d for r in rows for c in r])
    return m, D, tuple([x for r in rows for c in r
                        for x in (c.p * (D // c.d), c.q * (D // c.d))])


def _pairs(A: Flat, w: int) -> IntRows:
    """The rows of (p, q) pairs of a flat A with w columns."""
    it = iter(A)
    row = list(zip(it, it))
    return [row[k:k + w] for k in range(0, len(row), w or 1)]


def _flat(rows: IntRows) -> Flat:
    return tuple(chain.from_iterable(chain.from_iterable(rows)))


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


def _solve(M: ExactMatrix, lifted: Tuple[int, int, Flat], w: int
           ) -> Tuple[int, IntRows, int]:
    """(m, N, d) with M X = B for X = N/d over Q(sqrt m), B = the n x w lift
    (m_B, D_B, B_flat).

    M = L/D, so D_B L X = D B_flat: `_bareiss` of the int rows
    [D_B L | D B_flat], then fraction-free back substitution for Y = pivot X,
    which lies in Z[sqrt m] (pivot = +-det of D_B L), so its divisions by
    the diagonal are exact; X = Y conj(pivot) / norm(pivot)."""
    (m, D, L), (mb, Db, B), n = M.lift(), lifted, M.n
    m = _join(m, mb)
    A = _pairs([x * Db for x in L], n)
    for r, right in zip(A, _pairs([x * D for x in B], w)):
        r += right
    _, (a, b) = _bareiss(A, m)
    N: IntRows = [[] for _ in range(n)]
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
            N[i].append((p * a - q * b * m, q * a - p * b))
    return m, N, a * a - b * b * m


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
    m, N, d = _solve(A, _lift([[QuadScalar.coerce(v)] for v in rhs]), 1)
    return [_norm(p, q, d, m) for ((p, q),) in N]


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


def check_tol(tol: float) -> None:
    """A tolerance must be positive and finite; otherwise ValueError."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if tol == float("inf"):
        raise ValueError("tol must be finite, got inf")


def eigen_small(M: np.ndarray, tol: float = 1e-9) -> Tuple[List[complex], np.ndarray]:
    """Eigenvalues and eigenvectors of a small complex matrix.

    LAPACK (np.linalg.eig); returns the eigenvalues in the order of
    sort_spectrum and the matching unit eigenvectors as columns.  Raises if a
    residual ||Mv - lambda v|| exceeds tol * max(1, max |M_ij|), and
    ValueError unless tol passes `check_tol`."""
    check_tol(tol)
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
