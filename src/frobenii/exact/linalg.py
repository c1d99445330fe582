"""Small dense linear algebra: exact over Q(sqrt m), numeric over C.

Exact routines run plain Gaussian elimination with nonzero pivoting (every
QuadScalar is invertible, so no growth control is needed at desk scale),
Faddeev-LeVerrier for characteristic polynomials and Yun's square-free
decomposition for their roots with exact multiplicities.  The numeric
eigensolver is LAPACK (np.linalg.eig) with a residual check; its canonical
(Re, Im) order treats real parts equal up to rounding as equal, so a
conjugate pair always comes out ordered by Im.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .scalars import ONE, ZERO, QuadScalar, ScalarLike


class SingularMatrixError(ZeroDivisionError):
    pass


Row = List[QuadScalar]


class ExactMatrix:
    """Square matrix over one quadratic field."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        self.n = len(rows)
        self.rows: List[Row] = [[QuadScalar.coerce(x) for x in r] for r in rows]
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def _wrap(rows: List[Row]) -> "ExactMatrix":
        """Matrix on rows of QuadScalars, taken as they are (no coercion)."""
        M = object.__new__(ExactMatrix)
        M.n = len(rows)
        M.rows = rows
        return M

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int) -> "ExactMatrix":
        return ExactMatrix([[0] * n for _ in range(n)])

    def __getitem__(self, ij: Tuple[int, int]) -> QuadScalar:
        return self.rows[ij[0]][ij[1]]

    def __setitem__(self, ij: Tuple[int, int], v: ScalarLike):
        self.rows[ij[0]][ij[1]] = QuadScalar.coerce(v)

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
        return ExactMatrix._wrap([list(col) for col in zip(*self.rows)])

    def trace(self) -> QuadScalar:
        return sum((self.rows[i][i] for i in range(self.n)), ZERO)

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows)
        return f"ExactMatrix({body})"

    # -- solving -------------------------------------------------------------
    def solve(self, rhs: Sequence[ScalarLike]) -> List[QuadScalar]:
        return exact_solve(self, rhs)

    def inverse(self) -> "ExactMatrix":
        n = self.n
        aug = [list(r) + [QuadScalar(1 if i == j else 0) for j in range(n)]
               for i, r in enumerate(self.rows)]
        _eliminate(aug, n)
        return ExactMatrix([row[n:] for row in aug])

    def det(self) -> QuadScalar:
        n = self.n
        a = [list(r) for r in self.rows]
        det = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return ZERO
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det = det * a[col][col]
            inv = a[col][col].inverse()
            for r in range(col + 1, n):
                f = a[r][col] * inv
                if not f:
                    continue
                for c in range(col, n):
                    a[r][c] = a[r][c] - f * a[col][c]
        return det

    def charpoly(self) -> List[QuadScalar]:
        """Coefficients [c0..cn] of det(lambda*I - M) = sum c_k lambda^k (c_n = 1).

        Faddeev-LeVerrier; divisions are by integers only.
        """
        n = self.n
        M = ExactMatrix.zeros(n)
        coeffs = [ZERO] * (n + 1)
        coeffs[n] = ONE
        I = ExactMatrix.identity(n)
        for k in range(1, n + 1):
            M = self @ (M + I.scale(coeffs[n - k + 1]))
            coeffs[n - k] = -(M.trace() / k)
        return coeffs


# Polynomials below are coefficient lists over one quadratic field, low to
# high, without trailing zeros.

def _trim(p: Row) -> Row:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_sub(p: Row, q: Row) -> Row:
    return _trim([(p[k] if k < len(p) else ZERO) - (q[k] if k < len(q) else ZERO)
                  for k in range(max(len(p), len(q)))])


def _poly_divmod(p: Row, d: Row) -> Tuple[Row, Row]:
    rem = list(p)
    inv = d[-1].inverse()
    quo = [ZERO] * max(len(p) - len(d) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        f = rem[k + len(d) - 1] * inv
        quo[k] = f
        for j, c in enumerate(d):
            rem[k + j] = rem[k + j] - f * c
    return quo, _trim(rem[:len(d) - 1])


def _poly_gcd(p: Row, q: Row) -> Row:
    """Monic gcd; p must be nonzero."""
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    inv = p[-1].inverse()
    return [c * inv for c in p]


def _square_free_factors(f: Row) -> List[Tuple[Row, int]]:
    """Yun's decomposition f = lc * prod a_i^i with the a_i monic,
    square-free and pairwise coprime; returns the (a_i, i) with deg a_i > 0."""
    deriv = lambda p: [c * k for k, c in enumerate(p)][1:]
    df = deriv(f)
    a = _poly_gcd(f, df)
    b = _poly_divmod(f, a)[0]
    d = _poly_sub(_poly_divmod(df, a)[0], deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _poly_divmod(b, a)[0]
        d = _poly_sub(_poly_divmod(d, a)[0], deriv(b))
        i += 1
    return out


def polynomial_roots(coeffs: Sequence[ScalarLike]) -> List[complex]:
    """Roots of a nonzero exact polynomial (coefficients low to high), each
    repeated by its exact multiplicity: np.roots of each square-free factor,
    whose roots are simple and so accurate to rounding even where the
    polynomial itself has repeated roots."""
    roots: List[complex] = []
    for a, mult in _square_free_factors(_trim([QuadScalar.coerce(c) for c in coeffs])):
        simple = np.roots([complex(c) for c in reversed(a)])
        roots += [complex(z) for z in simple for _ in range(mult)]
    return roots


def _eliminate(aug: List[List[QuadScalar]], n: int):
    """In-place Gauss-Jordan on an n x m augmented system, m >= n."""
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise SingularMatrixError(f"singular at column {col}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col or not aug[r][col]:
                continue
            f = aug[r][col]
            aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]


def exact_solve(A: ExactMatrix | Sequence[Sequence[ScalarLike]],
                rhs: Sequence[ScalarLike]) -> List[QuadScalar]:
    """Solve A x = rhs exactly; raises SingularMatrixError if A is singular."""
    if not isinstance(A, ExactMatrix):
        A = ExactMatrix(A)
    n = A.n
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    aug = [list(r) + [QuadScalar.coerce(rhs[i])] for i, r in enumerate(A.rows)]
    _eliminate(aug, n)
    return [aug[i][n] for i in range(n)]


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
