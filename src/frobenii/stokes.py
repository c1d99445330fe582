"""Stokes matrices: braid action, sign-quotient canonical forms, orbits,
Markoff classification, reducibility, tensor products, Coxeter data and the
projective-plane monodromy identities.

A Stokes matrix is upper triangular with unit diagonal over a quadratic
field.  The braid generator sigma_i acts by S -> K S K with K the
elementary matrix carrying [[0,1],[1,-s_{i,i+1}]] in the (i,i+1) block, and
matrices are identified modulo S ~ J S J, J = diag(+-1).

A StokesMatrix stores only `flat`, the Python ints (p, q, d) of its upper
entries row-major, and the one discriminant m of its field (the rule of
`scalars._field_of`).  The braid action, the sign normalization, the orbit
BFS, ==, hash, `key()` and the reducibility scan run on `flat`; `mat`, the
ExactMatrix lift A/D, is built from it on first read, then cached, and
QuadScalars appear only in `S[i, j]`, `upper()` and `triple()`.

Each braid move sigma_(+-i) and the sign rule are compiled per rank n on
first use into straight-line Python over the ints of `flat` (`_braid_move`,
`_sign_rule`), and cached; the sign rule is the greedy rule of
`canonical_form`, its n >= 4 defect included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exact.linalg import (ExactMatrix, IntRows, _charpoly, _matmul, _matrix,
                           _pairs, polynomial_roots, sort_spectrum)
from .exact.scalars import ONE, ZERO, QuadScalar, _field_of, _make, parse_quad

DEFAULT_ORBIT_CAP = 10 ** 6
KEEP_REPRESENTATIVES = 16  # orbit nodes kept in OrbitResult.representatives

Flat = Tuple[int, ...]         # (p, q, d) of each upper entry, row-major, over one m


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> Tuple[Tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def _flat_pairs(n: int) -> Tuple[Tuple[int, int, int], ...]:
    """(i, j, index of the entry's p in the flat tuple), row-major."""
    return tuple((i, j, 3 * k) for k, (i, j) in enumerate(_upper_pairs(n)))


class StokesMatrix:
    """Upper-triangular, unit-diagonal square matrix over one field Q(sqrt m),
    stored as `flat`, the (p, q, d) ints of its upper entries row-major,
    and `m`; entries from two fields raise DiscriminantMismatch.  A
    StokesMatrix never changes: `n`, `m` and `flat` are read-only."""

    # read-only properties over private slots, so that making a matrix stays
    # four plain slot stores: a __setattr__ that refused writes would send
    # them through object.__setattr__, about 0.5 us more per matrix
    __slots__ = ("_n", "_m", "_flat", "_mat")
    n = property(attrgetter("_n"))
    m = property(attrgetter("_m"))
    flat = property(attrgetter("_flat"))

    def __init__(self, entries: Sequence[Sequence] | ExactMatrix):
        mat = entries if isinstance(entries, ExactMatrix) else ExactMatrix(entries)
        n = mat.n
        m, D, A = mat.lift()
        for i in range(n):
            r = A[2 * n * i:2 * n * (i + 1)]
            if r[2 * i] != D or r[2 * i + 1]:
                raise ValueError("diagonal entries must equal 1")
            if any(r[:2 * i]):
                raise ValueError("matrix must be upper triangular")
        flat: List[int] = []
        for i, j in _upper_pairs(n):
            x = 2 * (i * n + j)
            p, q = A[x], A[x + 1]
            g = gcd(p, q, D)
            flat += (p // g, q // g, D // g)
        self._n = n
        self._m = m
        self._flat = tuple(flat)
        self._mat = mat

    @staticmethod
    def from_upper(n: int, upper: Dict[Tuple[int, int], QuadScalar | Fraction | int]
                   ) -> "StokesMatrix":
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for (i, j), v in upper.items():
            if not i < j:
                raise ValueError("upper entries need i < j")
            rows[i][j] = QuadScalar.coerce(v)
        return StokesMatrix(rows)

    @staticmethod
    def from_triple(x, y, z) -> "StokesMatrix":
        """n = 3 shorthand: entries (s12, s13, s23) = (x, y, z)."""
        return StokesMatrix.from_upper(3, {(0, 1): x, (0, 2): y, (1, 2): z})

    def triple(self) -> Tuple[QuadScalar, QuadScalar, QuadScalar]:
        """(s12, s13, s23) of an n = 3 matrix."""
        if self.n != 3:
            raise ValueError("triple() needs n = 3")
        return self.upper()

    def upper(self) -> Tuple[QuadScalar, ...]:
        """The entries above the diagonal, row-major."""
        m, it = self._m, iter(self._flat)
        return tuple(_make(p, q, d, m if q else 1) for p, q, d in zip(it, it, it))

    @property
    def mat(self) -> ExactMatrix:
        """The ExactMatrix, lifted over D = lcm of the entries' d from `flat`
        on first read."""
        if self._mat is None:
            n, t = self._n, self._flat
            D = lcm(*t[2::3])
            A = [0] * (2 * n * n)
            A[::2 * n + 2] = [D] * n
            for i, j, k in _flat_pairs(n):
                f, x = D // t[k + 2], 2 * (i * n + j)
                A[x], A[x + 1] = t[k] * f, t[k + 1] * f
            self._mat = _matrix(n, self._m if any(t[1::3]) else 1, D, tuple(A))
        return self._mat

    def __getitem__(self, ij):
        return self.mat[ij]

    def __eq__(self, other):
        return (isinstance(other, StokesMatrix) and self._flat == other._flat
                and self._m == other._m and self._n == other._n)

    def __hash__(self):
        return hash(self._flat)

    def key(self) -> Tuple[int, ...]:
        """Flat tuple of ints (p, q, d, m) of each upper entry, row-major."""
        m = self._m
        out: List[int] = []
        it = iter(self._flat)
        for p, q, d in zip(it, it, it):
            out += (p, q, d, m if q else 1)
        return tuple(out)

    def __repr__(self):
        return f"StokesMatrix({self.mat!r})"


# ---------------------------------------------------------------------------
# braid action
# ---------------------------------------------------------------------------

def _flat_plan(n: int, letter: int):
    """Which upper entries S -> K S K changes, by entry number (row-major).

    K is the identity outside the (i, i+1) block, which is [[0, 1], [1, -s]]
    for sigma_i and [[-s, 1], [1, 0]] for its inverse, s = S[i, i+1].  Only
    rows i, i+1 right of the block and columns i, i+1 above it change: the
    block entry becomes -s, and each pair (u, v) of partner entries becomes
    (v, u - s * v), which is a swap when s = 0.  The plan holds the block
    entry and the (u, v) pairs."""
    i = abs(letter) - 1
    if not 0 <= i < n - 1:
        raise ValueError(f"generator {letter} out of range for n = {n}")
    at = {ij: k for k, ij in enumerate(_upper_pairs(n))}
    # (entry in row/column i, its partner in row/column i+1)
    pairs = [(at[u], at[v]) for u, v in ([((i, b), (i + 1, b)) for b in range(i + 2, n)]
                                         + [((a, i), (a, i + 1)) for a in range(i)])]
    return at[(i, i + 1)], tuple((v, u) if letter < 0 else (u, v) for u, v in pairs)


# The compiled kernels unpack a flat tuple into locals p<e>, q<e>, d<e> per
# upper entry e.  A move sets entry v of a pair (u, v) around block entry k
# to u - s * v over one denominator, reduced by one gcd unless that is 1; it
# stays u (placed by the swap) when v = 0.
_MOVE_PAIR = """
 if p{v} or q{v}:
  a{v} = p{k} * p{v} + q{k} * q{v} * m
  b{v} = p{k} * q{v} + q{k} * p{v}
  c{v} = d{k} * d{v}
  if c{v} == d{u}: a{v}, b{v} = p{u} - a{v}, q{u} - b{v}
  else: a{v}, b{v}, c{v} = p{u} * c{v} - a{v} * d{u}, q{u} * c{v} - b{v} * d{u}, d{u} * c{v}
  if c{v} != 1 and (g := gcd(a{v}, b{v}, c{v})) != 1:
   a{v}, b{v}, c{v} = a{v} // g, b{v} // g, c{v} // g
 else:
  a{v}, b{v}, c{v} = p{u}, q{u}, d{u}"""
# The sign rule at entry e = (i, j): the first touched index of a component
# gets +1, and a first sign-adjustable nonzero entry is made lex-nonnegative
# (p > 0, or p = 0 and q >= 0) by the sign of its other index.
_SIGN_PAIR = """
 v = p{e} or q{e}
 if v:
  s = 1 if v > 0 else -1
  if e{i}:
   if not e{j}: e{j} = e{i} * s
  elif e{j}: e{i} = e{j} * s
  else: e{i}, e{j} = 1, s"""


def _compile(name: str, lines: List[str], tag: str):
    """The function `name` that `lines` define, in a file named by `tag` so
    that profiles tell the kernels apart; only ints are formatted in."""
    scope: dict = {}
    exec(compile("\n".join(lines), f"<stokes {name} {tag}>", "exec"), {"gcd": gcd}, scope)
    return scope[name]


def _entries(n: int) -> List[str]:
    return [f"p{e}, q{e}, d{e}" for e in range(n * (n - 1) // 2)]


@lru_cache(maxsize=None)
def _braid_move(n: int, letter: int):
    """move(t, m): the flat tuple of K S K for sigma_letter, for the flat
    tuple t of an n x n S over Q(sqrt m); compiled from `_flat_plan` with
    the partner pairs unrolled, and the swap alone when s = 0."""
    k, pairs = _flat_plan(n, letter)
    ents = _entries(n)
    swap, out = list(ents), list(ents)
    out[k] = f"-p{k}, -q{k}, d{k}"
    for u, v in pairs:
        swap[u], swap[v], out[u], out[v] = ents[v], ents[u], ents[v], f"a{v}, b{v}, c{v}"
    return _compile("move", [
        "def move(t, m):", f" {', '.join(ents)}, = t",
        f" if not (p{k} or q{k}):", f"  return ({', '.join(swap)},)",
        *(_MOVE_PAIR.format(k=k, u=u, v=v) for u, v in pairs),
        f" return ({', '.join(out)},)"], f"n={n} letter={letter}")


@lru_cache(maxsize=None)
def _sign_rule(n: int):
    """sign(t): the flat tuple t of an n x n matrix under the sign rule of
    `canonical_form`, with the signs e0..e{n-1} as locals; t itself when no
    sign is -1, and always for n <= 1, which has no upper entries."""
    ents = list(enumerate(_upper_pairs(n)))
    flip = ", ".join(f"p{e} if e{i} == e{j} else -p{e}, q{e} if e{i} == e{j} else -q{e}, d{e}"
                     for e, (i, j) in ents)
    body = [f" {', '.join(_entries(n))}, = t", f" {' = '.join(f'e{i}' for i in range(n))} = 0",
            *(_SIGN_PAIR.format(e=e, i=i, j=j) for e, (i, j) in ents),
            f" if {' or '.join(f'e{i} < 0' for i in range(n))}:", f"  return ({flip},)"]
    return _compile("sign", ["def sign(t):", *(body if ents else []), " return t"], f"n={n}")


def _wrap(n: int, t: Flat, m: int) -> StokesMatrix:
    """The StokesMatrix of a flat tuple over Q(sqrt m), without checks."""
    S = object.__new__(StokesMatrix)
    S._n = n
    S._m = m
    S._flat = t
    S._mat = None
    return S


def braid_generator(S: StokesMatrix, letter: int) -> StokesMatrix:
    """K S K for sigma_letter (a negative letter is the inverse), by its compiled move."""
    return _wrap(S.n, _braid_move(S.n, letter)(S.flat, S.m), S.m)


def braid_apply(S: StokesMatrix, word: Sequence[int] | str) -> StokesMatrix:
    """S under a word of signed generators, +i for sigma_i (1-based) and -i
    for its inverse: a sequence, or text such as "1 -2" or "1,-2"."""
    if isinstance(word, str):
        text, word = word, []
        for tok in text.replace(",", " ").split():
            try:
                word.append(int(tok))
            except ValueError:
                raise ValueError(f"braid word {text!r}: {tok!r} is not an integer") from None
    n, t, m = S.n, S.flat, S.m
    for letter in word:
        t = _braid_move(n, letter)(t, m)
    return _wrap(n, t, m)


def canonical_form(S: StokesMatrix) -> StokesMatrix:
    """Representative of {J S J : J = diag(+-1)}: scanning the upper entries
    row-major, greedily pick signs eps_j so each first sign-adjustable
    nonzero entry becomes lex-nonnegative (the sign rule compiled for S.n).

    It is a sign-class invariant (the same form for every J S J) for n <= 3
    only: for n >= 4 an entry can join two components whose signs are
    already set, and flips neither (the strict xfail
    `test_canonical_is_a_sign_class_invariant_on_a_sparse_matrix`)."""
    return _wrap(S.n, _sign_rule(S.n)(S.flat), S.m)


@dataclass
class OrbitResult:
    finite: bool
    size: int
    representatives: List[StokesMatrix]
    frontier: int = 0
    levels: List[int] = field(default_factory=list)   # nodes first reached per BFS level
    max_bits: Dict[str, int] = field(default_factory=dict)   # of |p|, |q|, d seen
    steps: int = 0     # braid letters tried: 2(n-1) per node expanded
    images: int = 0    # braid images formed: steps minus the skipped inverses


def _max_bits(col: Sequence[int]) -> int:
    return max(max(col, default=0), -min(col, default=0)).bit_length()


def orbit(S: StokesMatrix, max_size: int = DEFAULT_ORBIT_CAP) -> OrbitResult:
    """BFS over sigma_1..sigma_{n-1} and inverses on canonical forms.

    Nodes are flat int tuples (`S.flat`) over the one field of S, and they
    are their own dedup key; every step is a compiled move (`_braid_move`)
    followed by the compiled sign rule (`_sign_rule`).

    For n <= 3 a node is not stepped by the inverse of the letter it was
    reached by: that image is J P J for its parent P and some J = diag(+-1),
    and on 3 indices the sign rule is a sign-class invariant (any two edges
    share an index, so no entry joins two components whose signs are
    already set), so the image is P, which is already seen.  For n >= 4
    the greedy rule is not invariant (see `canonical_form`) and nothing is
    skipped.  `steps` counts the letters tried, skipped ones included;
    `images` counts the braid images formed."""
    if max_size < 1:
        raise ValueError(f"orbit cap must be at least 1, got {max_size}")
    n, m = S.n, S.m
    moves = [_braid_move(n, g * e) for g in range(1, n) for e in (1, -1)]
    sign = _sign_rule(n)
    # the move index skipped on a node reached by moves[a]; -1 skips nothing
    back = [a ^ 1 if n <= 3 else -1 for a in range(len(moves))]
    start = sign(S.flat)
    seen = {start}
    add = seen.add
    size = 1
    keep = [start]
    frontier, skips = [start], [-1]
    levels = [1]
    expanded = skipped = 0

    def result(finite: bool, frontier_size: int, steps: int) -> OrbitResult:
        reps = [_wrap(n, t, m) for t in keep]
        flat = list(chain.from_iterable(seen))
        bits = {f: _max_bits(flat[k::3]) for k, f in enumerate("pqd")}
        return OrbitResult(finite, size, reps, frontier_size, levels, bits,
                           steps, steps - skipped)

    while frontier:
        nxt, nxt_skips = [], []
        for t, skip in zip(frontier, skips):
            for a, move in enumerate(moves):
                if a == skip:
                    skipped += 1
                    continue
                img = sign(move(t, m))
                add(img)
                if len(seen) == size:
                    continue
                size += 1
                if size <= KEEP_REPRESENTATIVES:
                    keep.append(img)
                nxt.append(img)
                nxt_skips.append(back[a])
                if size > max_size:
                    levels.append(len(nxt))
                    return result(False, len(nxt), len(moves) * expanded + a + 1)
            expanded += 1
        if nxt:
            levels.append(len(nxt))
        frontier, skips = nxt, nxt_skips
    return result(True, 0, len(moves) * expanded)


# ---------------------------------------------------------------------------
# Markoff form, reducibility, spectra
# ---------------------------------------------------------------------------

def markoff_form(x, y, z) -> QuadScalar:
    """x^2 + y^2 + z^2 - x y z (vanishes on 3x3 Stokes data of unipotent
    type; the quantum-cohomology triple of the plane is (3, 3, 3))."""
    x, y, z = (QuadScalar.coerce(v) for v in (x, y, z))
    return x * x + y * y + z * z - x * y * z


def is_markoff_times3(x, y, z) -> bool:
    """True iff (x, y, z) = 3 (x1, y1, z1) with integer x1, y1, z1 solving
    x1^2 + y1^2 + z1^2 = 3 x1 y1 z1."""
    vals = []
    for v in (x, y, z):
        v = QuadScalar.coerce(v)
        if v.q or v.d != 1 or v.p % 3:
            return False
        vals.append(v.p // 3)
    x1, y1, z1 = vals
    return x1 * x1 + y1 * y1 + z1 * z1 == 3 * x1 * y1 * z1


def is_reducible(S: StokesMatrix) -> Tuple[bool, Optional[Tuple[List[int], List[int]]]]:
    """S is reducible iff some bipartition I' | I'' has all cross entries
    zero, i.e. iff the graph joining i and j where s_ij != 0 is
    disconnected.  The certificate partition (1-based indices) is the
    component of index 1 and the rest."""
    n, t = S.n, S.flat
    edges = [(i, j) for i, j, k in _flat_pairs(n) if t[k] or t[k + 1]]
    # grow the component of index 0 by sweeps over the edges: at most n sweeps
    comp, grew = {0}, True
    while grew:
        grew = False
        for i, j in edges:
            if (i in comp) != (j in comp):
                comp.update((i, j))
                grew = True
    if len(comp) == n:
        return False, None
    return True, ([i + 1 for i in sorted(comp)],
                  [i + 1 for i in range(n) if i not in comp])


def _unit_upper_inverse(A: IntRows, D: int, m: int) -> IntRows:
    """D^(n-1) S^{-1} for S = A/D unit upper triangular (A_ii = D), by back
    substitution without division: Y_ij = D^(j-i) (S^{-1})_ij is integral
    and obeys Y_jj = 1, Y_ij = -sum_{i<k<=j} A_ik Y_kj D^(k-i-1)."""
    n = len(A)
    pw = [D ** e for e in range(n)]
    X: IntRows = [[(0, 0)] * n for _ in range(n)]
    for j in range(n):
        y = [(0, 0)] * (j + 1)
        y[j] = (1, 0)
        for i in range(j - 1, -1, -1):
            p = q = 0
            for k in range(i + 1, j + 1):
                ap, aq = A[i][k]
                if ap or aq:
                    yp, yq = y[k]
                    w = pw[k - i - 1]
                    p -= (ap * yp + aq * yq * m) * w
                    q -= (ap * yq + aq * yp) * w
            y[i] = (p, q)
        for i, (p, q) in enumerate(y):
            w = pw[n - 1 - j + i]
            X[i][j] = (p * w, q * w)
    return X


def unipotency_charpoly(S: StokesMatrix) -> List[QuadScalar]:
    """Exact characteristic polynomial of S^T S^{-1} (coefficients low to
    high, monic): S = A/D as stored in `S.mat`, S^{-1} = X/D^(n-1) without
    division, and the characteristic polynomial of A^T X / D^n on ints."""
    m, D, flat = S.mat.lift()
    A = _pairs(flat, S.n)
    X = _unit_upper_inverse(A, D, m)
    return _charpoly(m, D ** S.n, _matmul([list(c) for c in zip(*A)], X, m))


def unipotency_spectrum(S: StokesMatrix) -> List[complex]:
    """Eigenvalues of S^T S^{-1}: numeric roots of the exact characteristic
    polynomial, with exact multiplicities (S^T S^{-1} is often defective,
    where an eigensolver is only accurate to about eps^(1/3))."""
    return sort_spectrum(polynomial_roots(unipotency_charpoly(S)))


def tensor(S1: StokesMatrix, S2: StokesMatrix) -> StokesMatrix:
    """Kronecker product with row-major double indices ((i', i'') before
    (j', j'') iff i' < j' or i' = j', i'' < j'')."""
    n1, n2 = S1.n, S2.n
    N = n1 * n2
    rows = [[QuadScalar(0)] * N for _ in range(N)]
    for i1 in range(n1):
        for i2 in range(n2):
            for j1 in range(n1):
                for j2 in range(n2):
                    rows[i1 * n2 + i2][j1 * n2 + j2] = S1.mat[i1, j1] * S2.mat[i2, j2]
    return StokesMatrix(rows)


# ---------------------------------------------------------------------------
# Coxeter graphs and reflection machinery
# ---------------------------------------------------------------------------

_COS_VALUES = {
    3: QuadScalar(Fraction(-1)),
    4: QuadScalar(0, -1, 2),
    5: QuadScalar(Fraction(-1, 2), Fraction(-1, 2), 5),
    6: QuadScalar(0, -1, 3),
}


def coxeter_stokes(graph: Iterable[Tuple[int, int, int]]) -> StokesMatrix:
    """S_{ij} = -2 cos(pi/m_ij) on edges (1-based nodes), 0 otherwise, of
    size the largest node; exact values exist for m in {3, 4, 5, 6}."""
    edges = list(graph)
    n = max(max(i, j) for i, j, _ in edges)
    upper: Dict[Tuple[int, int], QuadScalar] = {}
    for i, j, m in edges:
        if i == j:
            raise ValueError("no loops in a Coxeter graph")
        if m < 3:
            raise ValueError("edge labels must be >= 3")
        if m not in _COS_VALUES:
            raise ValueError(f"-2 cos(pi/{m}) is not a quadratic irrationality")
        a, b = sorted((i - 1, j - 1))
        upper[(a, b)] = _COS_VALUES[m]
    return StokesMatrix.from_upper(n, upper)


def gram_and_reflections(S: StokesMatrix) -> Tuple[ExactMatrix, List[ExactMatrix]]:
    """G = (S + S^T)/2 and the reflections R_j = I - E_j (S + S^T), E_j the
    j-th diagonal matrix unit: x_j -> x_j - sum_k (S + S^T)_{jk} x_k
    (identity on the other coordinates).  Each R_j is an
    involution preserving the quadratic form with Gram matrix S + S^T.
    Requires det(S + S^T) != 0."""
    A = S.mat + S.mat.transpose()
    if not A.det():
        raise ValueError("S + S^T is degenerate")
    n = S.n
    I = ExactMatrix.identity(n)
    units = (ExactMatrix([[int(i == k == j) for k in range(n)] for i in range(n)])
             for j in range(n))
    return A.scale(Fraction(1, 2)), [I - E @ A for E in units]


# ---------------------------------------------------------------------------
# CP2 modular identities
# ---------------------------------------------------------------------------

@dataclass
class Cp2ModularReport:
    t0_cubed_is_minus_one: bool
    conjugation_identities: bool
    form_preserved: bool
    b_cubed_is_one: bool

    @property
    def passed(self) -> bool:
        return (self.t0_cubed_is_minus_one and self.conjugation_identities
                and self.form_preserved and self.b_cubed_is_one)


def cp2_modular_check() -> Cp2ModularReport:
    """Exact identities of the quantum-cohomology monodromy group of the
    plane: with T the e^{2 pi i/3}-rotation matrix and T0 = T R1, one has
    T0^3 = -1, R2 = T0^{-1} R1 T0, R3 = T0^{-1} R2 T0, and all generators
    preserve q(x,y,z) = 2(x^2+y^2+z^2+3xy-3xz-3yz)."""
    S = stokes_catalog("CP2-monodromy")
    A = S.mat + S.mat.transpose()
    _, refs = gram_and_reflections(S)
    R1, R2, R3 = refs
    T = ExactMatrix([[0, -1, 0], [0, 0, 1], [-1, -3, 3]])
    T0 = T @ R1
    expect_T0 = ExactMatrix([[0, -1, 0], [0, 0, 1], [1, 0, 0]])
    minus_I = ExactMatrix.identity(3).scale(-1)
    ok_t0 = (T0 == expect_T0) and (T0 @ T0 @ T0 == minus_I)
    ok_conj = True
    T0_inv = (T0 @ T0).scale(-1)   # T0^{-1} = -T0^2 since T0^3 = -1
    ok_conj &= (T0_inv @ R1 @ T0 == R2)
    ok_conj &= (T0_inv @ R2 @ T0 == R3)
    ok_form = all(M.transpose() @ A @ M == A for M in (R1, R2, R3, T, T0))
    B = T0.scale(-1)
    ok_b = (B @ B @ B == ExactMatrix.identity(3))
    return Cp2ModularReport(bool(ok_t0), bool(ok_conj), bool(ok_form), bool(ok_b))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_PHI = QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)     # (1+sqrt5)/2
_PHI_CONJ = 1 - _PHI                                      # (1-sqrt5)/2
_RT2 = QuadScalar(0, 1, 2)

# Each entry is (n, upper entries) or a Coxeter graph (see `coxeter_stokes`).
_STOKES = {
    "CP1": (2, {(0, 1): 2}),
    "CP2": (3, {(0, 1): 3, (0, 2): 3, (1, 2): 3}),
    # the sign-equivalent representative whose Gram matrix carries the
    # printed reflection/rotation matrices: (x, y, z) = (3, -3, -3)
    "CP2-monodromy": (3, {(0, 1): 3, (0, 2): -3, (1, 2): -3}),
    "D4-nonstd": (4, {(0, 1): -1, (0, 3): 1, (1, 2): -1, (1, 3): -1, (2, 3): 1}),
    "F4-nonstd": (4, {(0, 1): -1, (0, 3): _RT2, (1, 2): -_RT2, (1, 3): -_RT2,
                      (2, 3): 1}),
    "H4-nonstd-1": (4, {(0, 1): -1, (0, 3): _PHI, (1, 2): -1, (1, 3): -_PHI,
                        (2, 3): _PHI - 1}),
    "H4-nonstd-2": (4, {(0, 1): -1, (0, 3): _PHI, (1, 2): -_PHI, (1, 3): -_PHI,
                        (2, 3): 1}),
    "H4-nonstd-3": (4, {(0, 1): -1, (0, 3): _PHI_CONJ, (1, 2): -_PHI_CONJ,
                        (1, 3): -_PHI_CONJ, (2, 3): 1}),
    "A3-graph": [(1, 2, 3), (2, 3, 3)],
    "B3-graph": [(1, 2, 4), (2, 3, 3)],
    "H3-graph": [(1, 2, 5), (2, 3, 3)],
    "B2": [(1, 2, 4)],
}
_STOKES_BY_KEY = {name.upper(): entry for name, entry in _STOKES.items()}


def stokes_catalog(name: str) -> StokesMatrix:
    """The catalog entry `name`, its case and spaces ignored."""
    entry = _STOKES_BY_KEY.get(name.strip().upper().replace(" ", ""))
    if entry is None:
        raise KeyError(f"unknown Stokes catalog entry {name!r}")
    if isinstance(entry, tuple):
        return StokesMatrix.from_upper(*entry)
    return coxeter_stokes(entry)


STOKES_CATALOG_NAMES = list(_STOKES)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def stokes_to_dict(S: StokesMatrix) -> dict:
    return {
        "n": S.n,
        "m": S.m,
        "rows": [[str(S.mat[i, j]) for j in range(S.n)] for i in range(S.n)],
    }


def stokes_from_dict(data: dict) -> StokesMatrix:
    """The matrix of `rows`, whose size and field Q(sqrt m) must match `n`, `m` if stated."""
    rows = [[parse_quad(str(x)) for x in row] for row in data["rows"]]
    if "n" in data and data["n"] != len(rows):
        raise ValueError(f"stated n = {data['n']!r}, but there are {len(rows)} rows")
    _field_of(chain.from_iterable(rows), data.get("m"))
    return StokesMatrix(rows)

