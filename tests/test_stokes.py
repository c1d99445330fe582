"""Braid action on Stokes matrices, canonical forms, orbits, Markoff data,
reflection machinery and the plane's monodromy identities."""

import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from frobenii.cli import main
from frobenii.exact import DiscriminantMismatch, ExactMatrix, QuadScalar
from frobenii.stokes import (
    StokesMatrix, braid_apply, braid_generator, canonical_form,
    coxeter_stokes, cp2_modular_check, gram_and_reflections, is_markoff_times3,
    is_reducible, markoff_form, orbit, stokes_catalog, stokes_from_dict,
    stokes_to_dict, tensor, unipotency_charpoly,
    unipotency_spectrum, STOKES_CATALOG_NAMES,
)


def _orbit_report(capsys, name, cap):
    """The report of `stokes orbit <name> --max-size <cap>`."""
    assert main(["stokes", "orbit", name, "--max-size", str(cap)]) == 0
    return json.loads(capsys.readouterr().out)


def _random_stokes(n, rng, quad=False):
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            if quad:
                upper[(i, j)] = QuadScalar(rng.randint(-3, 3),
                                           rng.randint(-1, 1), 5)
            else:
                upper[(i, j)] = F(rng.randint(-4, 4))
    return StokesMatrix.from_upper(n, upper)


# ---------------------------------------------------------------------------
# braid action
# ---------------------------------------------------------------------------

def test_sigma1_closed_form_example():
    S = stokes_catalog("CP2")
    img = braid_apply(S, "1")
    assert [str(v) for v in img.triple()] == ["-3", "3", "-6"]
    assert [str(v) for v in canonical_form(img).triple()] == ["3", "3", "6"]


def test_matrix_route_matches_n3_closed_form():
    rng = random.Random(0)
    for _ in range(40):
        S = _random_stokes(3, rng)
        x, y, z = S.triple()
        s1 = braid_generator(S, 1).triple()
        assert s1 == (-x, z, y - x * z)
        s2 = braid_generator(S, 2).triple()
        assert s2 == (y, x - y * z, -z)


def _kSk(S, letter):
    """The full product K S K of sigma_letter, K the elementary matrix."""
    i = abs(letter) - 1
    s = S.mat[i, i + 1]
    block = [[0, 1], [1, -s]] if letter > 0 else [[-s, 1], [1, 0]]
    K = ExactMatrix([[block[a - i][b - i] if i <= a <= i + 1 and i <= b <= i + 1
                      else int(a == b) for b in range(S.n)] for a in range(S.n)])
    return K @ S.mat @ K


@pytest.mark.parametrize("ring", ["Z", "Z[sqrt2]", "Z[phi]"])
def test_block_update_matches_full_product(ring):
    rng = random.Random(11)
    rt2 = QuadScalar(0, 1, 2)
    phi = QuadScalar(F(1, 2), F(1, 2), 5)
    unit = {"Z": QuadScalar(0), "Z[sqrt2]": rt2, "Z[phi]": phi}[ring]
    for n in (3, 4, 5, 6):
        for _ in range(4):
            S = StokesMatrix.from_upper(n, {
                (i, j): rng.randint(-3, 3) + rng.randint(-2, 2) * unit
                for i in range(n) for j in range(i + 1, n)})
            for g in range(1, n):
                for letter in (g, -g):
                    assert braid_generator(S, letter).mat == _kSk(S, letter)


def test_braid_letter_out_of_range():
    S = stokes_catalog("D4-nonstd")
    for letter in (0, 4, -4):
        with pytest.raises(ValueError):
            braid_generator(S, letter)


def test_empty_word_and_group_property():
    rng = random.Random(1)
    for n in (3, 4, 5):
        for _ in range(10):
            S = _random_stokes(n, rng)
            assert braid_apply(S, "") == S
            for g in range(1, n):
                assert braid_apply(S, [g, -g]) == S
                assert braid_apply(S, [-g, g]) == S


def test_braid_relations_mod_sign():
    rng = random.Random(2)
    for n in (3, 4):
        for _ in range(50):
            S = _random_stokes(n, rng)
            for i in range(1, n - 1):
                lhs = canonical_form(braid_apply(S, [i, i + 1, i]))
                rhs = canonical_form(braid_apply(S, [i + 1, i, i + 1]))
                assert lhs == rhs


def test_far_commutation_mod_sign():
    rng = random.Random(3)
    for _ in range(30):
        S = _random_stokes(4, rng)
        lhs = canonical_form(braid_apply(S, [1, 3]))
        rhs = canonical_form(braid_apply(S, [3, 1]))
        assert lhs == rhs


def test_zeta_acts_trivially_mod_sign():
    rng = random.Random(4)
    for n in (3, 4):
        word = []
        for _ in range(n):
            word.extend(range(1, n))
        for _ in range(25):
            S = _random_stokes(n, rng)
            assert canonical_form(braid_apply(S, word)) == canonical_form(S)


def test_charpoly_of_sts_inverse_braid_invariant():
    rng = random.Random(5)
    for n in (3, 4):
        for _ in range(15):
            S = _random_stokes(n, rng)
            base = unipotency_charpoly(S)
            for g in range(1, n):
                assert unipotency_charpoly(braid_generator(S, g)) == base


def test_markoff_form_braid_and_sign_invariant():
    rng = random.Random(6)
    for _ in range(40):
        S = _random_stokes(3, rng)
        m0 = markoff_form(*S.triple())
        for letter in (1, 2, -1, -2):
            assert markoff_form(*braid_generator(S, letter).triple()) == m0
        assert markoff_form(*canonical_form(S).triple()) == m0


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_is_sign_orbit_invariant():
    rng = random.Random(7)
    for n in (3, 4):
        for _ in range(60):
            S = _random_stokes(n, rng, quad=(n == 3))
            signs = [rng.choice([1, -1]) for _ in range(n)]
            rows = [[S.mat[i, j] * (signs[i] * signs[j]) if j != i else S.mat[i, j]
                     for j in range(n)] for i in range(n)]
            JSJ = StokesMatrix(rows)
            assert canonical_form(JSJ) == canonical_form(S)


@pytest.mark.xfail(strict=True, reason="_canonical fixes each sign once: an entry "
                   "that joins two already signed components flips neither")
def test_canonical_is_a_sign_class_invariant_on_a_sparse_matrix():
    # the dense samples above never join two signed components; here (1, 3)
    # does, and J S J with J = diag(1, -1, -1, 1) gets another canonical form
    upper = {(0, 3): 2, (1, 2): 1, (1, 3): 2, (2, 3): -3}
    J = (1, -1, -1, 1)
    S = StokesMatrix.from_upper(4, upper)
    JSJ = StokesMatrix.from_upper(4, {(i, j): v * J[i] * J[j]
                                      for (i, j), v in upper.items()})
    assert canonical_form(JSJ) == canonical_form(S)
    # the same overcount inflates the A4 Coxeter orbit: the minimum over all
    # 2^4 sign images gives 25 classes, not 29
    assert orbit(coxeter_stokes(COXETER_N4["A4"])).size == 25


def test_canonical_identity():
    I = StokesMatrix.from_upper(3, {})
    assert canonical_form(I) == I


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

FROZEN_ORBIT_SIZES = {
    "A3-graph": 4,
    "B3-graph": 9,
    "H3-graph": 10,
    "D4-nonstd": 4,
    "F4-nonstd": 9,
    "H4-nonstd-1": 90,
    "H4-nonstd-2": 10,
    "H4-nonstd-3": 10,
}


@pytest.mark.parametrize("name,size", sorted(FROZEN_ORBIT_SIZES.items()))
def test_finite_orbits_regression(name, size):
    res = orbit(stokes_catalog(name), max_size=10 ** 6)
    assert res.finite
    assert res.size == size


def test_markoff_orbit_exceeds_cap():
    res = orbit(stokes_catalog("CP2"), max_size=10 ** 4)
    assert not res.finite
    assert res.size > 10 ** 4


def test_orbit_metrics_levels_and_bits(capsys):
    res = orbit(stokes_catalog("H4-nonstd-1"), max_size=10 ** 6)
    assert res.levels[0] == 1 and sum(res.levels) == res.size == 90
    assert res.max_bits == {"p": 1, "q": 1, "d": 2}     # entries 0, ±1, (±1±√5)/2
    capped = orbit(stokes_catalog("CP2"), max_size=500)
    assert sum(capped.levels) == capped.size == 501
    assert capped.levels[-1] == capped.frontier
    assert capped.max_bits["q"] == 0 and capped.max_bits["d"] == 1
    assert capped.max_bits["p"] >= 16    # Markoff entries grow fast
    report = _orbit_report(capsys, "CP2", 500)
    assert {"cap", "exceeded", "visited", "frontier", "representatives"} <= set(report["results"])
    assert report["metrics"]["levels"] == capped.levels
    assert report["metrics"]["max_bits"] == capped.max_bits
    assert report["metrics"]["bfs_s"] > 0


def test_markoff_entries_grow_monotonically():
    # sigma_1^2 is a hyperbolic move on the Markoff tree: entries blow up
    S = stokes_catalog("CP2")
    prev = 3
    for _ in range(6):
        S = braid_apply(S, [1, 1])
        mx = max(abs(v.a) for v in S.triple())
        assert mx > prev
        prev = mx


def test_identity_orbit_is_singleton():
    res = orbit(StokesMatrix.from_upper(3, {}), max_size=100)
    assert res.finite and res.size == 1


def _reference_canonical(M):
    """The greedy sign rule on QuadScalar entries: scanning row-major, the
    first touched index of each component gets +1 and each first
    sign-adjustable nonzero entry is made lexicographically (a, b) >= 0."""
    n = M.n
    eps = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            v = M[i, j]
            if not v or (eps[i] and eps[j]):
                continue
            if not eps[i] and not eps[j]:
                eps[i] = 1
            sign = 1 if (v.a, v.b) >= (0, 0) else -1
            if eps[i]:
                eps[j] = eps[i] * sign
            else:
                eps[i] = eps[j] * sign
    return StokesMatrix([[M[i, j] * (eps[i] * eps[j] or 1) for j in range(n)]
                         for i in range(n)])


def _reference_orbit(S, cap):
    """BFS over the full products K S K and `_reference_canonical`, with the
    cap, level and step bookkeeping `orbit` documents."""
    n = S.n
    letters = [g * e for g in range(1, n) for e in (1, -1)]
    start = _reference_canonical(S)
    seen = {start.key()}
    order, frontier, levels, steps = [start], [start], [1], 0

    def result(finite, frontier_size):
        entries = [M[i, j] for M in order for i in range(n) for j in range(i + 1, n)]
        bits = {f: max((abs(getattr(v, f)) for v in entries), default=0).bit_length()
                for f in "pqd"}
        return {"finite": finite, "size": len(seen), "frontier": frontier_size,
                "levels": levels, "max_bits": bits, "steps": steps,
                "representatives": [M.key() for M in order[:16]]}

    while frontier:
        nxt = []
        for M in frontier:
            for letter in letters:
                steps += 1
                img = _reference_canonical(StokesMatrix(_kSk(M, letter)))
                if img.key() in seen:
                    continue
                seen.add(img.key())
                order.append(img)
                nxt.append(img)
                if len(seen) > cap:
                    levels.append(len(nxt))
                    return result(False, len(nxt))
        if nxt:
            levels.append(len(nxt))
        frontier = nxt
    return result(True, 0)


COXETER_N4 = {
    "A4": [(1, 2, 3), (2, 3, 3), (3, 4, 3)],
    "B4": [(1, 2, 4), (2, 3, 3), (3, 4, 3)],
    "D4": [(1, 2, 3), (2, 3, 3), (2, 4, 3)],
    "F4": [(1, 2, 3), (2, 3, 4), (3, 4, 3)],
    "H4": [(1, 2, 5), (2, 3, 3), (3, 4, 3)],
}


def _reference_cases():
    rt2 = QuadScalar(0, 1, 2)
    phi = QuadScalar(F(1, 2), F(1, 2), 5)
    cases = [(stokes_catalog(name), 10 ** 6) for name in sorted(FROZEN_ORBIT_SIZES)]
    cases += [(coxeter_stokes(graph), 10 ** 6) for graph in COXETER_N4.values()]
    cases.append((stokes_catalog("CP2"), 500))
    rng = random.Random(12)
    for unit in (QuadScalar(0), rt2, phi):
        for n, cap in ((3, 60), (4, 20)):
            S = StokesMatrix.from_upper(n, {
                (i, j): rng.randint(-2, 2) + rng.randint(-1, 1) * unit
                for i in range(n) for j in range(i + 1, n)})
            cases.append((S, cap))
    cases += [
        (StokesMatrix.from_triple(F(1, 2), 1, F(-1, 2)), 60),
        (StokesMatrix.from_triple(F(1, 3), F(2, 3), 1), 60),
        (StokesMatrix.from_triple(phi / 2, -phi / 2, 1), 60),
        # s12 = 0 and s13 = 0 (the seeded case above has s23 = 0): the
        # rank-3 skip of the arrival letter's inverse starts from each
        # spanning-tree shape of the three indices
        (StokesMatrix.from_triple(0, 2, 1 + rt2), 60),
        (StokesMatrix.from_triple(F(3, 2), 0, -2), 60),
        (StokesMatrix.from_upper(4, {(0, 1): F(1, 2) + rt2 / 2, (0, 2): 1,
                                     (1, 2): rt2 / 2, (1, 3): F(1, 2),
                                     (2, 3): -1}), 40),
    ]
    return cases


def test_triple_route_matches_matrix_route_orbit():
    # orbit() steps on flat int tuples; a BFS over the full products K S K
    # with a QuadScalar copy of the sign rule must give the same result,
    # field for field, over Z, Z[sqrt2], Z[phi] and with denominators
    for S, cap in _reference_cases():
        res = orbit(S, max_size=cap)
        ref = _reference_orbit(S, cap)
        got = {"finite": res.finite, "size": res.size, "frontier": res.frontier,
               "levels": res.levels, "max_bits": res.max_bits, "steps": res.steps,
               "representatives": [R.key() for R in res.representatives]}
        assert got == ref, S


def test_max_bits_is_the_largest_field_over_every_node():
    # brute force: the reference BFS keeps every node it visits as a
    # QuadScalar matrix and reads |p|, |q| and d off each upper entry
    rt2 = QuadScalar(0, 1, 2)
    for S, cap in ((stokes_catalog("CP2"), 1000),
                   (StokesMatrix.from_triple(1 + rt2, rt2, 2), 300)):
        bits = orbit(S, max_size=cap).max_bits
        assert bits == _reference_orbit(S, cap)["max_bits"]
        assert bits["p"] > 8 and (bits["q"] > 1) == (S.m == 2)


def test_orbit_steps_counted(capsys):
    res = orbit(stokes_catalog("H4-nonstd-1"), max_size=10 ** 6)
    assert res.finite and res.steps == 6 * 90    # 2(n-1) per node expanded
    assert res.images == res.steps               # n = 4 skips no letter
    capped = orbit(stokes_catalog("CP2"), max_size=500)
    # every node of the levels before the last is expanded, plus part of one
    expanded_full = sum(capped.levels[:-2])
    assert 4 * expanded_full < capped.steps <= 4 * (expanded_full + capped.levels[-2])
    assert capped.steps == _reference_orbit(stokes_catalog("CP2"), 500)["steps"]
    # n = 3: every node but the start skips its arrival letter's inverse
    assert capped.images < capped.steps
    report = _orbit_report(capsys, "CP2", 500)
    assert report["metrics"]["steps"] == capped.steps
    assert report["metrics"]["images"] == capped.images


def test_cp2_orbit_at_the_benchmark_cap_is_frozen():
    # the BFS of `stokes orbit CP2 --max-size 10000`: a doubling Markoff
    # tree, 4999 nodes expanded in full and one letter of the next; each
    # node but the start skips one letter, so images = steps - 4998
    res = orbit(stokes_catalog("CP2"), max_size=10 ** 4)
    assert not res.finite and res.size == 10 ** 4 + 1
    assert res.levels == [1, 3, 6, 12, 24, 48, 96, 192, 384, 768, 1536, 3072, 3859]
    assert res.frontier == 3859
    assert res.steps == 19997 and res.images == 19997 - 4998
    assert res.max_bits == {"p": 487, "q": 0, "d": 1}


@pytest.mark.parametrize("cap", [0, -1])
def test_orbit_cap_below_one_refused(cap):
    # the start node alone would already pass such a cap
    with pytest.raises(ValueError, match="at least 1"):
        orbit(StokesMatrix.from_upper(3, {}), max_size=cap)
    res = orbit(StokesMatrix.from_upper(3, {}), max_size=1)
    assert res.finite and res.size == 1


def _round_trip(S, letter):
    """The canonical form of sigma_letter^-1 applied to the canonical form
    of sigma_letter S."""
    return canonical_form(braid_generator(canonical_form(braid_generator(S, letter)),
                                          -letter))


@pytest.mark.parametrize("ring", ["Z", "Z[sqrt2]", "Z[phi]"])
def test_arrival_inverse_returns_to_the_parent_at_rank_3(ring):
    # the premise of the rank-3 skip in orbit(): the image of a node under
    # the inverse of the letter it was reached by is its parent's class,
    # for every letter, with zero entries and denominators
    rng = random.Random(23)
    unit = {"Z": QuadScalar(0), "Z[sqrt2]": QuadScalar(0, 1, 2),
            "Z[phi]": QuadScalar(F(1, 2), F(1, 2), 5)}[ring]
    for _ in range(80):
        S = StokesMatrix.from_triple(*(
            (rng.randint(-3, 3) + rng.randint(-2, 2) * unit) / rng.choice((1, 1, 2, 3))
            if rng.random() > 0.25 else 0 for _ in range(3)))
        for letter in (1, -1, 2, -2):
            assert _round_trip(S, letter) == canonical_form(S), (S, letter)


def test_arrival_inverse_leaves_the_parent_at_rank_4():
    # why orbit() skips nothing for n >= 4: on the matrix of the strict
    # xfail below, sigma_2 then its inverse lands on another canonical form
    S = StokesMatrix.from_upper(4, {(0, 3): 2, (1, 2): 1, (1, 3): 2, (2, 3): -3})
    assert _round_trip(S, 2) != canonical_form(S)


def test_stokes_entries_cannot_be_assigned():
    S = StokesMatrix.from_upper(3, {(0, 1): QuadScalar(0, 1, 2), (1, 2): 1})
    with pytest.raises(TypeError):
        S.mat[0, 2] = QuadScalar(0, 1, 5)
    with pytest.raises(TypeError):
        S.mat.rows[0][2] = QuadScalar(0, 1, 5)
    assert S.mat[0, 2] == 0


def test_stokes_matrix_attributes_cannot_be_assigned():
    S = StokesMatrix.from_upper(3, {(0, 1): QuadScalar(0, 1, 2), (1, 2): 1})
    T = stokes_catalog("CP2")
    before = (S.n, S.m, S.flat, S.key(), S.mat)
    for name, value in (("flat", T.flat), ("m", 1), ("n", 4)):
        with pytest.raises(AttributeError):
            setattr(S, name, value)
        with pytest.raises(AttributeError):
            delattr(S, name)
    assert (S.n, S.m, S.flat, S.key(), S.mat) == before and S != T
    # a matrix made by the braid kernel still builds its QuadScalar form once
    R = braid_generator(S, 1)
    assert R.mat is R.mat and R[0, 1] == -QuadScalar(0, 1, 2)


# ---------------------------------------------------------------------------
# Markoff predicates
# ---------------------------------------------------------------------------

def test_markoff_form_values():
    assert markoff_form(3, 3, 3) == QuadScalar(0)
    assert markoff_form(0, 0, 0) == QuadScalar(0)
    assert markoff_form(1, 1, 1) == QuadScalar(2)


def test_markoff_times3():
    assert is_markoff_times3(3, 3, 3)
    assert not is_markoff_times3(1, 1, 1)
    assert not is_markoff_times3(3, 3, 4)
    # a larger Markoff solution: (3, 3, 3) -> braid image stays times-3
    S = braid_apply(stokes_catalog("CP2"), [1, 2, 1, 2])
    assert is_markoff_times3(*S.triple())


# ---------------------------------------------------------------------------
# reducibility, spectra, tensor
# ---------------------------------------------------------------------------

def test_identity_reducible():
    red, part = is_reducible(StokesMatrix.from_upper(3, {}))
    assert red and part is not None


def test_cp2_irreducible():
    red, part = is_reducible(stokes_catalog("CP2"))
    assert not red and part is None


def test_block_diagonal_reducible_with_partition():
    S = StokesMatrix.from_upper(4, {(0, 1): 2, (2, 3): 5})
    red, part = is_reducible(S)
    assert red
    left, right = ({1, 2}, {3, 4}) if 1 in part[0] else ({3, 4}, {1, 2})
    assert set(part[0]) | set(part[1]) == {1, 2, 3, 4}
    assert set(part[0]) in ({1, 2}, {3, 4})


def test_reducible_at_n14():
    path = {(i, i + 1): 1 for i in range(13)}
    assert is_reducible(StokesMatrix.from_upper(14, path)) == (False, None)
    cut = {ij: v for ij, v in path.items() if ij != (5, 6)}
    assert is_reducible(StokesMatrix.from_upper(14, cut)) == (
        True, (list(range(1, 7)), list(range(7, 15))))
    # two interleaved blocks: s_{i,i+2} joins indices of one parity
    skip = {(i, i + 2): 2 for i in range(12)}
    assert is_reducible(StokesMatrix.from_upper(14, skip)) == (
        True, (list(range(1, 15, 2)), list(range(2, 15, 2))))


def _reducible_by_bipartitions(S):
    """Reference: some split of the indices into two nonempty parts with
    every entry between them zero."""
    n = S.n
    for mask in range(1, 2 ** (n - 1)):
        part = [i for i in range(1, n) if (mask >> (i - 1)) & 1]
        rest = [i for i in range(n) if i not in part]
        if not any(S[min(i, j), max(i, j)] for i in part for j in rest):
            return True
    return False


@pytest.mark.parametrize("n", range(2, 8))
def test_reducible_matches_bipartition_scan(n):
    rng = random.Random(400 + n)
    for _ in range(40):
        density = rng.choice((0.15, 0.3, 0.5))
        upper = {(i, j): QuadScalar(rng.randint(-2, 2), rng.choice((-1, 1)), 5)
                 for i in range(n) for j in range(i + 1, n) if rng.random() < density}
        S = StokesMatrix.from_upper(n, upper)
        red, part = is_reducible(S)
        assert red == _reducible_by_bipartitions(S)
        if not red:
            assert part is None
            continue
        left, right = part
        assert left and right and 1 in left
        assert sorted(left + right) == list(range(1, n + 1))
        assert not any(S[min(a, b) - 1, max(a, b) - 1] for a in left for b in right)


def test_unipotency_cp2_exactly_ones():
    cp = unipotency_charpoly(stokes_catalog("CP2"))
    # (lambda - 1)^3 = lambda^3 - 3 lambda^2 + 3 lambda - 1
    assert [c.a for c in cp] == [F(-1), F(3), F(-3), F(1)]
    lam = unipotency_spectrum(stokes_catalog("CP2"))
    assert max(abs(z - 1) for z in lam) < 1e-9


def test_unipotency_cp1():
    cp = unipotency_charpoly(stokes_catalog("CP1"))
    # S^T S^{-1} for [[1,2],[0,1]] has charpoly (lambda + 1)^2
    assert [c.a for c in cp] == [F(1), F(2), F(1)]
    lam = unipotency_spectrum(stokes_catalog("CP1"))
    assert max(abs(z + 1) for z in lam) < 1e-9


def _reference_unipotency_charpoly(S):
    """charpoly of S^T S^{-1} in QuadScalar arithmetic: S^{-1} by
    Gauss-Jordan on [S | I], then Faddeev-LeVerrier with ExactMatrix ops."""
    n = S.n
    aug = [list(r) + [QuadScalar(int(i == j)) for j in range(n)]
           for i, r in enumerate(S.mat.rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    A = S.mat.transpose() @ ExactMatrix([row[n:] for row in aug])
    I = ExactMatrix.identity(n)
    M = ExactMatrix.zeros(n)
    c = [QuadScalar(0)] * n + [QuadScalar(1)]
    for k in range(1, n + 1):
        M = A @ (M + I.scale(c[n - k + 1]))
        c[n - k] = -(M.trace() / k)
    return c


_POOLS = {
    "Z": [QuadScalar(k) for k in range(-3, 4)],
    "Z[sqrt2]": [QuadScalar(a, b, 2) for a in (-1, 0, 2) for b in (-1, 0, 1)],
    "Z[phi]": [QuadScalar(0), QuadScalar(1), QuadScalar(-2),
               QuadScalar(F(1, 2), F(1, 2), 5), QuadScalar(F(-1, 2), F(1, 2), 5),
               QuadScalar(F(1, 2), F(-3, 2), 5)],
    "Q": [QuadScalar(F(a, d)) for a in (-2, -1, 1, 3) for d in (1, 2, 3)],
}


def test_unipotency_charpoly_matches_reference_on_catalog():
    for name in STOKES_CATALOG_NAMES:
        S = stokes_catalog(name)
        assert unipotency_charpoly(S) == _reference_unipotency_charpoly(S)


@pytest.mark.parametrize("ring", list(_POOLS))
def test_unipotency_charpoly_matches_reference_seeded(ring):
    rng = random.Random(f"unipotency-{ring}")
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            S = StokesMatrix.from_upper(n, {(i, j): rng.choice(_POOLS[ring])
                                            for i in range(n) for j in range(i + 1, n)})
            assert unipotency_charpoly(S) == _reference_unipotency_charpoly(S)


def _check_flat_storage(S):
    """S is its flat tuple: rebuilding it from its matrix gives S back, and
    key() reads (p, q, d, m) of the QuadScalar entries."""
    assert StokesMatrix(S.mat) == S
    assert S.key() == tuple(x for c in S.upper() for x in (c.p, c.q, c.d, c.m))


def test_flat_storage_matches_matrix_on_catalog():
    for name in STOKES_CATALOG_NAMES:
        _check_flat_storage(stokes_catalog(name))


@pytest.mark.parametrize("ring", list(_POOLS))
def test_flat_storage_matches_matrix_seeded(ring):
    rng = random.Random(f"flat-{ring}")
    for n in (2, 3, 4):
        for _ in range(12):
            S = StokesMatrix.from_upper(n, {(i, j): rng.choice(_POOLS[ring])
                                            for i in range(n) for j in range(i + 1, n)})
            _check_flat_storage(S)
            _check_flat_storage(canonical_form(braid_generator(S, 1)))


def test_mixed_fields_refused_by_every_constructor():
    rt2, rt5 = QuadScalar(0, 1, 2), QuadScalar(0, 1, 5)
    rows = [[1, rt2, rt5], [0, 1, 1], [0, 0, 1]]
    with pytest.raises(DiscriminantMismatch):
        StokesMatrix(rows)
    with pytest.raises(DiscriminantMismatch):
        StokesMatrix(ExactMatrix(rows))
    with pytest.raises(DiscriminantMismatch):
        StokesMatrix.from_upper(3, {(0, 1): rt2, (0, 2): rt5, (1, 2): 1})
    with pytest.raises(DiscriminantMismatch):
        stokes_from_dict({"n": 3, "m": 2, "rows": [["1", "1√2", "1√5"],
                                                   ["0", "1", "1"], ["0", "0", "1"]]})


def test_dict_roundtrip_writes_the_one_field():
    phi = QuadScalar(F(1, 2), F(1, 2), 5)
    S = StokesMatrix.from_upper(3, {(0, 1): phi, (0, 2): 1, (1, 2): -phi})
    data = stokes_to_dict(S)
    assert data["m"] == 5
    assert stokes_from_dict(data) == S
    R = StokesMatrix.from_upper(3, {(0, 1): F(1, 2), (0, 2): 3, (1, 2): -1})
    data = stokes_to_dict(R)
    assert data["m"] == 1
    assert stokes_from_dict(data) == R


def test_tensor_cp1_squared_first_row():
    S = stokes_catalog("CP1")
    T = tensor(S, S)
    assert T.n == 4
    row = [T.mat[0, j] for j in range(1, 4)]
    assert sorted(str(v) for v in row) == ["2", "2", "4"]


def test_tensor_identity_factor():
    S = stokes_catalog("CP2")
    I1 = StokesMatrix.from_upper(1, {})
    assert tensor(I1, S).mat == S.mat
    assert tensor(S, I1).mat == S.mat


def test_tensor_spectrum_product_rule():
    S1 = stokes_catalog("CP1")
    S2 = coxeter_stokes([(1, 2, 3)])
    lamT = unipotency_spectrum(tensor(S1, S2))
    lam1 = unipotency_spectrum(S1)
    lam2 = unipotency_spectrum(S2)
    prods = sorted((a * b for a in lam1 for b in lam2),
                   key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    # repeated roots of a defective matrix are conditioned like sqrt(eps)
    assert max(abs(a - b) for a, b in zip(lamT, prods)) < 5e-8


# ---------------------------------------------------------------------------
# Coxeter data, reflections, CP2 monodromy
# ---------------------------------------------------------------------------

def test_coxeter_chain_values():
    A3 = coxeter_stokes([(1, 2, 3), (2, 3, 3)])
    assert [str(v) for v in A3.triple()] == ["-1", "0", "-1"]
    H3 = coxeter_stokes([(1, 2, 5), (2, 3, 3)])
    x, y, z = H3.triple()
    assert x == QuadScalar(F(-1, 2), F(-1, 2), 5)
    assert y == QuadScalar(0) and z == QuadScalar(-1)
    B2 = coxeter_stokes([(1, 2, 4)])
    assert B2.mat[0, 1] == QuadScalar(0, -1, 2)


def test_coxeter_rejects_non_quadratic_label():
    with pytest.raises(ValueError):
        coxeter_stokes([(1, 2, 7)])


@pytest.mark.parametrize("graph, error", [
    ([(1, 2, 3), (2, 2, 3)], "no loops in a Coxeter graph"),
    ([(1, 2, 2)], "edge labels must be >= 3"),
], ids=["loop", "label 2"])
def test_coxeter_rejects_a_loop_and_a_label_below_3(graph, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        coxeter_stokes(graph)


def test_reflections_involutive_and_form_preserving():
    for name in ("CP2-monodromy", "H4-nonstd-1", "F4-nonstd"):
        S = stokes_catalog(name)
        A = S.mat + S.mat.transpose()
        G, refs = gram_and_reflections(S)
        assert G.scale(2) == A
        I = ExactMatrix.identity(S.n)
        for R in refs:
            assert R @ R == I
            assert R.transpose() @ A @ R == A


def test_cp2_printed_reflection_matrix():
    _, refs = gram_and_reflections(stokes_catalog("CP2-monodromy"))
    assert refs[0] == ExactMatrix([[-1, -3, 3], [0, 1, 0], [0, 0, 1]])
    assert refs[1] == ExactMatrix([[1, 0, 0], [-3, -1, 3], [0, 0, 1]])
    assert refs[2] == ExactMatrix([[1, 0, 0], [0, 1, 0], [3, 3, -1]])


def test_cp2_modular_identities():
    rep = cp2_modular_check()
    assert rep.t0_cubed_is_minus_one
    assert rep.conjugation_identities
    assert rep.form_preserved
    assert rep.b_cubed_is_one
    assert rep.passed


def test_degenerate_gram_rejected():
    # A1 x A1 with s12 = +-2 makes S + S^T singular
    S = StokesMatrix.from_upper(2, {(0, 1): 2})
    with pytest.raises(ValueError):
        gram_and_reflections(S)


# ---------------------------------------------------------------------------
# catalog and JSON
# ---------------------------------------------------------------------------

def test_catalog_entries():
    assert [str(v) for v in stokes_catalog("CP2").triple()] == ["3", "3", "3"]
    S = stokes_catalog("CP1")
    assert S.mat == ExactMatrix([[1, 2], [0, 1]])
    H4 = stokes_catalog("H4-nonstd-1")
    assert H4.mat[0, 3] == QuadScalar(F(1, 2), F(1, 2), 5)
    assert H4.mat[2, 3] == QuadScalar(F(-1, 2), F(1, 2), 5)


def test_markoff_triple_of_cp2():
    assert markoff_form(*stokes_catalog("CP2").triple()) == QuadScalar(0)


def test_json_roundtrip():
    for name in ("CP2", "H4-nonstd-3", "F4-nonstd"):
        S = stokes_catalog(name)
        S2 = stokes_from_dict(json.loads(json.dumps(stokes_to_dict(S))))
        assert S2 == S


def test_diagonal_and_triangularity_enforced():
    with pytest.raises(ValueError):
        StokesMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        StokesMatrix([[2, 0], [0, 1]])
