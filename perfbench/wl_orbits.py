"""Workload ``orbits``: braid orbits of Stokes matrices and seeded braid words.

It runs only ``stokes`` and the exact scalar / ``ExactMatrix`` ring
arithmetic under it; it never touches ``ExpPolynomial``, ``frobenius`` or
numpy, so optimisations of those should leave it unchanged.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Dict, List

from common import Task, Workload, expect, rate, run_cli
from tracing import Tracer

# Regression sizes of the finite catalog orbits (the frozen sizes of the
# test suite) and of the rank-4 Coxeter-graph orbits.
CATALOG_ORBITS = {"A3-graph": 4, "B3-graph": 9, "H3-graph": 10, "D4-nonstd": 4,
                  "F4-nonstd": 9, "H4-nonstd-1": 90, "H4-nonstd-2": 10,
                  "H4-nonstd-3": 10}
COXETER_N4 = {
    "A4": ([(1, 2, 3), (2, 3, 3), (3, 4, 3)], 29),
    "B4": ([(1, 2, 4), (2, 3, 3), (3, 4, 3)], 73),
    "D4": ([(1, 2, 3), (2, 3, 3), (2, 4, 3)], 9),
    "F4": ([(1, 2, 3), (2, 3, 4), (3, 4, 3)], 40),
    "H4": ([(1, 2, 5), (2, 3, 3), (3, 4, 3)], 100),
}
CP2_CAP = 10_000
# seeded orbits: (rank, field, count, cap)
SEEDED_ORBITS = [(3, "Z", 20, 120), (3, "Z[sqrt2]", 6, 120), (3, "Z[phi]", 6, 120),
                 (4, "Z", 8, 20), (4, "Z[sqrt2]", 3, 20), (4, "Z[phi]", 3, 20)]
BRAID_WORDS = 120
WORD_LENGTH = (4, 10)


def _entry_pools():
    from frobenii.exact import QuadScalar
    rt2 = QuadScalar(0, 1, 2)
    phi = QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)
    return {
        "Z": [QuadScalar(k) for k in (-2, -1, 0, 1, 2)],
        "Z[sqrt2]": [QuadScalar(a) + rt2 * b for a in (-1, 0, 1) for b in (-1, 0, 1)],
        "Z[phi]": [QuadScalar(0), QuadScalar(1), QuadScalar(-1), phi, -phi,
                   phi - 1, 1 - phi],
    }


def _random_stokes(rng: random.Random, n: int, pool):
    from frobenii import stokes
    return stokes.StokesMatrix.from_upper(
        n, {(i, j): rng.choice(pool) for i in range(n) for j in range(i + 1, n)})


def _gram_det(tr: Tracer, S):
    """det(S + S^T): invariant under the braid action and under S ~ J S J."""
    with tr.span("exact.det"):
        return (S.mat + S.mat.transpose()).det()


def _check_orbit(tr: Tracer, S, res, cap: int) -> None:
    """Representatives are canonical, start with the canonical form of S and
    share its braid invariants; a finite orbit whose representatives were
    all kept is closed under the generators and their inverses."""
    from frobenii import stokes
    expect(res.finite == (res.size <= cap), f"finite={res.finite} with size {res.size}")
    reps = res.representatives
    with tr.span("stokes.canonical_form"):
        start = stokes.canonical_form(S)
        expect(all(stokes.canonical_form(R) == R for R in reps),
               "representative not in canonical form")
    expect(reps[0] == start, "first representative is not canonical(S)")
    det0 = _gram_det(tr, S)
    expect(all(_gram_det(tr, R) == det0 for R in reps), "det(S + S^T) changed")
    with tr.span("stokes.unipotency_charpoly"):
        expect(stokes.unipotency_charpoly(reps[-1]) == stokes.unipotency_charpoly(S),
               "charpoly of S^T S^-1 changed")
    if res.finite and res.size == len(reps):
        keys = {R.key() for R in reps}
        letters = [g * e for g in range(1, S.n) for e in (1, -1)]
        with tr.span("stokes.braid_generator"):
            images = [stokes.canonical_form(stokes.braid_generator(R, g))
                      for R in reps for g in letters]
        expect(all(img.key() in keys for img in images), "orbit not closed")


def _orbit_task(wl: Workload, label: str, S, cap: int, size=None) -> Task:
    from frobenii import stokes

    def fn(tr: Tracer):
        with tr.span("stokes.orbit"):
            res = stokes.orbit(S, max_size=cap)
        tr.count("stokes.orbits")
        tr.count("stokes.orbit_nodes", res.size)
        tr.count("stokes.orbits_resolved", 1 if res.finite else 0)
        if size is not None:
            expect(res.finite and res.size == size,
                   f"orbit size {res.size} (finite={res.finite}), expected {size}")
        _check_orbit(tr, S, res, cap)
        wl.produced.setdefault("reps", []).extend(res.representatives)
        return None if res.finite else "capped"
    return Task(f"orbit {label}", fn)


def _cp2_cli_task() -> Task:
    from frobenii import stokes

    def fn(tr: Tracer):
        report = run_cli(tr, ["stokes", "orbit", "CP2", "--max-size", str(CP2_CAP)])
        res = report["results"]
        tr.count("stokes.orbits")
        expect(res.get("exceeded") is True and res["visited"] > CP2_CAP,
               "CP2 orbit resolved as finite below the cap")
        with tr.span("stokes.markoff_form"):
            reps = [stokes.stokes_from_dict(r) for r in res["representatives"]]
            expect(all(not stokes.markoff_form(*R.triple()) for R in reps),
                   "Markoff form of a CP2 representative is nonzero")
        return "capped"
    return Task(f"cli stokes orbit CP2 --max-size {CP2_CAP}", fn)


def _word_task(label: str, S, word: List[int], rel: int) -> Task:
    """Word then its inverse gives S back up to signs; the braid relation at
    ``rel`` (and far commutation for n >= 4) holds at the image; the image
    keeps det(S + S^T) and, for n = 3, the Markoff form."""
    from frobenii import stokes
    inverse = [-g for g in reversed(word)]

    def fn(tr: Tracer):
        with tr.span("stokes.braid"):
            img = stokes.braid_apply(S, word)
            back = stokes.braid_apply(img, inverse)
            lhs = stokes.braid_apply(img, [rel, rel + 1, rel])
            rhs = stokes.braid_apply(img, [rel + 1, rel, rel + 1])
            far = []
            if S.n >= 4:
                far = [stokes.braid_apply(img, [1, 3]), stokes.braid_apply(img, [3, 1])]
        tr.count("stokes.braid_letters", 2 * len(word) + 6 + 2 * len(far))
        with tr.span("stokes.canonical_form"):
            expect(stokes.canonical_form(back) == stokes.canonical_form(S),
                   "word followed by its inverse is not the identity up to signs")
            expect(stokes.canonical_form(lhs) == stokes.canonical_form(rhs),
                   f"braid relation at {rel} fails")
            if far:
                expect(stokes.canonical_form(far[0]) == stokes.canonical_form(far[1]),
                       "far commutation fails")
        expect(_gram_det(tr, img) == _gram_det(tr, S), "det(S + S^T) changed")
        if S.n == 3:
            with tr.span("stokes.markoff_form"):
                expect(stokes.markoff_form(*img.triple()) == stokes.markoff_form(*S.triple()),
                       "Markoff form changed")
        return None
    return Task(f"word {label}", fn)


def build(seed: int) -> Workload:
    from frobenii import stokes
    rng = random.Random(seed)
    pools = _entry_pools()
    wl = Workload("orbits", [], {
        "catalog_orbits": len(CATALOG_ORBITS), "coxeter_n4_orbits": len(COXETER_N4),
        "cp2_cap": CP2_CAP,
        "seeded_orbits": [{"n": n, "field": f, "count": c, "cap": cap}
                          for n, f, c, cap in SEEDED_ORBITS],
        "braid_words": BRAID_WORDS, "word_length": list(WORD_LENGTH)},
        probe=lambda tr: _probe(wl, tr))
    for name, size in CATALOG_ORBITS.items():
        wl.tasks.append(_orbit_task(wl, name, stokes.stokes_catalog(name), 10 ** 6, size))
    for name, (graph, size) in COXETER_N4.items():
        wl.tasks.append(_orbit_task(wl, f"coxeter {name}", stokes.coxeter_stokes(graph),
                                    10 ** 6, size))
    wl.tasks.append(_cp2_cli_task())
    for n, field, count, cap in SEEDED_ORBITS:
        for k in range(count):
            S = _random_stokes(rng, n, pools[field])
            wl.tasks.append(_orbit_task(wl, f"n{n} {field} #{k} {S.key()}", S, cap))
    fields = list(pools)
    for k in range(BRAID_WORDS):
        n = 3 + k % 2
        S = _random_stokes(rng, n, pools[fields[k % 3]])
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(*WORD_LENGTH))]
        wl.tasks.append(_word_task(f"n{n} #{k} {word}", S, word, rng.randint(1, n - 2)))
    return wl


def _probe(wl: Workload, tr: Tracer) -> Dict[str, float]:
    """QuadScalar products and ExactMatrix products on the orbit
    representatives the tasks produced."""
    reps = wl.produced.get("reps", [])
    pairs = []
    for R in reps:
        upper = [R.mat[i, j] for i in range(R.n) for j in range(i + 1, R.n)]
        pairs.extend((a, b) for a in upper for b in upper)
    with tr.span("exact.quad_mul"):
        t0 = time.perf_counter()
        for a, b in pairs:
            a * b
        quad_s = time.perf_counter() - t0
    with tr.span("exact.matmul"):
        t0 = time.perf_counter()
        for R in reps:
            R.mat @ R.mat
        mat_s = time.perf_counter() - t0
    return {"exact.quad_mul_per_s": rate(len(pairs), quad_s),
            "exact.matmul_per_s": rate(len(reps), mat_s)}
