"""frobenii benchmark.

    python3 perfbench/run.py --workload {orbits,chart,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The seed makes the workload's inputs; the
task list is then run in passes, one after another in this one process,
until ``--seconds`` have gone by.  Every task's output is checked against
its oracle.  With ``--trace 0`` the last line of stdout is a JSON object
holding the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
untraced and traced passes alternate and it holds the per-layer metrics.
The lines before it give failures by task, sample counts and the run's
context, and ``.perfbench/`` receives the same result and, when traced,
every span.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import List, NamedTuple, Tuple

from common import OracleMismatch, rate
from tracing import LAYERS, Tracer, pass_summary

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("orbits", "chart", "exact")
SETUP_REPEATS = 7
OUT_DIR = ".perfbench"
# one thread: numpy must not start a BLAS thread pool
SINGLE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
# The reference loop and its CPU time at the nominal speed, the median over
# a 150-s run on the VM described in README.md.  Every time metric is a CPU
# time scaled by REFERENCE_S / (the loop's CPU time measured next to it).
REFERENCE_LOOPS = 3000
REFERENCE_S = 4.0e-4
REFERENCE_WINDOW = 2  # a task is scaled by the median of the loops within 2 tasks of it
SETUP_REFERENCES = 10
_REFERENCE_TABLE = {k: 7 * k + 1 for k in range(64)}


def _reference() -> float:
    """CPU time of a fixed pure-Python loop, i.e. how fast the CPU runs right
    now.  It does integer arithmetic and dict lookups and allocates no
    containers, so the garbage collector and the program's heap leave it
    alone."""
    table, acc = _REFERENCE_TABLE, 0
    t0 = time.process_time()
    for i in range(REFERENCE_LOOPS):
        acc = (acc * 31 + table[i & 63]) & 0xFFFFFFFF
    return time.process_time() - t0


class Pass(NamedTuple):
    traced: bool
    wall: float  # by the clock
    latencies: List[float]  # each task's CPU time at the reference speed
    outcomes: List[Tuple[str, str]]
    cpu: List[float]  # each task's CPU time as measured
    references: List[float]  # the loop before each task and after the last


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, build the inputs, print this process's CPU time and exit")
    return ap.parse_args(argv)


def _build(name: str, seed: int):
    return importlib.import_module(f"wl_{name}").build(seed)


def _measure_setup(args) -> Tuple[float, float]:
    """CPU time of a fresh interpreter that imports frobenii, builds the
    potentials and Stokes data and generates the seeded inputs, scaled to the
    reference speed and as measured.  The child measures itself, so that the
    reference loop runs on the same vCPU as the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **SINGLE_THREAD),
                          check=True, capture_output=True, text=True)
    child = json.loads(proc.stdout.splitlines()[-1])
    return child["cpu"] * REFERENCE_S / child["reference"], child["cpu"]


def _run_pass(wl, tracer, traced: bool, index: int) -> Pass:
    """One pass over the task list, the reference loop before each task."""
    tracer.enabled = traced
    tracer.pass_index = index
    wl.produced.clear()
    cpu, outcomes, refs = [], [], []
    start = time.perf_counter()
    for task in wl.tasks:
        refs.append(_reference())
        t0 = time.process_time()
        detail = ""
        try:
            with tracer.span("bench.task"):
                kind = task.fn(tracer) or "ok"
        except OracleMismatch as exc:
            kind, detail = "wrong", str(exc)
        except Exception as exc:  # an untyped error is a failed task, not a crash
            kind, detail = "error", f"{type(exc).__name__}: {exc}"
        cpu.append(time.process_time() - t0)
        outcomes.append((kind, detail))
    refs.append(_reference())
    wall = time.perf_counter() - start
    tracer.enabled = False
    w = REFERENCE_WINDOW
    latencies = [c * REFERENCE_S / statistics.median(refs[max(0, k - w):k + w + 2])
                 for k, c in enumerate(cpu)]
    return Pass(traced, wall, latencies, outcomes, cpu, refs)


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _task_latencies(runs) -> list:
    """Each task's median latency across the passes.  A burst of host
    slowness that hits one pass then moves only the tasks it hit in most
    passes; a median of whole pass times, or a quantile of all latencies
    pooled, would move with every pass it touched."""
    return [statistics.median(lat) for lat in zip(*(r.latencies for r in runs))]


def _layer_metrics(s, c) -> dict:
    """Per-layer metrics of one traced pass from its span totals ``s`` and
    counters ``c``."""
    def frac(num, den):
        return c[num] / c[den] if c[den] else 0.0
    out = {
        "stokes.orbit_s": s["stokes.orbit"],
        "stokes.orbits": c["stokes.orbits"],
        "stokes.orbit_nodes": c["stokes.orbit_nodes"],
        "stokes.nodes_per_s": rate(c["stokes.orbit_nodes"], s["stokes.orbit"]),
        "stokes.orbit_resolved_frac": frac("stokes.orbits_resolved", "stokes.orbits"),
        "stokes.braid_letters": c["stokes.braid_letters"],
        "stokes.letters_per_s": rate(c["stokes.braid_letters"], s["stokes.braid"]),
        "frobenius.check_s": sum(v for k, v in s.items() if k.startswith("frobenius.check_")),
        "frobenius.F_terms": c["frobenius.F_terms"],
        "frobenius.negative_controls": c["frobenius.negative_controls"],
        "frobenius.negative_controls_caught": frac("frobenius.negative_controls_caught",
                                                   "frobenius.negative_controls"),
        "semisimple.points": c["semisimple.points"],
        "semisimple.frames": c["semisimple.frames"],
        "semisimple.frame_s": s["semisimple.frame"] + s["semisimple.v_matrices"],
        "semisimple.caustic_frac": frac("semisimple.caustics", "semisimple.points"),
        "semisimple.iso_s": s["semisimple.iso"],
        "ode.rk_steps": c["ode.rk_steps"],
        "ode.rk_rejected": c["ode.rk_rejected"],
        "ode.rk_steps_per_s": rate(c["ode.rk_steps"], s["semisimple.iso"]),
        "gwcp2.genus0_s": s["gwcp2.genus0"],
        "gwcp2.pde_s": s["gwcp2.pde"],
        "gwcp2.elliptic_s": s["gwcp2.elliptic"],
        "painleve.residual_s": s["painleve.residual"],
        "painleve.residual_evals": c["painleve.residual_evals"],
        "painleve.integrate_s": s["cli.pvi_integrate"],
        "singularity.an_s": s["singularity.an"],
        "cli.s": s["cli.busy_s"],
        "cli.commands": c["cli.commands"],
        "cli.report_bytes": c["cli.report_bytes"],
        "trace.spans": s["trace.spans"],
    }
    for layer in LAYERS:
        out[layer + ".busy_s"] = s[layer + ".busy_s"]
        out[layer + ".self_s"] = s[layer + ".self_s"]
    return out


def _context(args, wl, passes: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": passes, "tasks_per_pass": len(wl.tasks),
            "setup_repeats": SETUP_REPEATS if args.trace == 0 else 0,
            "sizes": wl.sizes}


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    start_refs = [_reference() for _ in range(SETUP_REFERENCES)]
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "frobenii" / "__init__.py").is_file():
        return _fail(f"no frobenii sources under {src}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(src))
    import frobenii
    if Path(frobenii.__file__).resolve().parent != (src / "frobenii").resolve():
        return _fail(f"imported frobenii from {frobenii.__file__}, not from {src}")
    wl = _build(args.workload, args.seed)
    if args.setup_only:
        cpu = time.process_time() - sum(start_refs)
        refs = start_refs + [_reference() for _ in range(SETUP_REFERENCES)]
        print(json.dumps({"cpu": cpu, "reference": statistics.median(refs)}))
        return 0

    tracer = Tracer()
    # set-up runs go between passes, so that they sample the whole run
    setup_due = SETUP_REPEATS if args.trace == 0 else 0
    setup_times = []  # (at the reference speed, as measured)
    runs = []
    t_end = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(_run_pass(wl, tracer, traced, len(runs)))
        if len(setup_times) < setup_due:
            setup_times.append(_measure_setup(args))
        # start another pass only if it would end closer to the deadline
        half_pass = statistics.median(r.wall for r in runs) / 2
        if time.perf_counter() + half_pass >= t_end and (not args.trace or len(runs) >= 2):
            break
    setup_times += [_measure_setup(args) for _ in range(setup_due - len(setup_times))]

    # outcomes per task must repeat exactly from pass to pass.  A task is
    # counted once, with that outcome, however many passes the run fits, so
    # that the seed alone fixes `attempted` and `failed`.
    first = [kind for kind, _ in runs[0].outcomes]
    stable = all([kind for kind, _ in r.outcomes] == first for r in runs)
    attempted = len(first)
    failed = sum(kind in ("wrong", "error") for kind in first)
    wrong = sum(kind == "wrong" for r in runs for kind, _ in r.outcomes)
    correct = stable and wrong == 0
    failures = [{"task": t.name, "kind": k, "detail": d}
                for t, (k, d) in zip(wl.tasks, runs[0].outcomes)
                if k in ("wrong", "error")]
    for f in failures:
        print(f"FAILED [{f['kind']}] {f['task']}: {f['detail']}")
    kinds = {k: first.count(k) for k in sorted(set(first))}
    print(f"outcomes per pass: {json.dumps(kinds)}; stable across passes: {stable}")

    if args.trace == 0:
        lat = _task_latencies(runs)
        metrics = {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "cpu_s": sum(lat),
            "task_p50_ms": 1000 * statistics.median(lat),
            "task_p90_ms": 1000 * _p90(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        # tasks, each the median of one latency per pass
        samples = {"setup_s": len(setup_times), "cpu_s": len(runs),
                   "task_p50_ms": f"{len(lat)} tasks x {len(runs)} passes",
                   "task_p90_ms": f"{len(lat)} tasks x {len(runs)} passes",
                   "peak_rss_mb": 1}
        print(f"failed_frac: {failed / attempted:.6f} (failed {failed} of {attempted} "
              f"attempted tasks)")
        # not metrics: the unscaled times, and what a pass took by the clock
        cpu = sum(statistics.median(c) for c in zip(*(r.cpu for r in runs)))
        speed = statistics.median(REFERENCE_S / x for r in runs for x in r.references)
        setup_cpu = statistics.median(c for _, c in setup_times)
        print(f"unscaled CPU time: setup {setup_cpu:.4f} s, task list {cpu:.3f} s; "
              f"CPU speed {speed:.3f} x the reference (median of the loops)")
        wall = statistics.median(r.wall for r in runs)
        off_cpu = 1 - statistics.median(sum(r.cpu) / r.wall for r in runs)
        print(f"wall_s (by the clock, not bounded): median pass {wall:.3f} s over "
              f"{len(runs)} passes, {off_cpu:.1%} of it off the CPU")
        wanted = spec["end_to_end"]
    else:
        traced_idx = [i for i, r in enumerate(runs) if r.traced]
        per_pass = [_layer_metrics(defaultdict(float, pass_summary(tracer, i)),
                                   defaultdict(float, tracer.counts[i]))
                    for i in traced_idx]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        tracer.enabled, tracer.pass_index = True, -1
        probes = wl.probe(tracer)
        tracer.enabled = False
        wanted = spec["per_layer"]
        metrics.update(probes)
        for m in wanted:  # the probes this workload does not run read 0
            if m["name"].startswith(("exact.", "frobenius.structure")):
                metrics.setdefault(m["name"], 0.0)
        untraced = sum(_task_latencies([r for r in runs if not r.traced]))
        metrics["trace.overhead_s"] = sum(_task_latencies([runs[i] for i in traced_idx])) \
            - untraced
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced
        samples = {k: 1 if k in probes else len(per_pass) for k in metrics}
        samples["trace.overhead_s"] = samples["trace.overhead_frac"] = len(runs)

    names = [m["name"] for m in wanted]
    missing = set(names) ^ set(metrics)
    if missing:
        return _fail(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name in names:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]} "
              f"(samples: {samples[name]})")
    context = _context(args, wl, len(runs))
    print("context " + json.dumps(context))

    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(out / f"spans-{stem}.json")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names}}
    with open(out / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, context=context, samples=samples, outcomes=kinds,
                       failures=failures, setup_times=setup_times,
                       pass_walls=[r.wall for r in runs],
                       pass_cpu=[sum(r.cpu) for r in runs],
                       pass_scaled=[sum(r.latencies) for r in runs],
                       pass_reference=[statistics.median(r.references) for r in runs]),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
