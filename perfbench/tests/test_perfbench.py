"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

The smoke runs use ``--seconds 0`` (one pass of each task list) and take
about half a minute together.
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import wl_chart  # noqa: E402
import wl_exact  # noqa: E402
import wl_orbits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload,seed", [("orbits", 5), ("exact", 5), ("exact", 6)])
def test_smoke_prints_every_metric_and_nothing_fails(workload, seed):
    proc = _run(workload, seed, 0)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac: 0.000000" in proc.stdout
    assert "wall_s (by the clock, not bounded)" in proc.stdout
    for name in expected:
        assert f"metric {name} = " in proc.stdout


def test_chart_failures_are_counted_not_hidden():
    proc = _run("chart", 5, 0)
    result = _result(proc)
    assert result["correct"]
    listed = [ln for ln in proc.stdout.splitlines() if ln.startswith("FAILED [error] frame")]
    assert len(listed) == result["failed"]
    # each task counts once, however many passes ran
    assert result["attempted"] == len(wl_chart.build(5).tasks)


def test_traced_run_reports_every_layer_metric():
    result = _result(_run("exact", 5, 1))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["frobenius.negative_controls_caught"]["value"] == 1.0
    assert metrics["frobenius.negative_controls"]["value"] == 16
    assert metrics["exact.series_div_neumann_s"]["value"] > 0
    assert metrics["gwcp2.busy_s"]["value"] >= metrics["gwcp2.genus0_s"]["value"]


def test_seed_changes_inputs_but_not_sizes():
    for module in (wl_orbits, wl_chart, wl_exact):
        a, b, c = module.build(1), module.build(2), module.build(1)
        names = [t.name for t in a.tasks]
        assert names == [t.name for t in c.tasks]
        assert names != [t.name for t in b.tasks]
        assert len(a.tasks) == len(b.tasks) and a.sizes == b.sizes


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("orbits", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_busy_and_self_time_from_spans():
    tr = tracing.Tracer()
    tr.enabled, tr.pass_index = True, 0
    tr.spans = [[0, "bench.task", 0.0, 10.0, None, None, 0],
                [1, "stokes.orbit", 1.0, 5.0, 0, 0, 0],
                [2, "exact.det", 2.0, 3.0, 1, 0, 0],
                [3, "stokes.orbit", 6.0, 7.0, 0, 0, 0]]
    s = defaultdict(float, tracing.pass_summary(tr, 0))
    assert s["stokes.orbit"] == 5.0
    assert s["stokes.busy_s"] == 5.0 and s["stokes.self_s"] == 4.0
    assert s["exact.busy_s"] == 1.0 and s["exact.self_s"] == 1.0
    assert s["bench.busy_s"] == 10.0 and s["bench.self_s"] == 5.0
