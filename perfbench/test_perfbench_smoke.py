"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Checks the result schema, that the metric names and units are the ones
BENCHMARK.json declares, and that the host-speed probes stay out of the
times they rescale.  It has no timing bound.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert lines[0].startswith("environment ")
    assert {"python", "numpy", "scipy", "nproc", "blas"} <= set(json.loads(lines[0].split(" ", 1)[1]))


def test_workloads_match_benchmark_json():
    sys.path.insert(0, HERE)
    try:
        from tracing import metric_units
        from workloads import BUILDERS
    finally:
        sys.path.remove(HERE)
    assert sorted(BUILDERS) == sorted(w["name"] for w in SPEC["workloads"])
    assert metric_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bands-tune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_probes_inside_a_call_stay_out_of_its_time():
    sys.path.insert(0, HERE)
    try:
        from hostspeed import INTERVAL_S, Timing, probe
    finally:
        sys.path.remove(HERE)
    busy_s = 2.5 * INTERVAL_S
    timing = Timing(probe())
    start = time.perf_counter()
    with timing.measure():
        while time.perf_counter() - start < busy_s:
            pass
    inside = timing.probes[1:-1]
    assert len(inside) >= 2
    assert timing.wall_s <= busy_s - sum(inside) + 0.05
    assert timing.scale > 0.0
