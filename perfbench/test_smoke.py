"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each run must pass its own correctness checks and print exactly the metrics
BENCHMARK.json declares for its mode, with the declared units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# the smoke size evaluates on h = 1/8, 17 nodes a side, with the default
# Zygmund k_max = 8: 6 * 17**2 node and stencil points plus the extended grid
# of (17 + 2 * 8)**2 points
SMOKE_POINTS_PER_REPORT = 6 * 17**2 + (17 + 2 * 8) ** 2


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = ("targets", "network", "fdgrid", "training", "metrics", "harness")
        total = sum(values[f"{layer}.self_s"] for layer in layers)
        total += values["cli.main.self_s"] + values["trace.unattributed_s"]
        assert total == pytest.approx(values["trace.wall_s"], rel=1e-9)
        assert values["metrics.network_points_per_report.run"] == SMOKE_POINTS_PER_REPORT
        assert values["metrics.network_points_per_report.eval"] == SMOKE_POINTS_PER_REPORT
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
