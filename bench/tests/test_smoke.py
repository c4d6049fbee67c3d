"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest -q bench/tests

Every workload, untraced and traced, must pass its output checks and emit
every metric BENCHMARK.json declares, by name and with the declared unit.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(trace)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
        assert f"  {name} " in proc.stdout, f"{name} not printed by name"


def test_all_workloads_in_one_command():
    proc = run_bench("--workload", "all", "--seed", "4", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = last_json(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in declared(0)}


def test_no_result_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "fuse-arc", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speedometer_scales_by_probe_speed():
    sys.path.insert(0, str(BENCH))
    import speed

    with speed.Speedometer(period_s=0.02) as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
    assert len(meter.durations) >= speed.MIN_SAMPLES
    mean_speed = statistics.fmean(
        1.0 / d for s, d in zip(meter.starts, meter.durations) if t0 <= s <= t1)
    busy = sum(b for s, b in zip(meter.starts, meter.busy) if t0 <= s <= t1)
    want = (t1 - t0 - busy) * speed.REFERENCE_PROBE_S * mean_speed
    assert meter.corrected(t1 - t0, t0, t1) == pytest.approx(want)
    assert speed.uncorrected(1.5, t0, t1) == 1.5
