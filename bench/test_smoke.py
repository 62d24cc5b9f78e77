"""Smoke test of the benchmark: the first operation of every workload, the
command line on the one-operation arl workload, and the traced run.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_first_operation_of_each_workload_passes_its_checks(workload):
    m = run.measure(workloads.build(workload, 3)[:1], 0)
    assert (m.attempted, m.problems, m.passes) == (1, [], 1)
    assert m.wall_s > 0 and m.cpu_s > 0


def test_command_checks_every_operation_and_reports_every_metric():
    res = _result(_run("--workload", "arl", "--seed", "3", "--seconds", "0", "--trace", "0"))
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = _result(_run("--workload", "arl", "--seed", "3", "--seconds", "0", "--trace", "1"))
    assert res["correct"] and res["attempted"] == 3  # two passes and the pool probe
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["montecarlo.increments_drawn"] >= metrics["montecarlo.increments_used"] > 0
    assert metrics["montecarlo.pool.speedup"] > 0
    assert metrics["bounds.ladder.calls"] == 0


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "arl", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
