"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from suite import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(name: str, trace: bool) -> tuple[dict, dict]:
    result, detail = run.measure(
        name, run.DEFAULT_SEED, seconds=0.01, trace=trace, sizes=WORKLOADS[name].tiny
    )
    result["metrics"] = run.with_units(result["metrics"])
    return result, detail


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def _assert_emitted(result: dict, detail: dict, section: str) -> dict[str, float]:
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["attempted"] >= 1
    assert detail["failed_fraction"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics(name):
    metrics = _assert_emitted(*_tiny_run(name, trace=False), "end_to_end")
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_metrics(name):
    metrics = _assert_emitted(*_tiny_run(name, trace=True), "per_layer")
    self_sum = sum(
        value
        for key, value in metrics.items()
        if key.endswith(".self_s") and not key.startswith("workloads.")
    )
    assert self_sum == pytest.approx(metrics["tracer.wall_s"], rel=1e-9)
    if name == "table1-approx-sweep":
        assert metrics["events.calls"] == 0 and metrics["streams.calls"] == 0
    if name == "weighted-nash-counter":
        # Retired replicas leave holes: more than one fill per kernel call.
        assert metrics["streams.runs"] > metrics["kernel.calls"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, f"{HERE.name}/run.py", "--workload", "table1-approx-sweep"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
