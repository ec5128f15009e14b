"""Bench: dynamic-topology scenarios (experiment ``topology-failures``).

Not a paper artifact — the dynamic-topology axis stresses the engines
with mid-run graph swaps and per-round spectral tracking. The quick
experiment must pass, and one acceptance check pins the engine
speedup: a failure-heavy topology-resilience cell (an edge-failure
burst, a network partition and a recovery on the fat-tree family) at
100 repetitions must run >= 2x faster through the replica-stack engine
than through the scalar loop. Graph swaps and the memoized spectral
trace are shared across the whole stack, so batching amortizes them
over all replicas while the scalar loop pays the Python round loop per
replica. Acceptance numbers land in ``benchmarks/BENCH.json``.
"""

from __future__ import annotations

import time

import numpy as np

import pytest

from benchmarks.conftest import record_bench, run_quick
from repro.experiments.executor import CellSpec, run_cell


def test_topology_experiment(benchmark):
    result = benchmark.pedantic(
        lambda: run_quick("topology-failures"), rounds=1, iterations=1
    )
    cells = result.data["cells"]
    benchmark.extra_info["cells"] = len(cells)
    benchmark.extra_info["disconnected_rounds"] = [
        cell["disconnected_rounds"] for cell in cells
    ]


def _timed_cell(engine: str) -> tuple[object, float]:
    """Best-of-two wall clock for the failure-heavy fat-tree cell."""
    params = {
        "engine": engine,
        "fail_fraction": 0.25,
        "fail_round": 20,
        "partition_round": 45,
        "recover_round": 70,
        "horizon": 140,
    }
    spec = CellSpec(
        "topology-resilience",
        "fat-tree",
        20,
        m_factor=8.0,
        repetitions=100,
        seed=42,
        params=tuple(sorted(params.items())),
    )
    best_seconds, measurement = float("inf"), None
    for _ in range(2):
        start = time.perf_counter()
        measurement = run_cell(spec)
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return measurement, best_seconds


@pytest.mark.slow
def test_topology_cell_speedup_at_100_repetitions():
    """Acceptance: >= 2x wall-clock at 100 reps through the batch engine.

    The failure-heavy cell: 141 recorded rounds with three graph swaps
    (degraded, partitioned, restored) and a per-round spectral lookup.
    The spectral trace is replica-stable and memoized per distinct
    topology, so both engines must record the *identical* trace — the
    assertion doubles as an engine-equivalence check on the dynamic
    topology path.
    """
    batch, batch_seconds = _timed_cell("batch")
    scalar, scalar_seconds = _timed_cell("scalar")

    assert batch.engine == "batch" and scalar.engine == "scalar"
    assert batch.num_recovered == batch.num_replicas
    assert np.isinf(batch.gap_partitioned) and np.isinf(scalar.gap_partitioned)
    assert batch.gap_restored and scalar.gap_restored
    np.testing.assert_allclose(batch.gap_series, scalar.gap_series, atol=1e-9)

    speedup = scalar_seconds / batch_seconds
    record_bench(
        "topology-resilience fat-tree n=20 m=8n R=100",
        "scalar",
        scalar_seconds,
        1.0,
        baseline="scalar end-to-end",
    )
    record_bench(
        "topology-resilience fat-tree n=20 m=8n R=100",
        "batch",
        batch_seconds,
        speedup,
        baseline="scalar end-to-end",
    )
    assert speedup >= 2.0, (
        f"batched topology cell only {speedup:.1f}x faster "
        f"({batch_seconds:.2f}s vs {scalar_seconds:.2f}s)"
    )
