"""Shared fixtures for the benchmark suite.

Each ``test_*.py`` here regenerates one of the paper's artifacts (a
Table 1 column, a theorem verification, a lemma audit) through the
experiment harness, asserting the paper-vs-measured comparison passes,
and additionally benchmarks the simulation kernels the experiment rests
on. Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.generators import torus_graph
from repro.model.placement import all_on_one_placement
from repro.model.speeds import uniform_speeds
from repro.model.state import UniformState

#: Machine-readable record of the acceptance benchmarks, committed so the
#: perf trajectory accumulates across PRs. Versioned: a ``schema``
#: header plus ``rows`` keyed by (cell, policy, backend), each row
#: tagged with the PR that recorded it.
BENCH_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH.json"

#: Stamped onto rows recorded by the current checkout; bump when a PR
#: re-records (or adds) benchmark rows so the trajectory stays
#: attributable.
BENCH_CURRENT_PR = 15


def _machine_metadata() -> dict:
    """Hardware/toolchain context for a freshly recorded row."""
    import os
    import platform

    import numpy

    metadata: dict = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy_version": numpy.__version__,
    }
    try:
        import numba

        metadata["numba_version"] = numba.__version__
    except ImportError:
        pass
    return metadata


def _load_bench_rows() -> list[dict]:
    """Current BENCH.json rows (tolerating the pre-schema flat list)."""
    if not BENCH_RESULTS_PATH.exists():
        return []
    document = json.loads(BENCH_RESULTS_PATH.read_text(encoding="utf-8"))
    if isinstance(document, list):  # pre-versioned flat layout
        return document
    return list(document.get("rows", []))


def record_bench(
    cell: str,
    policy: str,
    wall_clock_seconds: float,
    speedup: float,
    backend: str = "numpy",
    **extra,
) -> None:
    """Upsert one (cell, policy, backend) row into ``BENCH.json``.

    ``wall_clock_seconds`` is the timed quantity of the row (per-round or
    end-to-end — the cell name says which); ``speedup`` is relative to
    the row's stated baseline; ``backend`` tags which
    :mod:`repro.backends` implementation ran the kernels. Extra keyword
    scalars ride along. Recorded rows carry the recording PR
    (``BENCH_CURRENT_PR``) and machine metadata (cpu count, platform,
    python / numpy / numba versions), so the committed file is a cumulative
    per-PR perf trajectory — rows from earlier PRs stay until a later
    PR's benchmark re-records them.

    Writes happen only when ``BENCH_RECORD=1`` is exported
    (``BENCH_RECORD=1 pytest -q -m slow benchmarks/`` to refresh), so routine
    tier-1 runs — which include the slow acceptance benchmarks — never
    dirty the working tree with machine-local timings.
    """
    import os

    if os.environ.get("BENCH_RECORD", "") not in ("1", "true", "yes"):
        return
    rows = _load_bench_rows()
    rows = [
        row
        for row in rows
        if (row["cell"], row["policy"], row.get("backend", "numpy"))
        != (cell, policy, backend)
    ]
    rows.append(
        {
            "cell": cell,
            "policy": policy,
            "backend": backend,
            "pr": BENCH_CURRENT_PR,
            "wall_clock_seconds": round(float(wall_clock_seconds), 6),
            "speedup": round(float(speedup), 3),
            "machine": _machine_metadata(),
            **extra,
        }
    )
    rows.sort(
        key=lambda row: (row["cell"], row["policy"], row.get("backend", "numpy"))
    )
    document = {
        "schema": {
            "version": 2,
            "key": ["cell", "policy", "backend"],
            "description": (
                "Cumulative acceptance-benchmark trajectory. One row per "
                "(cell, policy, backend); 'pr' is the stacked PR that "
                "recorded the row, 'machine' the recording hardware and "
                "toolchain. Refresh with BENCH_RECORD=1 pytest -q -m slow "
                "benchmarks/."
            ),
        },
        "rows": rows,
    }
    BENCH_RESULTS_PATH.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    """Backend-marker skips for the benchmark tier (mirrors tests/)."""
    import importlib.util

    if importlib.util.find_spec("numba") is not None:
        return
    skip = pytest.mark.skip(reason="numba is not installed (install the jit extra)")
    for item in items:
        if "requires_numba" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def torus36():
    return torus_graph(6)


@pytest.fixture
def skewed_state_torus36(torus36):
    n = torus36.num_vertices
    return UniformState(all_on_one_placement(n, 8 * n * n), uniform_speeds(n))


def run_quick(experiment_id: str):
    """Run one experiment in quick mode and assert its verdict."""
    from repro.experiments.registry import run_experiment

    result = run_experiment(experiment_id, quick=True)
    assert result.passed, f"{experiment_id} failed: {result.notes}"
    return result
