"""Bench: Table 1, exact NE columns (experiment ``table1-exact``).

Regenerates the exact-NE half of Table 1 (measured first-hitting rounds
of the exact Nash equilibrium per graph family) and benchmarks the NE
predicate that the stopping rule evaluates each round.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_quick
from repro.core.equilibrium import is_nash
from repro.experiments.executor import CellSpec, run_cell
from repro.model.placement import random_placement
from repro.model.speeds import uniform_speeds
from repro.model.state import UniformState


def test_table1_exact_experiment(benchmark):
    """Full quick-mode reproduction of Table 1 (exact NE)."""
    result = benchmark.pedantic(
        lambda: run_quick("table1-exact"), rounds=1, iterations=1
    )
    benchmark.extra_info["fits"] = {
        family: round(fit["exponent"], 3)
        for family, fit in result.data["fits"].items()
        if fit.get("exponent") is not None
    }


def test_single_cell_torus(benchmark):
    """One exact-NE cell: torus n=25."""
    cell = benchmark.pedantic(
        lambda: run_cell(
            CellSpec("exact", "torus", 25, m_factor=8.0, repetitions=1, seed=2)
        ),
        rounds=1,
        iterations=1,
    )
    assert cell.num_converged == 1
    benchmark.extra_info["median_rounds"] = cell.median_rounds


def test_nash_check_kernel(benchmark, torus36):
    """Cost of the exact-NE predicate (evaluated every simulated round)."""
    n = torus36.num_vertices
    state = UniformState(random_placement(n, 8 * n, seed=1), uniform_speeds(n))
    benchmark(lambda: is_nash(state, torus36))
