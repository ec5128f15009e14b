"""Bench: Table 1, eps-approximate NE columns (experiment ``table1-approx``).

Regenerates the paper's Table 1 approximate-NE comparison (measured
convergence rounds and scaling fits for complete / ring / torus /
hypercube) and benchmarks the underlying per-round kernel.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_quick
from repro.core.protocols import SelfishUniformProtocol
from repro.experiments.executor import CellSpec, run_cell


def test_table1_approx_experiment(benchmark):
    """Full quick-mode reproduction of Table 1 (approximate NE)."""
    result = benchmark.pedantic(
        lambda: run_quick("table1-approx"), rounds=1, iterations=1
    )
    benchmark.extra_info["fits"] = {
        family: round(fit["exponent"], 3)
        for family, fit in result.data["fits"].items()
        if fit.get("exponent") is not None
    }


def test_single_cell_ring(benchmark):
    """One Table 1 cell: ring n=16, rounds to Psi_0 <= 4 psi_c."""
    cell = benchmark.pedantic(
        lambda: run_cell(
            CellSpec("approx", "ring", 16, m_factor=8.0, repetitions=1, seed=1)
        ),
        rounds=1,
        iterations=1,
    )
    assert cell.num_converged == 1
    benchmark.extra_info["median_rounds"] = cell.median_rounds
    benchmark.extra_info["bound_rounds"] = round(cell.bound_rounds)


def test_round_kernel_torus(benchmark, torus36, skewed_state_torus36):
    """Per-round cost of Algorithm 1 on a 36-node torus (m = 10368)."""
    protocol = SelfishUniformProtocol()
    rng = np.random.default_rng(0)
    state = skewed_state_torus36

    benchmark(lambda: protocol.execute_round(state, torus36, rng))
