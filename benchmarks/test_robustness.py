"""Bench: self-stabilization (experiment ``robustness``).

Shock-recovery times vs the Theorem 1.1 bound plus a kernel benchmark
of one churn-plus-round step (via the declarative scenario event).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_quick
from repro.core.protocols import SelfishUniformProtocol
from repro.graphs.generators import torus_graph
from repro.model.placement import random_placement
from repro.model.speeds import uniform_speeds
from repro.model.state import UniformState
from repro.scenarios import PoissonChurnEvent


def test_robustness_experiment(benchmark):
    result = benchmark.pedantic(lambda: run_quick("robustness"), rounds=1, iterations=1)
    benchmark.extra_info["recovery_rounds"] = result.data["shock"]["recovery_rounds"]
    benchmark.extra_info["churn_median_psi0"] = round(
        result.data["churn"]["median_psi0"], 1
    )


def test_churn_round_kernel(benchmark):
    """One churn application + one protocol round (torus n=36)."""
    graph = torus_graph(6)
    n = graph.num_vertices
    state = UniformState(random_placement(n, 8 * n * n, seed=1), uniform_speeds(n))
    protocol = SelfishUniformProtocol()
    churn = PoissonChurnEvent(5.0)
    rng = np.random.default_rng(3)

    def step():
        churn.apply(state, graph, rng)
        protocol.execute_round(state, graph, rng)

    benchmark(step)
