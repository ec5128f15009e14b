"""Bench: dynamic-workload scenarios (experiment ``scenarios-churn-shock``).

Not a paper artifact — the scenario subsystem is the "as many scenarios
as you can imagine" axis on top of the batch engines. The quick
experiment must pass, one churn-plus-round step is benchmarked on both
engines, and two acceptance checks pin the speedups: a full churn +
flash-crowd scenario cell at 100 repetitions must run >= 3x faster
through the replica-stack engine than through the scalar loop (uniform
*and* weighted quick cells), and the PR 5 counter stream layout must
run the heavy-churn cell (Poisson churn every round, torus36, R=256)
>= 2x faster per round than the spawned layout — the per-replica event
draw loop was one of the ROADMAP's named bottlenecks. Acceptance
numbers land in ``benchmarks/BENCH.json``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from benchmarks.conftest import record_bench, run_quick
from repro.core.protocols import SelfishUniformProtocol, SelfishWeightedProtocol
from repro.core.stopping import NashStop
from repro.experiments.scenario_cells import measure_scenario_recovery
from repro.graphs.generators import torus_graph
from repro.model.batch import BatchUniformState
from repro.model.placement import place_weighted_random, random_placement
from repro.model.speeds import uniform_speeds
from repro.model.state import UniformState, WeightedState
from repro.model.tasks import two_class_weights
from repro.scenarios import (
    LoadShock,
    PoissonChurnEvent,
    ScenarioRunner,
    Schedule,
    at,
    every,
)
from repro.utils.rng import CounterStreams, spawn_rngs

#: Replica count for the per-round cost benchmarks.
ROUND_COST_REPLICAS = 64


def test_scenarios_experiment(benchmark):
    result = benchmark.pedantic(
        lambda: run_quick("scenarios-churn-shock"), rounds=1, iterations=1
    )
    cells = result.data["cells"]
    benchmark.extra_info["cells"] = len(cells)
    benchmark.extra_info["median_recoveries"] = [
        cell["median_recovery"] for cell in cells
    ]


def test_scenario_round_kernel_scalar(benchmark):
    """One churn application + one protocol round (torus n=36, scalar)."""
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


def test_scenario_round_kernel_batch(benchmark):
    """The same churn + round step over a 64-replica stack (torus n=36)."""
    graph = torus_graph(6)
    n = graph.num_vertices
    rngs = spawn_rngs(1, ROUND_COST_REPLICAS)
    counts = np.stack(
        [random_placement(n, 8 * n * n, rng) for rng in rngs]
    )
    batch = BatchUniformState(counts, uniform_speeds(n))
    protocol = SelfishUniformProtocol()
    churn = PoissonChurnEvent(5.0)

    def step():
        churn.apply_batch(batch, graph, rngs)
        protocol.execute_round_batch(batch, graph, rngs, None)

    benchmark(step)
    benchmark.extra_info["replicas"] = ROUND_COST_REPLICAS
    benchmark.extra_info["replica_rounds_per_op"] = ROUND_COST_REPLICAS


def test_scenario_round_kernel_counter(benchmark):
    """The churn + round step over a 64-replica stack, counter layout."""
    graph = torus_graph(6)
    n = graph.num_vertices
    children = spawn_rngs(1, ROUND_COST_REPLICAS)
    counts = np.stack(
        [random_placement(n, 8 * n * n, rng) for rng in children]
    )
    batch = BatchUniformState(counts, uniform_speeds(n))
    protocol = SelfishUniformProtocol()
    churn = PoissonChurnEvent(5.0)
    streams = CounterStreams(1, ROUND_COST_REPLICAS)
    rounds = iter(range(10**9))

    def step():
        streams.begin_round(next(rounds))
        churn.apply_batch(batch, graph, streams)
        protocol.execute_round_batch(batch, graph, streams, None)

    benchmark(step)
    benchmark.extra_info["replicas"] = ROUND_COST_REPLICAS
    benchmark.extra_info["replica_rounds_per_op"] = ROUND_COST_REPLICAS


@pytest.mark.slow
def test_heavy_churn_counter_per_round_speedup():
    """Acceptance: counter >= 2x per-round on the heavy-churn cell, R=256.

    The ISSUE 5 scenario pin: Poisson churn every round on torus36 with
    m = 8 n^2 tasks per replica. Under the spawned layout every round
    pays ~4 R generator calls (two Poissons, placement, removal) plus R
    multinomials; the counter layout draws each as one block. Both
    policies advance identical initial stacks; best-of-two per-round
    wall clock; recorded in ``BENCH.json``.
    """
    replicas, rounds = 256, 20
    graph = torus_graph(6)
    n = graph.num_vertices
    children = spawn_rngs(1, replicas)
    counts = np.stack([random_placement(n, 8 * n * n, rng) for rng in children])
    protocol = SelfishUniformProtocol()
    churn = PoissonChurnEvent(5.0)

    def timed(policy):
        best = float("inf")
        for _ in range(2):
            batch = BatchUniformState(counts.copy(), uniform_speeds(n))
            if policy == "counter":
                streams: object = CounterStreams(1, replicas)
            else:
                streams = spawn_rngs(1, replicas)
            start = time.perf_counter()
            for round_index in range(rounds):
                if policy == "counter":
                    streams.begin_round(round_index)
                churn.apply_batch(batch, graph, streams)
                protocol.execute_round_batch(batch, graph, streams, None)
            best = min(best, (time.perf_counter() - start) / rounds)
        return best

    spawned_seconds = timed("spawned")
    counter_seconds = timed("counter")
    speedup = spawned_seconds / counter_seconds
    record_bench(
        "heavy-churn-round torus36 m=8n^2 R=256",
        "spawned",
        spawned_seconds,
        1.0,
        baseline="spawned per-round",
    )
    record_bench(
        "heavy-churn-round torus36 m=8n^2 R=256",
        "counter",
        counter_seconds,
        speedup,
        baseline="spawned per-round",
    )
    assert speedup >= 2.0, (
        f"counter layout only {speedup:.2f}x faster on the heavy-churn "
        f"cell ({counter_seconds * 1e3:.2f}ms vs {spawned_seconds * 1e3:.2f}ms)"
    )


def _timed_cell(tasks: str, engine: str) -> tuple[object, float]:
    """Best-of-two wall clock for one 100-repetition scenario cell."""
    kwargs = dict(
        repetitions=100,
        seed=42,
        tasks=tasks,
        engine=engine,
    )
    if tasks == "uniform":
        cell_args = ("torus", 16, 16.0)
        kwargs["shock_fraction"] = 0.8
    else:
        cell_args = ("ring", 8, 8.0)
    best_seconds, measurement = float("inf"), None
    for _ in range(2):
        start = time.perf_counter()
        measurement = measure_scenario_recovery(*cell_args, **kwargs)
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return measurement, best_seconds


@pytest.mark.slow
@pytest.mark.parametrize("tasks", ["uniform", "weighted"])
def test_scenario_speedup_at_100_repetitions(tasks):
    """Acceptance: >= 3x wall-clock at 100 reps through the batch engine.

    The full churn + flash-crowd cell (events every round, the shock
    mid-run, per-round observables and target verdicts) through both
    engines with identical spawned streams. Weighted runs are pathwise
    identical, so every measured statistic must agree exactly; uniform
    runs agree in law, so only the wall clock is compared.
    """
    batch, batch_seconds = _timed_cell(tasks, "batch")
    scalar, scalar_seconds = _timed_cell(tasks, "scalar")

    assert batch.engine == "batch" and scalar.engine == "scalar"
    assert batch.num_recovered == batch.num_replicas
    if tasks == "weighted":
        skip = {"engine"}
        for field in dataclasses.fields(type(batch)):
            if field.name in skip:
                continue
            assert getattr(batch, field.name) == getattr(scalar, field.name), (
                f"weighted scenario field {field.name} diverged across engines"
            )

    speedup = scalar_seconds / batch_seconds
    assert speedup >= 3.0, (
        f"batched scenario engine only {speedup:.1f}x faster on the {tasks} "
        f"cell ({batch_seconds:.2f}s vs {scalar_seconds:.2f}s)"
    )


@pytest.mark.slow
def test_weighted_churn_scenario_spawned():
    """The weighted churn scenario end to end, on stacks with holes.

    torus(36), m = 8n two-class tasks, Poisson churn every round and a
    load shock at round 60, ``NashStop`` target, R = 16 replicas over
    T = 300 rounds, spawned streams. Departures keep holes in the padded
    stack for the whole run, so every spawned weighted round takes the
    live-task-list layout. The batch run must equal the scalar engine's
    (total weights up to round-off); its best-of-five wall clock lands
    in ``BENCH.json`` with the speedup over the scalar engine.
    """
    graph = torus_graph(6)
    n = graph.num_vertices
    m = 8 * n
    weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)

    def factory(rng):
        return WeightedState(place_weighted_random(m, n, rng), weights, np.ones(n))

    schedule = Schedule(
        [every(1, PoissonChurnEvent(1.0, weight=0.5)), at(60, LoadShock(0.5))]
    )
    runner = ScenarioRunner(
        graph, SelfishWeightedProtocol(), schedule, target=NashStop()
    )

    def timed(engine, repeats):
        best_seconds, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = runner.run_ensemble(
                factory, repetitions=16, rounds=300, seed=1, engine=engine
            )
            best_seconds = min(best_seconds, time.perf_counter() - start)
        return result, best_seconds

    batch, batch_seconds = timed("batch", 5)
    scalar, scalar_seconds = timed("scalar", 1)
    assert batch.engine == "batch" and scalar.engine == "scalar"
    for name in ("psi0", "max_load_difference", "num_tasks", "target_satisfied"):
        np.testing.assert_array_equal(getattr(batch, name), getattr(scalar, name))
    # Totals are summed over a padded row on one engine and a compact
    # array on the other, so they agree only to round-off.
    np.testing.assert_allclose(batch.total_weight, scalar.total_weight, rtol=1e-12)
    record_bench(
        "weighted churn scenario spawned torus(36) m=8n R=16 T=300",
        "spawned",
        batch_seconds,
        scalar_seconds / batch_seconds,
        baseline="scalar engine",
    )
