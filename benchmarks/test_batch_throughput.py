"""Bench: batched ensemble engine throughput vs the sequential baseline.

Not a paper artifact — the perf trajectory of the tentpole refactor. The
batched engines advance all replicas with one vectorized kernel call per
round, so replica-rounds/sec should grow near-linearly with the ensemble
size ``R`` while the sequential baseline stays flat. Two acceptance
checks pin the ensemble-measurement speedup at 100 repetitions: at
least 5x on the uniform ``torus36`` quick cell, and at least 3x on the
weighted quick cell (ring(16), two-class speeds, m = 8n heavy/light
tasks — the ``m = O(n)`` regime every weighted convergence measurement
lives in) where the per-task Bernoulli kernel has no multinomial
shortcut to lean on.

The per-round cost cells additionally probe the heavy-m regime
(ring(8), m=1500, the ``weighted-variants`` configuration): there the
scalar weighted kernel is already vectorized over 1500 tasks, so
batching under the spawned stream layout only removes per-replica
dispatch overhead (~1.3-1.8x). The acceptance test pins
``rng_policy="counter"`` at >= 1.3x per-round over ``"spawned"`` at
(ring(8), m=1500, R=256). That margin is the spawned round's page
faults: its fresh ``(A, M)`` temporaries fault 2.3-3.0k pages per round
on this cell, while the counter round writes its blocks into the
protocol's reused workspace. The counter layout's one fused Philox block
draw halves the words of the two per-replica fill loops, but a Philox
word costs about twice a PCG64 double, so the draw alone does not win.
Both layouts gather the migration probability from one per-edge table,
so the per-task math does not separate them either.
A retiring row runs the weighted quick cell to ``NashStop`` under both
policies, where converged replicas leave holes in the counter layout's
row sets. Acceptance numbers land in ``benchmarks/BENCH.json`` (cell, policy,
wall-clock, speedup) so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import record_bench
from repro.analysis.convergence import measure_convergence_rounds
from repro.core.protocols import SelfishUniformProtocol, SelfishWeightedProtocol
from repro.core.stopping import NashStop, PotentialThresholdStop
from repro.graphs.generators import cycle_graph
from repro.model.batch import BatchUniformState, BatchWeightedState
from repro.model.placement import (
    adversarial_placement,
    place_weighted_random,
    random_placement,
)
from repro.model.speeds import two_class_speeds, uniform_speeds
from repro.model.state import UniformState, WeightedState
from repro.model.tasks import two_class_weights
from repro.spectral.eigen import algebraic_connectivity
from repro.theory.constants import psi_critical
from repro.utils.rng import CounterStreams, spawn_rngs

REPLICA_COUNTS = [1, 32, 256]

#: Heavy-m weighted cell for per-round cost (mirrors weighted_variants).
WEIGHTED_HEAVY_N = 8
WEIGHTED_HEAVY_M = 1500

#: The weighted quick cell for the measurement-speedup acceptance:
#: m = O(n), the regime of the convergence-time experiments.
WEIGHTED_QUICK_N = 16
WEIGHTED_QUICK_M = 8 * WEIGHTED_QUICK_N


def _weighted_cell(n, m):
    graph = cycle_graph(n)
    speeds = two_class_speeds(n, fast_fraction=0.25, fast_speed=2.0)
    weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)
    return graph, speeds, weights


def _weighted_states(replicas, seed=7):
    n, m = WEIGHTED_HEAVY_N, WEIGHTED_HEAVY_M
    graph, speeds, weights = _weighted_cell(n, m)
    rngs = spawn_rngs(seed, replicas)
    states = [
        WeightedState(place_weighted_random(m, n, rng), weights, speeds)
        for rng in rngs
    ]
    return graph, states, rngs


def _heavy_ensemble(graph, replicas, seed=7):
    n = graph.num_vertices
    rngs = spawn_rngs(seed, replicas)
    counts = np.stack([random_placement(n, 8 * n * n, rng) for rng in rngs])
    return BatchUniformState(counts, uniform_speeds(n)), rngs


@pytest.mark.parametrize("replicas", REPLICA_COUNTS)
def test_batched_round_cost(benchmark, torus36, replicas):
    """One batched round over R replicas (m = 8 n^2 each) on torus36."""
    batch, rngs = _heavy_ensemble(torus36, replicas)
    protocol = SelfishUniformProtocol()
    benchmark(lambda: protocol.execute_round_batch(batch, torus36, rngs, None))
    benchmark.extra_info["replicas"] = replicas
    benchmark.extra_info["replica_rounds_per_op"] = replicas


@pytest.mark.parametrize("replicas", REPLICA_COUNTS)
def test_sequential_round_cost(benchmark, torus36, replicas):
    """The same R replica-rounds through the scalar kernel, one at a time."""
    n = torus36.num_vertices
    rngs = spawn_rngs(7, replicas)
    states = [
        UniformState(random_placement(n, 8 * n * n, rng), uniform_speeds(n))
        for rng in rngs
    ]
    protocol = SelfishUniformProtocol()

    def run_all():
        for state, rng in zip(states, rngs):
            protocol.execute_round(state, torus36, rng)

    benchmark(run_all)
    benchmark.extra_info["replicas"] = replicas
    benchmark.extra_info["replica_rounds_per_op"] = replicas


@pytest.mark.parametrize("replicas", REPLICA_COUNTS)
def test_weighted_batched_round_cost(benchmark, replicas):
    """One batched weighted round over R replicas on the heavy-m cell."""
    graph, states, rngs = _weighted_states(replicas)
    batch = BatchWeightedState.from_states(states)
    protocol = SelfishWeightedProtocol()
    benchmark(lambda: protocol.execute_round_batch(batch, graph, rngs, None))
    benchmark.extra_info["replicas"] = replicas
    benchmark.extra_info["replica_rounds_per_op"] = replicas


@pytest.mark.parametrize("replicas", REPLICA_COUNTS)
def test_weighted_counter_round_cost(benchmark, replicas):
    """One counter-layout weighted round over R replicas (heavy-m cell)."""
    graph, states, _ = _weighted_states(replicas)
    batch = BatchWeightedState.from_states(states)
    streams = CounterStreams(7, replicas)
    protocol = SelfishWeightedProtocol()
    rounds = iter(range(10**9))

    def step():
        streams.begin_round(next(rounds))
        protocol.execute_round_batch(batch, graph, streams, None)

    benchmark(step)
    benchmark.extra_info["replicas"] = replicas
    benchmark.extra_info["replica_rounds_per_op"] = replicas


@pytest.mark.parametrize("replicas", REPLICA_COUNTS)
def test_weighted_sequential_round_cost(benchmark, replicas):
    """The same R weighted replica-rounds through the scalar kernel."""
    graph, states, rngs = _weighted_states(replicas)
    protocol = SelfishWeightedProtocol()

    def run_all():
        for state, rng in zip(states, rngs):
            protocol.execute_round(state, graph, rng)

    benchmark(run_all)
    benchmark.extra_info["replicas"] = replicas
    benchmark.extra_info["replica_rounds_per_op"] = replicas


@pytest.mark.slow
def test_weighted_counter_per_round_speedup():
    """Acceptance: counter >= 1.3x per-round on (ring(8), m=1500, R=256).

    The heavy-m weighted cell where spawned batching is dispatch-bound.
    Both policies advance the same initial replica stack for a fixed
    number of rounds after one untimed warm-up round; the per-round wall
    clock is best-of-two, with spawned and counter repeats alternating
    so a slow spell of the host hits both. The gap is the spawned
    round's page faults: its fresh ``(A, M)`` temporaries fault 2.3-3.0k
    pages per round here, while the counter round reuses the protocol's
    workspace and faults none. Both kernels gather the same per-edge
    migration table (~1.6-2.0x measured on 2 vCPUs). The numbers are
    recorded in ``BENCH.json``.
    """
    replicas, rounds = 256, 30
    graph, states, _ = _weighted_states(replicas)
    protocol = SelfishWeightedProtocol()

    def timed(policy):
        batch = BatchWeightedState.from_states(states)
        if policy == "counter":
            streams: object = CounterStreams(7, replicas)
        else:
            streams = spawn_rngs(7, replicas)

        def advance(round_index):
            if policy == "counter":
                streams.begin_round(round_index)
            protocol.execute_round_batch(batch, graph, streams, None)

        # Warm caches (graph tables, workspace, allocator) outside the clock.
        advance(0)
        start = time.perf_counter()
        for round_index in range(1, rounds + 1):
            advance(round_index)
        return (time.perf_counter() - start) / rounds

    best = {"spawned": float("inf"), "counter": float("inf")}
    for _ in range(2):
        for policy in best:
            best[policy] = min(best[policy], timed(policy))
    spawned_seconds, counter_seconds = best["spawned"], best["counter"]
    speedup = spawned_seconds / counter_seconds
    record_bench(
        "weighted-round ring(8) m=1500 R=256",
        "spawned",
        spawned_seconds,
        1.0,
        baseline="spawned per-round",
    )
    record_bench(
        "weighted-round ring(8) m=1500 R=256",
        "counter",
        counter_seconds,
        speedup,
        baseline="spawned per-round",
    )
    assert speedup >= 1.3, (
        f"counter layout only {speedup:.2f}x faster per round "
        f"({counter_seconds * 1e3:.2f}ms vs {spawned_seconds * 1e3:.2f}ms)"
    )


@pytest.mark.slow
def test_weighted_speedup_at_100_repetitions():
    """Acceptance: >= 3x wall-clock at 100 reps on the weighted quick cell.

    Times the full ensemble measurement (rounds to the threshold state
    from random placements) through both engines with identical seeds.
    The weighted kernels are pathwise identical, so beyond the KS check
    the samples must agree exactly.
    """
    n, m = WEIGHTED_QUICK_N, WEIGHTED_QUICK_M
    graph, speeds, weights = _weighted_cell(n, m)

    def factory(rng):
        return WeightedState(place_weighted_random(m, n, rng), weights, speeds)

    common = dict(
        graph=graph,
        protocol=SelfishWeightedProtocol(),
        state_factory=factory,
        stopping=NashStop(),
        repetitions=100,
        max_rounds=50_000,
        seed=42,
    )

    def timed(engine):
        best_seconds, measurement = float("inf"), None
        for _ in range(2):
            start = time.perf_counter()
            measurement = measure_convergence_rounds(engine=engine, **common)
            best_seconds = min(best_seconds, time.perf_counter() - start)
        return measurement, best_seconds

    batch, batch_seconds = timed("batch")
    scalar, scalar_seconds = timed("scalar")

    assert batch.all_converged and scalar.all_converged
    # Pathwise-identical kernels: the samples are equal, not just close.
    np.testing.assert_array_equal(batch.rounds, scalar.rounds)

    speedup = scalar_seconds / batch_seconds
    record_bench(
        "weighted-measurement ring(16) m=8n reps=100",
        "spawned",
        batch_seconds,
        speedup,
        baseline="scalar loop",
    )
    assert speedup >= 3.0, (
        f"batched weighted engine only {speedup:.1f}x faster "
        f"({batch_seconds:.2f}s vs {scalar_seconds:.2f}s)"
    )


@pytest.mark.slow
def test_weighted_retiring_measurement_both_policies():
    """BENCH row: the weighted quick cell run to NashStop, both policies.

    ring(16), two-class speeds, m = 8n tasks, 100 repetitions through
    the batch engine. Replicas reach the Nash state at different rounds
    and retire, so the active stack goes sparse and the counter layout
    fills sparse row sets every round; the fixed-round per-round rows
    never retire a replica and cannot show that cost. Wall clock is best
    of three per policy; the counter row's speedup is over spawned.
    """
    n, m = WEIGHTED_QUICK_N, WEIGHTED_QUICK_M
    graph, speeds, weights = _weighted_cell(n, m)

    def factory(rng):
        return WeightedState(place_weighted_random(m, n, rng), weights, speeds)

    def timed(policy):
        best_seconds, measurement = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            measurement = measure_convergence_rounds(
                graph,
                SelfishWeightedProtocol(),
                factory,
                NashStop(),
                repetitions=100,
                max_rounds=50_000,
                seed=42,
                rng_policy=policy,
            )
            best_seconds = min(best_seconds, time.perf_counter() - start)
        return measurement, best_seconds

    seconds = {}
    for policy in ("spawned", "counter"):
        measurement, seconds[policy] = timed(policy)
        assert measurement.all_converged
        # Replicas retire at different rounds: the stack goes sparse.
        assert np.unique(measurement.rounds).size > 1
    cell = "weighted-nash ring(16) m=8n reps=100 retiring"
    record_bench(cell, "spawned", seconds["spawned"], 1.0, baseline="spawned")
    record_bench(
        cell,
        "counter",
        seconds["counter"],
        seconds["spawned"] / seconds["counter"],
        baseline="spawned",
    )


@pytest.mark.slow
def test_speedup_at_100_repetitions(torus36):
    """Acceptance: >= 5x wall-clock at 100 repetitions on the quick cell.

    Times the full ensemble measurement (Psi_0 <= 4 psi_c from an
    adversarial start, as in the Table 1 quick cell) through both
    engines with identical seeds.
    """
    n = torus36.num_vertices
    m = 8 * n * n
    speeds = uniform_speeds(n)
    lambda2 = algebraic_connectivity(torus36)
    threshold = 4.0 * psi_critical(n, torus36.max_degree, lambda2, 1.0)

    def factory(rng):
        return UniformState(adversarial_placement(speeds, m), speeds)

    common = dict(
        graph=torus36,
        protocol=SelfishUniformProtocol(),
        state_factory=factory,
        stopping=PotentialThresholdStop(threshold, "psi0"),
        repetitions=100,
        max_rounds=20_000,
        seed=42,
    )

    def timed(engine):
        # Best of two runs per engine: a single wall-clock sample is at
        # the mercy of noisy-neighbor CI runners.
        best_seconds, measurement = float("inf"), None
        for _ in range(2):
            start = time.perf_counter()
            measurement = measure_convergence_rounds(engine=engine, **common)
            best_seconds = min(best_seconds, time.perf_counter() - start)
        return measurement, best_seconds

    batch, batch_seconds = timed("batch")
    scalar, scalar_seconds = timed("scalar")

    assert batch.all_converged and scalar.all_converged
    # Identical seeds, identical migration law -> medians land together.
    assert batch.median_rounds == pytest.approx(scalar.median_rounds, rel=0.25)

    speedup = scalar_seconds / batch_seconds
    record_bench(
        "uniform-measurement torus36 m=8n^2 reps=100",
        "spawned",
        batch_seconds,
        speedup,
        baseline="scalar loop",
    )
    assert speedup >= 5.0, (
        f"batched engine only {speedup:.1f}x faster "
        f"({batch_seconds:.2f}s vs {scalar_seconds:.2f}s)"
    )
