"""Bench: fused-kernel backends vs the plain-numpy counter path.

Not a paper artifact — the perf trajectory of the backend seam. The
acceptance cell is the heavy-m weighted configuration (ring(8), m=1500,
R=256, counter streams) that motivated the tentpole: the numpy counter
path builds ~10 intermediate (R, M) temporaries per round to resolve
the per-task slot choice + migration Bernoulli, while the numba
``weighted_migrate`` kernel fuses all of it into one
``@njit(parallel=True)`` pass over the replica axis. The pin is a
>= 1.5x per-round speedup over the numpy backend on the same streams
(both rows land in ``BENCH.json`` tagged with their backend).

Without the ``jit`` extra the acceptance test *skips* (the
``requires_numba`` marker) — a minimal checkout stays green and the
trajectory simply gains no numba row until the extra is installed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import record_bench
from repro.backends import resolve_backend
from repro.core.protocols import SelfishWeightedProtocol
from repro.graphs.generators import cycle_graph
from repro.model.batch import BatchWeightedState
from repro.model.placement import place_weighted_random
from repro.model.speeds import two_class_speeds
from repro.model.state import WeightedState
from repro.model.tasks import two_class_weights
from repro.utils.rng import CounterStreams, spawn_rngs

#: The heavy-m weighted acceptance cell (mirrors weighted_variants).
HEAVY_N = 8
HEAVY_M = 1500
HEAVY_REPLICAS = 256


def _heavy_states(replicas=HEAVY_REPLICAS, seed=7):
    n, m = HEAVY_N, HEAVY_M
    graph = cycle_graph(n)
    speeds = two_class_speeds(n, fast_fraction=0.25, fast_speed=2.0)
    weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)
    states = [
        WeightedState(place_weighted_random(m, n, rng), weights, speeds)
        for rng in spawn_rngs(seed, replicas)
    ]
    return graph, states


def _timed_per_round(backend, graph, states, rounds=30, repeats=2):
    """Best-of-``repeats`` per-round wall clock through ``backend``."""
    protocol = SelfishWeightedProtocol()
    replicas = len(states)
    best = float("inf")
    for _ in range(repeats):
        batch = BatchWeightedState.from_states(states)
        streams = CounterStreams(7, replicas)
        # One untimed round warms every cache on the path (graph tables,
        # allocator, and — decisively for numba — JIT compilation).
        streams.begin_round(0)
        protocol.execute_round_batch(batch, graph, streams, None, backend=backend)
        start = time.perf_counter()
        for round_index in range(1, rounds + 1):
            streams.begin_round(round_index)
            protocol.execute_round_batch(
                batch, graph, streams, None, backend=backend
            )
        best = min(best, (time.perf_counter() - start) / rounds)
    return best


@pytest.mark.slow
@pytest.mark.requires_numba
def test_numba_weighted_per_round_speedup():
    """Acceptance: numba >= 1.5x per-round on (ring(8), m=1500, R=256).

    Same counter streams, same seeds, same replica stack — the only
    difference is whether the per-task resolve runs through the fused
    ``weighted_migrate`` kernel or the plain-numpy expressions. Both
    backends' measurements are law-equivalent (pinned in
    ``tests/test_backends.py``); this test pins the speed and records
    the trajectory rows.
    """
    graph, states = _heavy_states()
    numpy_backend = resolve_backend("numpy")
    numba_backend = resolve_backend("numba", warn=False)
    assert numba_backend.name == "numba", "requires_numba marker leaked a skip"

    numpy_seconds = _timed_per_round(numpy_backend, graph, states)
    numba_seconds = _timed_per_round(numba_backend, graph, states)
    speedup = numpy_seconds / numba_seconds

    record_bench(
        "weighted-round ring(8) m=1500 R=256 counter",
        "counter",
        numpy_seconds,
        1.0,
        backend="numpy",
        baseline="numpy-backend counter per-round",
    )
    record_bench(
        "weighted-round ring(8) m=1500 R=256 counter",
        "counter",
        numba_seconds,
        speedup,
        backend="numba",
        baseline="numpy-backend counter per-round",
    )
    assert speedup >= 1.5, (
        f"numba backend only {speedup:.2f}x faster per round "
        f"({numba_seconds * 1e3:.2f}ms vs {numpy_seconds * 1e3:.2f}ms)"
    )


@pytest.mark.slow
@pytest.mark.requires_numba
def test_numba_measurement_matches_law_at_speed():
    """The accelerated measurement converges to the same verdicts.

    A coarse end-to-end guard alongside the per-round pin: the numba
    backend's heavy-m measurement must converge every repetition and
    report the same convergence verdict set as numpy (law-level; the
    KS contract lives in ``tests/test_backends.py``).
    """
    from repro.experiments._common import measure_weighted_threshold_time

    reference = measure_weighted_threshold_time(
        "ring", 8, 8.0, repetitions=4, seed=31, rng_policy="counter"
    )
    accelerated = measure_weighted_threshold_time(
        "ring", 8, 8.0, repetitions=4, seed=31, rng_policy="counter",
        backend="numba",
    )
    assert accelerated.num_converged == reference.num_converged
    assert np.isfinite(accelerated.repetition_rounds).all()
