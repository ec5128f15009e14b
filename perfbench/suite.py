"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed alone (the
constructor is the timed set-up), hands fresh per-iteration arguments
to one public entry point of the simulator (``call``, the timed
region), and checks the output with law-level invariants that hold on
any sample path, so a refactor that keeps the law passes unchanged.

Why these four:

* ``weighted-nash-counter`` — the paper's general setting (weights and
  speeds) run to the threshold Nash state under the Philox counter
  streams. Replicas retire at different rounds, so the active stack
  goes sparse: the one workload where the counter-stream fill layer
  carries a large share.
* ``table1-approx-sweep`` — how Table 1 is regenerated: the serial
  executor over the quick approximate-NE grid (degrees 2 to 31) with
  spawned streams. Uniform kernel, the Psi_0 stopping rule, per-cell
  spectral quantities and executor overhead; no counter fills and no
  events, so stream and event changes must leave it unchanged.
* ``churn-shock-weighted`` — the write-heavy scenario: Poisson churn
  every round plus a load shock, with full recording. Tasks arrive,
  depart and relocate beside the migration kernel.
* ``trace-replay-counter`` — a million-event compiled workload trace
  replayed through the streaming recorder under counter streams: trace
  generation and compilation, deterministic trace events, streaming
  recording and the uniform counter multinomial.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

import numpy as np

from repro.analysis import convergence
from repro.core.batch import BatchSimulator
from repro.core.protocols import SelfishUniformProtocol, SelfishWeightedProtocol
from repro.core.stopping import NashStop
from repro.experiments import executor
from repro.experiments._common import APPROX_SWEEP_QUICK, weighted_variant_setup
from repro.graphs.families import get_family
from repro.model.batch import BatchUniformState
from repro.model.placement import place_weighted_random, random_placement
from repro.model.state import WeightedState
from repro.model.tasks import two_class_weights
from repro.scenarios import (
    LoadShock,
    PoissonChurnEvent,
    ScenarioRunner,
    Schedule,
    StreamingRecording,
    at,
    every,
)
from repro.utils.rng import spawn_rngs
from repro.workloads import build_workload, compile_trace, task_timeline

# A lost or duplicated task moves a total by at least the lightest
# weight (0.1); summation-order round-off stays far below this.
_WEIGHT_TOLERANCE = 1e-9


def _digest(*arrays: object) -> str:
    """Stable hash of output arrays (informational, never gated)."""
    sha = hashlib.sha256()
    for array in arrays:
        value = np.ascontiguousarray(array)
        sha.update(f"{value.dtype.str}{value.shape}".encode())
        sha.update(value.tobytes())
    return sha.hexdigest()[:16]


@contextmanager
def _captured_batch_runs():
    """Collect the results of every ``BatchSimulator.run`` in the block.

    ``measure_convergence_rounds`` returns stop rounds only; the checks
    also need the final replica stack it ran.
    """
    results: list = []
    inner = BatchSimulator.__dict__["run"]

    def run(self, *args, **kwargs):
        result = inner(self, *args, **kwargs)
        results.append(result)
        return result

    BatchSimulator.run = run
    try:
        yield results
    finally:
        BatchSimulator.run = inner


class WeightedNashCounter:
    name = "weighted-nash-counter"
    full = {"n": 64, "replicas": 64}
    tiny = {"n": 16, "replicas": 8}

    def __init__(self, seed: int, n: int, replicas: int):
        # The weighted-variants flow cell: two-class speeds (25% at
        # speed 2), two-class weights (10% heavy), m = 8n tasks, all on
        # node 0.
        self.graph, self.protocol, self.factory = weighted_variant_setup(
            "torus", n, 8.0, "flow"
        )
        self.seed = seed
        self.replicas = replicas
        self.initial_weights = np.sort(self.factory(None).task_weights)
        self.setup_facts: dict[str, float] = {}

    def fresh(self) -> tuple:
        return ()

    def call(self):
        with _captured_batch_runs() as runs:
            measurement = convergence.measure_convergence_rounds(
                self.graph,
                self.protocol,
                self.factory,
                NashStop(),
                repetitions=self.replicas,
                max_rounds=20_000,
                seed=self.seed,
                rng_policy="counter",
            )
        return measurement, runs[-1].final_state

    def checks(self, output) -> dict[str, bool]:
        measurement, final = output
        rows = np.arange(final.num_replicas)
        weights = np.sort(final.task_weights, axis=1)[:, -self.initial_weights.size :]
        return {
            "all replicas converged": measurement.all_converged,
            "final states are Nash": bool(
                NashStop().satisfied_batch(final, self.graph, rows).all()
            ),
            "task weights conserved": bool(
                np.all(final.num_tasks == self.initial_weights.size)
                and np.array_equal(
                    weights, np.broadcast_to(self.initial_weights, weights.shape)
                )
            ),
        }

    def work(self, output) -> dict[str, float]:
        measurement, _ = output
        return {
            "replica_rounds": float(np.nansum(measurement.repetition_rounds)),
            "cells": 1.0,
            "task_events": 0.0,
        }

    def digest(self, output) -> str:
        return _digest(output[0].repetition_rounds)


class Table1ApproxSweep:
    name = "table1-approx-sweep"
    full = {"replicas": 16, "sweep": APPROX_SWEEP_QUICK}
    tiny = {"replicas": 2, "sweep": {"complete": [8], "ring": [8]}}

    def __init__(self, seed: int, replicas: int, sweep: dict):
        self.specs = executor.sweep_specs(
            "approx", sweep, m_factor=8.0, repetitions=replicas, seed=seed
        )
        self.setup_facts: dict[str, float] = {}

    def fresh(self) -> tuple:
        return ()

    def call(self):
        return executor.execute_cells_report(self.specs, workers=1)

    def checks(self, output) -> dict[str, bool]:
        results = {}
        for cell in output.results:
            label = f"{cell.family}-{cell.n}"
            results[f"{label} converged"] = cell.num_converged == cell.num_repetitions
            results[f"{label} within bound"] = cell.median_rounds <= cell.bound_rounds
        return results

    def work(self, output) -> dict[str, float]:
        return {
            "replica_rounds": float(
                sum(np.nansum(cell.repetition_rounds) for cell in output.results)
            ),
            "cells": float(len(output.results)),
            "task_events": 0.0,
        }

    def digest(self, output) -> str:
        return _digest(*(np.asarray(cell.repetition_rounds) for cell in output.results))


class ChurnShockWeighted:
    name = "churn-shock-weighted"
    full = {"n": 36, "replicas": 16, "horizon": 300}
    tiny = {"n": 9, "replicas": 4, "horizon": 70}

    def __init__(self, seed: int, n: int, replicas: int, horizon: int):
        # The scenario-recovery weighted cell: m = 8n two-class tasks at
        # random nodes, churn every round, half the tasks shocked onto
        # node 0 at round 60.
        graph = get_family("torus").make(n)
        n = graph.num_vertices
        m = 8 * n
        weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)
        speeds = np.ones(n)

        def factory(rng):
            return WeightedState(place_weighted_random(m, n, rng), weights, speeds)

        schedule = Schedule(
            [
                every(1, PoissonChurnEvent(1.0, weight=0.5)),
                at(60, LoadShock(0.5, node=0)),
            ]
        )
        self.runner = ScenarioRunner(
            graph, SelfishWeightedProtocol(), schedule, target=NashStop()
        )
        self.factory = factory
        self.seed = seed
        self.replicas = replicas
        self.horizon = horizon
        self.initial_tasks = m
        self.initial_weight = float(weights.sum())
        self.setup_facts: dict[str, float] = {}

    def fresh(self) -> tuple:
        return ()

    def call(self):
        return self.runner.run_ensemble(
            self.factory,
            repetitions=self.replicas,
            rounds=self.horizon,
            seed=self.seed,
        )

    def checks(self, output) -> dict[str, bool]:
        # Row t is recorded before round t's events, so it holds the
        # initial totals plus every event of rounds < t.
        tasks = np.zeros(output.num_tasks.shape, dtype=np.int64)
        weight = np.zeros(output.total_weight.shape)
        for record in output.events:
            tasks[record.round_index + 1] += record.tasks_added - record.tasks_removed
            weight[record.round_index + 1] += record.weight_added - record.weight_removed
        expected_tasks = self.initial_tasks + np.cumsum(tasks, axis=0)
        expected_weight = self.initial_weight + np.cumsum(weight, axis=0)
        return {
            "full horizon ran": output.rounds_executed == self.horizon,
            "task counts match events": bool(
                np.array_equal(output.num_tasks, expected_tasks)
            ),
            "total weight matches events": bool(
                np.all(np.abs(output.total_weight - expected_weight) <= _WEIGHT_TOLERANCE)
            ),
        }

    def work(self, output) -> dict[str, float]:
        return {
            "replica_rounds": float(output.rounds_executed * output.num_replicas),
            "cells": 1.0,
            "task_events": float(
                sum(
                    int(record.tasks_added.sum() + record.tasks_removed.sum())
                    for record in output.events
                )
            ),
        }

    def digest(self, output) -> str:
        return _digest(output.num_tasks, output.total_weight, output.psi0)


class TraceReplayCounter:
    name = "trace-replay-counter"
    full = {"replicas": 10, "horizon": 2000}
    tiny = {"replicas": 4, "horizon": 50}

    INITIAL_TASKS = 2_000
    # The trace is a fixed input, the one the million-task acceptance
    # benchmark replays; the seed picks the initial placements and the
    # counter streams. Traces of different seeds differ by a fifth in
    # replay cost, which would swamp the run-to-run comparison.
    TRACE_SEED = 4

    def __init__(self, seed: int, replicas: int, horizon: int):
        graph = get_family("fat-tree").make(20)
        n = graph.num_vertices
        start = time.perf_counter()
        self.trace = build_workload(
            "mmpp-flash",
            num_nodes=n,
            horizon=horizon,
            seed=self.TRACE_SEED,
            initial_tasks=self.INITIAL_TASKS,
            rate_low=200.0,
            rate_high=500.0,
            crowds=4,
        )
        generated = time.perf_counter()
        schedule = compile_trace(self.trace)
        compiled = time.perf_counter()
        self.runner = ScenarioRunner(graph, SelfishUniformProtocol(), schedule)
        self.stack = BatchUniformState(
            np.stack(
                [
                    random_placement(n, self.INITIAL_TASKS, rng)
                    for rng in spawn_rngs(seed, replicas)
                ]
            ),
            np.ones(n),
        )
        self.expected_final = int(task_timeline(self.trace)[-1])
        self.seed = seed
        self.horizon = horizon
        self.setup_facts = {
            "workloads.generate_s": generated - start,
            "workloads.compile_s": compiled - generated,
            "workloads.task_events": float(self.trace.num_task_events),
        }

    def fresh(self) -> tuple:
        return (self.stack.copy(),)

    def call(self, batch):
        return self.runner.run_batch(
            batch,
            self.horizon,
            seed=self.seed,
            rng_policy="counter",
            recording=StreamingRecording(thin_every=4, chunk_rounds=64),
        )

    def checks(self, output) -> dict[str, bool]:
        return {
            "full horizon ran": output.rounds_executed == self.horizon,
            "final task counts match the trace": bool(
                np.all(output.observables["num_tasks"].last == self.expected_final)
                and np.all(output.final_state.num_tasks == self.expected_final)
            ),
        }

    def work(self, output) -> dict[str, float]:
        totals = output.event_totals.values()
        return {
            "replica_rounds": float(output.rounds_executed * output.num_replicas),
            "cells": 1.0,
            "task_events": float(
                sum(int(t.tasks_added.sum() + t.tasks_removed.sum()) for t in totals)
            ),
        }

    def digest(self, output) -> str:
        return _digest(output.final_state.counts, output.observables["psi0"].mean)


WORKLOADS = {
    cls.name: cls
    for cls in (WeightedNashCounter, Table1ApproxSweep, ChurnShockWeighted, TraceReplayCounter)
}
