"""Golden outputs of the migration kernels.

The scalar kernels and the spawned batch kernels read one shared
migration table per algorithm, so the pathwise ``scalar == batch`` tests
can no longer notice a change to the table itself: both sides would move
together. These constants were recorded before the kernels shared their
tables. A change to a migration formula, to its clipping, or to the
order or count of the draws moves them. The counter kernel reads the
same weighted table and is pinned here too, at the default and at a
clipping ``alpha``.

The graph is a 3x3 torus plus one isolated node with mixed speeds, and
the weighted replicas carry different task counts, so both the padded
stack and the no-neighbour paths of every kernel are exercised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import measure_convergence_rounds
from repro.core.protocols import (
    PerTaskThresholdProtocol,
    SelfishUniformProtocol,
    SelfishWeightedProtocol,
)
from repro.core.stopping import NashStop
from repro.graphs.generators import torus_graph
from repro.graphs.graph import Graph
from repro.model.batch import BatchWeightedState
from repro.model.placement import place_weighted_random, random_placement
from repro.model.state import UniformState, WeightedState
from repro.utils.rng import spawn_rngs

SPEEDS = np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
UNIT_SPEEDS = np.ones(SPEEDS.size)

PROTOCOLS = {
    "flow": lambda alpha=None: SelfishWeightedProtocol(alpha, rule="flow"),
    "pseudocode": lambda alpha=None: SelfishWeightedProtocol(
        alpha, rule="pseudocode"
    ),
    "per-task": lambda alpha=None: PerTaskThresholdProtocol(alpha),
}


@pytest.fixture(scope="module")
def graph():
    """A 3x3 torus with a tenth, isolated node."""
    return Graph(10, torus_graph(3).edges, name="torus9+isolated")


def _weighted_state(rng, speeds=SPEEDS):
    num_tasks = int(rng.integers(18, 30))
    weights = rng.uniform(0.2, 1.0, size=num_tasks)
    locations = place_weighted_random(num_tasks, speeds.size, rng)
    return WeightedState(locations, weights, speeds)


def _unit_speed_weighted_state(rng):
    return _weighted_state(rng, UNIT_SPEEDS)


def _uniform_state(rng):
    return UniformState(random_placement(SPEEDS.size, 60, rng), SPEEDS)


class TestWeightedStopRounds:
    """NashStop first-hitting rounds, 6 spawned replicas, seed 2024.

    The pseudocode rule runs on unit speeds: with mixed speeds its
    weight-gap probability vanishes on edges the load condition still
    admits, and no replica reaches NashStop.
    """

    GOLDEN = {
        "flow": (133.0, 88.0, 49.0, 159.0, 277.0, 124.0),
        "pseudocode": (46.0, 82.0, 36.0, 46.0, 36.0, 9.0),
        "per-task": (118.0, 66.0, 20.0, 145.0, 136.0, 200.0),
    }

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    @pytest.mark.parametrize("rule", sorted(GOLDEN))
    def test_stop_rounds(self, graph, rule, engine):
        measurement = measure_convergence_rounds(
            graph=graph,
            protocol=PROTOCOLS[rule](),
            state_factory=(
                _unit_speed_weighted_state
                if rule == "pseudocode"
                else _weighted_state
            ),
            stopping=NashStop(),
            repetitions=6,
            max_rounds=3000,
            seed=2024,
            engine=engine,
        )
        assert measurement.engine == engine
        assert tuple(measurement.repetition_rounds.tolist()) == self.GOLDEN[rule]


class TestCounterStopRounds:
    """The weighted stop-round cells under counter streams."""

    GOLDEN = {
        ("flow", None): (108.0, 99.0, 478.0, 221.0, 59.0, 83.0),
        ("flow", 0.3): (9.0, 6.0, 8.0, 14.0, 19.0, 7.0),
        ("per-task", None): (59.0, 87.0, 101.0, 119.0, 59.0, 88.0),
        ("per-task", 0.3): (14.0, 18.0, 127.0, 21.0, 140.0, 160.0),
        ("pseudocode", None): (40.0, 31.0, 39.0, 53.0, 45.0, 25.0),
        ("pseudocode", 0.3): (5.0, 15.0, 26.0, 8.0, 68.0, 11.0),
    }

    @pytest.mark.parametrize(
        "rule, alpha", sorted(GOLDEN, key=lambda key: (key[0], key[1] or 0))
    )
    def test_stop_rounds(self, graph, rule, alpha):
        measurement = measure_convergence_rounds(
            graph=graph,
            protocol=PROTOCOLS[rule](alpha),
            state_factory=(
                _unit_speed_weighted_state
                if rule == "pseudocode"
                else _weighted_state
            ),
            stopping=NashStop(),
            repetitions=6,
            max_rounds=3000,
            seed=2024,
            engine="batch",
            rng_policy="counter",
        )
        assert tuple(measurement.repetition_rounds.tolist()) == self.GOLDEN[
            (rule, alpha)
        ]


class TestClippedWeightedRounds:
    """Ablation ``alpha = 0.3``: probabilities clip, so rounds saturate.

    Pins, per round, each replica's ``saturated`` flag (as a ``0``/``1``
    string over the replicas) and the total number of tasks moved, for
    the spawned batch kernel and for the scalar kernel on the same
    streams.
    """

    ALPHA = 0.3
    ROUNDS = 12
    REPLICAS = 4
    GOLDEN = {
        "flow": (
            ("1111", 29), ("1111", 36), ("1111", 28), ("1101", 14),
            ("1001", 9), ("1001", 12), ("1001", 10), ("1001", 10),
            ("0001", 5), ("0001", 2), ("0001", 1), ("0001", 1),
        ),
        "pseudocode": (
            ("1111", 22), ("1111", 22), ("1111", 20), ("1001", 9),
            ("1101", 8), ("0001", 7), ("1000", 6), ("1000", 5),
            ("1000", 2), ("0000", 1), ("0000", 0), ("0000", 0),
        ),
        "per-task": (
            ("1111", 36), ("1111", 36), ("1111", 35), ("1111", 33),
            ("1111", 28), ("1111", 31), ("1111", 28), ("1111", 35),
            ("1111", 23), ("1110", 17), ("1110", 24), ("1111", 25),
        ),
    }

    def _states(self):
        return [_weighted_state(rng) for rng in spawn_rngs(31, self.REPLICAS)]

    @pytest.mark.parametrize("rule", sorted(GOLDEN))
    def test_batch_saturation_and_moves(self, graph, rule):
        batch = BatchWeightedState.from_states(self._states())
        rngs = spawn_rngs(77, self.REPLICAS)
        protocol = PROTOCOLS[rule](self.ALPHA)
        record = []
        for _ in range(self.ROUNDS):
            summary = protocol.execute_round_batch(batch, graph, rngs)
            flags = "".join("1" if s else "0" for s in summary.saturated)
            record.append((flags, int(summary.tasks_moved.sum())))
        assert tuple(record) == self.GOLDEN[rule]

    @pytest.mark.parametrize("rule", sorted(GOLDEN))
    def test_scalar_saturation_and_moves(self, graph, rule):
        states = self._states()
        rngs = spawn_rngs(77, self.REPLICAS)
        protocol = PROTOCOLS[rule](self.ALPHA)
        record = []
        for _ in range(self.ROUNDS):
            summaries = [
                protocol.execute_round(state, graph, rng)
                for state, rng in zip(states, rngs)
            ]
            flags = "".join("1" if s.saturated else "0" for s in summaries)
            record.append((flags, sum(s.tasks_moved for s in summaries)))
        assert tuple(record) == self.GOLDEN[rule]


class TestUniformStopRounds:
    """Algorithm 1 NashStop first-hitting rounds, 6 spawned replicas."""

    GOLDEN = {
        "batch": (75.0, 102.0, 61.0, 75.0, 163.0, 128.0),
        "scalar": (57.0, 180.0, 64.0, 109.0, 75.0, 138.0),
    }

    @pytest.mark.parametrize("engine", sorted(GOLDEN))
    def test_stop_rounds(self, graph, engine):
        measurement = measure_convergence_rounds(
            graph=graph,
            protocol=SelfishUniformProtocol(),
            state_factory=_uniform_state,
            stopping=NashStop(),
            repetitions=6,
            max_rounds=3000,
            seed=99,
            engine=engine,
        )
        assert measurement.engine == engine
        assert tuple(measurement.repetition_rounds.tolist()) == self.GOLDEN[engine]
