"""Protocol pickling and the batch kernels' reused buffers.

The weighted counter round writes its ``(A, M)`` integer and mask
blocks, and the uniform batch round its ``(A, n, Delta + 1)``
multinomial layout, into a per-protocol workspace that outlives the
round. A reused instance must therefore produce exactly what a fresh
one does, whatever stack shape or graph the previous round saw. The
workspace is the protocol's only derived state: a pickled protocol
drops it and rebuilds it empty. A protocol keeps nothing per graph; the
kernels' lookup tables live on the graph itself.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.convergence import measure_convergence_rounds
from repro.core.protocols import (
    PerTaskThresholdProtocol,
    Protocol,
    SelfishUniformProtocol,
    SelfishWeightedProtocol,
)
from repro.core.reference import ReferenceUniformProtocol
from repro.core.sequential import SequentialBestResponse
from repro.core.stopping import NashStop
from repro.diffusion.discrete import RandomizedRoundingProtocol, RoundedFlowProtocol
from repro.diffusion.matchings import DimensionExchangeProtocol
from repro.graphs.generators import complete_graph, cycle_graph, torus_graph
from repro.graphs.graph import Graph
from repro.model.batch import BatchUniformState, BatchWeightedState
from repro.model.placement import place_weighted_random, random_placement
from repro.model.speeds import two_class_speeds
from repro.model.state import UniformState, WeightedState
from repro.utils.rng import CounterStreams, spawn_rngs

ALL_PROTOCOLS = {
    "uniform": SelfishUniformProtocol,
    "weighted": SelfishWeightedProtocol,
    "per-task": PerTaskThresholdProtocol,
    "reference": ReferenceUniformProtocol,
    "sequential": SequentialBestResponse,
    "rounded-flow": RoundedFlowProtocol,
    "randomized-rounding": RandomizedRoundingProtocol,
    "dimension-exchange": DimensionExchangeProtocol,
}



def _concrete_protocols(cls=Protocol):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _concrete_protocols(sub)


def test_every_protocol_class_is_covered():
    assert set(_concrete_protocols()) == set(ALL_PROTOCOLS.values())


def _graph():
    return torus_graph(3)


def _weighted_state(rng):
    speeds = two_class_speeds(9, 0.3, 2.0)
    num_tasks = int(rng.integers(20, 30))
    return WeightedState(
        place_weighted_random(num_tasks, 9, rng),
        rng.uniform(0.2, 1.0, size=num_tasks),
        speeds,
    )


def _uniform_state(rng):
    return UniformState(random_placement(9, 60, rng), two_class_speeds(9, 0.3, 2.0))


def _counter_stop_rounds(protocol, factory):
    return measure_convergence_rounds(
        graph=_graph(),
        protocol=protocol,
        state_factory=factory,
        stopping=NashStop(),
        repetitions=5,
        max_rounds=3000,
        seed=11,
        engine="batch",
        rng_policy="counter",
    ).repetition_rounds


class TestPickle:
    @pytest.mark.parametrize("name", sorted(ALL_PROTOCOLS))
    def test_round_trip_drops_derived_state(self, name):
        protocol = ALL_PROTOCOLS[name]()
        graph = torus_graph(6)
        rng = np.random.default_rng(2)
        if name in ("weighted", "per-task"):
            nodes = place_weighted_random(100, 36, rng)
            state = WeightedState(nodes, rng.uniform(0.2, 1.0, 100), np.ones(36))
        else:
            state = UniformState(random_placement(36, 300, rng), np.ones(36))
        protocol.execute_round(state, graph, np.random.default_rng(3))
        payload = pickle.dumps(protocol)
        for array in (graph.indices, graph.kernel_tables.csr_rows):
            assert array.tobytes() not in payload
        clone = pickle.loads(payload)
        assert type(clone) is type(protocol)
        assert clone._workspace._buffers == {}
        assert set(vars(clone)) == set(vars(protocol))
        assert pickle.dumps(clone) == payload

    @pytest.mark.parametrize(
        "protocol, factory",
        [
            (SelfishUniformProtocol(), _uniform_state),
            (SelfishWeightedProtocol(), _weighted_state),
            (SelfishWeightedProtocol(0.3, rule="pseudocode"), _weighted_state),
            (PerTaskThresholdProtocol(), _weighted_state),
        ],
        ids=["uniform", "flow", "pseudocode-clipped", "per-task"],
    )
    def test_unpickled_protocol_reproduces_counter_run(self, protocol, factory):
        rounds = _counter_stop_rounds(protocol, factory)
        clone = pickle.loads(pickle.dumps(protocol))
        np.testing.assert_array_equal(_counter_stop_rounds(clone, factory), rounds)

    def test_pickle_carries_no_workspace_buffer(self):
        protocol = SelfishWeightedProtocol()
        _counter_stop_rounds(protocol, _weighted_state)
        buffers = protocol._workspace._buffers
        assert buffers, "the counter kernel did not use the workspace"
        held = sum(buffer.nbytes for buffer in buffers.values())
        assert len(pickle.dumps(protocol)) < held


def _weighted_stack(graph, num_replicas, task_range, seed):
    speeds = two_class_speeds(graph.num_vertices, 0.3, 2.0)
    states = []
    for rng in spawn_rngs(seed, num_replicas):
        num_tasks = int(rng.integers(*task_range))
        states.append(
            WeightedState(
                place_weighted_random(num_tasks, graph.num_vertices, rng),
                rng.uniform(0.1, 1.0, size=num_tasks),
                speeds,
            )
        )
    return BatchWeightedState.from_states(states)


def _uniform_stack(graph, num_replicas, task_range, seed):
    speeds = two_class_speeds(graph.num_vertices, 0.3, 2.0)
    return BatchUniformState.from_states(
        [
            UniformState(
                random_placement(
                    graph.num_vertices, int(rng.integers(*task_range)) * 4, rng
                ),
                speeds,
            )
            for rng in spawn_rngs(seed, num_replicas)
        ]
    )


# Each phase: (graph, replicas, task-count range, active masks per round).
# The active set shrinks within the first phase, the second is wider
# (larger M, and a larger maximum degree), and the third runs on a
# different graph with an isolated node, so the workspace's views
# shrink, grow and change meaning.
PHASES = (
    (
        torus_graph(3),
        6,
        (10, 20),
        [None, [1, 1, 1, 1, 1, 0], [1, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 0]],
    ),
    (complete_graph(9), 5, (60, 90), [None, [0, 1, 1, 1, 1], None]),
    (
        Graph(12, cycle_graph(11).edges, name="cycle11+isolated"),
        4,
        (30, 50),
        [None, [1, 1, 0, 1], None],
    ),
)


def _assert_reuse_matches_fresh(make, stack, policy):
    """Drive one instance through every phase beside a fresh one per round."""
    shared = make()
    round_index = 0
    for phase, (graph, replicas, task_range, actives) in enumerate(PHASES):
        reused = stack(graph, replicas, task_range, seed=100 + phase)
        fresh = reused.copy()
        rngs = {id(reused): spawn_rngs(9, replicas), id(fresh): spawn_rngs(9, replicas)}
        moved = 0
        for active in actives:
            mask = None if active is None else np.asarray(active, dtype=bool)
            summaries = []
            for protocol, batch in ((shared, reused), (make(), fresh)):
                if policy == "counter":
                    streams = CounterStreams(5, replicas)
                    streams.begin_round(round_index)
                else:
                    streams = rngs[id(batch)]
                summaries.append(
                    protocol.execute_round_batch(batch, graph, streams, mask)
                )
            for field in ("tasks_moved", "weight_moved", "saturated"):
                np.testing.assert_array_equal(
                    getattr(summaries[0], field), getattr(summaries[1], field)
                )
            state = "task_nodes" if hasattr(reused, "task_nodes") else "counts"
            np.testing.assert_array_equal(
                getattr(reused, state), getattr(fresh, state)
            )
            moved += int(summaries[0].tasks_moved.sum())
            round_index += 1
        assert moved > 0


@pytest.mark.parametrize("alpha", [None, 0.3], ids=["default", "clipped"])
@pytest.mark.parametrize(
    "make",
    [SelfishWeightedProtocol, PerTaskThresholdProtocol],
    ids=["algorithm2", "per-task"],
)
def test_reused_weighted_workspace_matches_fresh_instance(make, alpha):
    _assert_reuse_matches_fresh(lambda: make(alpha), _weighted_stack, "counter")


@pytest.mark.parametrize("policy", ["spawned", "counter"])
@pytest.mark.parametrize("alpha", [None, 0.3], ids=["default", "clipped"])
def test_reused_uniform_workspace_matches_fresh_instance(policy, alpha):
    _assert_reuse_matches_fresh(
        lambda: SelfishUniformProtocol(alpha), _uniform_stack, policy
    )
