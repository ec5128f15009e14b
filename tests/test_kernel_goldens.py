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

``ROUND_GOLDEN`` pins every output of single weighted batch rounds:
per round, the replicas' ``saturated`` flags, ``tasks_moved``, the bits
of ``weight_moved`` and a digest of ``task_nodes``/``task_mask``, for
each rule, alpha, stream policy and stack layout. After a deliberate
kernel change, print the new table with::

    PYTHONPATH=src python tests/test_kernel_goldens.py

paste it over ``ROUND_GOLDEN`` and say in CHANGES.md which entries moved
and why.
"""

from __future__ import annotations

import hashlib

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
from repro.utils.rng import CounterStreams, spawn_rngs

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


#: The round goldens' cases: rule x alpha x stream policy x stack.
ROUND_ALPHAS = (None, 0.3)
ROUND_POLICIES = ("spawned", "counter")
#: ``rectangular``: every slot live, so the kernels take the ``(R, M)``
#: block layout. ``holes``: replicas 0 and 2 lost tasks mid-row, so the
#: kernels take the live-task list. ``partial``: the holes stack under
#: an ``active`` mask that alternates between a subset with holes (the
#: list layout) and the two full replicas (the block layout on a row
#: subset).
ROUND_STACKS = ("rectangular", "holes", "partial")
ROUND_REPLICAS = 4
ROUND_TASKS = 30
ROUNDS = 6
PARTIAL_ACTIVE = (
    np.array([True, False, True, True]),
    np.array([False, True, False, True]),
)


def _digest(*arrays: object) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        value = np.ascontiguousarray(array)
        sha.update(f"{value.dtype.str}{value.shape}".encode())
        sha.update(value.tobytes())
    return sha.hexdigest()[:16]


def _round_stack(stack: str) -> BatchWeightedState:
    """Four replicas of 30 tasks piled on torus nodes 0 and 4 and on the
    isolated node 9, so many tasks move in the first rounds and some
    never can; the holes stacks drop five tasks mid-row."""
    states = []
    for rng in spawn_rngs(5, ROUND_REPLICAS):
        weights = rng.uniform(0.2, 1.0, size=ROUND_TASKS)
        locations = rng.choice([0, 4, 9], size=ROUND_TASKS, p=[0.5, 0.3, 0.2])
        states.append(WeightedState(locations, weights, SPEEDS))
    batch = BatchWeightedState.from_states(states)
    if stack != "rectangular":
        batch.remove_tasks([0, 0, 2, 2, 2], [1, 9, 0, 4, 23])
    return batch


def round_path(graph, rule: str, alpha, policy: str, stack: str) -> list[list]:
    """``[saturated flags, tasks_moved, weight_moved bits, state digest]``
    after each of ``ROUNDS`` batch rounds."""
    batch = _round_stack(stack)
    protocol = PROTOCOLS[rule](alpha)
    if policy == "counter":
        streams = CounterStreams(77, ROUND_REPLICAS)
    else:
        streams = spawn_rngs(77, ROUND_REPLICAS)
    path = []
    for round_index in range(ROUNDS):
        if policy == "counter":
            streams.begin_round(round_index)
        active = (
            PARTIAL_ACTIVE[round_index % 2] if stack == "partial" else None
        )
        summary = protocol.execute_round_batch(batch, graph, streams, active)
        path.append(
            [
                "".join("1" if flag else "0" for flag in summary.saturated),
                summary.tasks_moved.tolist(),
                [float(weight).hex() for weight in summary.weight_moved],
                _digest(batch.task_nodes, batch.task_mask),
            ]
        )
    return path


def _round_key(rule: str, alpha, policy: str, stack: str) -> str:
    return f"{rule}/{alpha or 'default'}/{policy}/{stack}"


ROUND_CASES = [
    (rule, alpha, policy, stack)
    for rule in PROTOCOLS
    for alpha in ROUND_ALPHAS
    for policy in ROUND_POLICIES
    for stack in ROUND_STACKS
]

ROUND_GOLDEN: dict[str, list[list]] = {
    "flow/default/spawned/rectangular": [
        ["0000", [1, 0, 2, 1], ["0x1.302ae9caca8bap-1", "0x0.0p+0", "0x1.1cca30886164cp+0", "0x1.ff88ffb859010p-2"], "06e1708808dd7d3d"],
        ["0000", [0, 1, 2, 0], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x1.f5d4a56a89564p-1", "0x0.0p+0"], "45d57b94513541c9"],
        ["0000", [1, 1, 2, 2], ["0x1.bb9958e2e95b7p-3", "0x1.e1814829a7a66p-1", "0x1.091704a240eccp+0", "0x1.426d8881a2651p+0"], "98495a5eb29b5304"],
        ["0000", [0, 1, 1, 1], ["0x0.0p+0", "0x1.9c2f013b52b0ap-2", "0x1.5a1c779bd937ap-2", "0x1.eb757b1aeb044p-3"], "0251cdd6f08d153f"],
        ["0000", [1, 2, 2, 0], ["0x1.fd71353347658p-1", "0x1.fd88960fada0ep-1", "0x1.363c81e91c00cp+0", "0x0.0p+0"], "066299cfd17e50c1"],
        ["0000", [2, 2, 0, 0], ["0x1.addf9917883e4p-1", "0x1.22b9f05a5061dp+0", "0x0.0p+0", "0x0.0p+0"], "68c5866ef364c264"],
    ],
    "flow/default/spawned/holes": [
        ["0000", [2, 0, 1, 1], ["0x1.9f8acc18207f0p-1", "0x0.0p+0", "0x1.dbfa34ccee1aep-1", "0x1.ff88ffb859010p-2"], "4fcc22e4e41bd090"],
        ["0000", [0, 1, 2, 0], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x1.3e3d2a61f0cedp+0", "0x0.0p+0"], "459972ae2f32a6ff"],
        ["0000", [1, 1, 1, 2], ["0x1.20c611c611cd0p-2", "0x1.e1814829a7a66p-1", "0x1.d8179d92bb38ap-2", "0x1.426d8881a2651p+0"], "3d1f72ee1dfccf6f"],
        ["0000", [0, 1, 0, 1], ["0x0.0p+0", "0x1.9c2f013b52b0ap-2", "0x0.0p+0", "0x1.eb757b1aeb044p-3"], "bbe75e13394e3d77"],
        ["0000", [0, 2, 0, 0], ["0x0.0p+0", "0x1.fd88960fada0ep-1", "0x0.0p+0", "0x0.0p+0"], "590c5efaaa6af71a"],
        ["0000", [1, 2, 0, 0], ["0x1.a5d54743fe544p-1", "0x1.22b9f05a5061dp+0", "0x0.0p+0", "0x0.0p+0"], "27572852be6c8f52"],
    ],
    "flow/default/spawned/partial": [
        ["0000", [2, 0, 1, 1], ["0x1.9f8acc18207f0p-1", "0x0.0p+0", "0x1.dbfa34ccee1aep-1", "0x1.ff88ffb859010p-2"], "4fcc22e4e41bd090"],
        ["0000", [0, 0, 0, 0], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"], "4fcc22e4e41bd090"],
        ["0000", [0, 0, 2, 2], ["0x0.0p+0", "0x0.0p+0", "0x1.3e3d2a61f0cedp+0", "0x1.426d8881a2651p+0"], "ee0d13709a9dea1c"],
        ["0000", [0, 1, 0, 1], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x0.0p+0", "0x1.eb757b1aeb044p-3"], "66d6d94f143b8ea3"],
        ["0000", [1, 0, 1, 0], ["0x1.20c611c611cd0p-2", "0x0.0p+0", "0x1.d8179d92bb38ap-2", "0x0.0p+0"], "1ce306441fd10f22"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.e1814829a7a66p-1", "0x0.0p+0", "0x0.0p+0"], "c054e824af08d83c"],
    ],
    "flow/default/counter/rectangular": [
        ["0000", [3, 1, 1, 2], ["0x1.d1898ee9c8572p+0", "0x1.1b30ec3e6c479p-1", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "37b53cb80da93fef"],
        ["0000", [3, 0, 3, 1], ["0x1.1bd10c2504eafp+0", "0x0.0p+0", "0x1.7e10f657608e0p+0", "0x1.ea34690cba2d4p-2"], "a5b7ba46e51b508e"],
        ["0000", [2, 1, 2, 1], ["0x1.664967f1fb65dp-1", "0x1.afc595db6c327p-2", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "5271e57e4766af66"],
        ["0000", [2, 1, 0, 0], ["0x1.594887f0972bbp+0", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "5344ad4673c3c56f"],
        ["0000", [1, 1, 0, 1], ["0x1.0b48772973d61p-1", "0x1.c4ead0472b85ep-1", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "0d574a04e191f80d"],
        ["0000", [0, 2, 1, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x1.f8e2fdbda0efap-3", "0x0.0p+0"], "dc7ceb643e19b966"],
    ],
    "flow/default/counter/holes": [
        ["0000", [3, 1, 1, 2], ["0x1.d1898ee9c8572p+0", "0x1.1b30ec3e6c479p-1", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "c370b95246747fa3"],
        ["0000", [3, 0, 2, 1], ["0x1.1bd10c2504eafp+0", "0x0.0p+0", "0x1.2789d8706a402p+0", "0x1.ea34690cba2d4p-2"], "518819e296ff3e46"],
        ["0000", [2, 1, 2, 1], ["0x1.664967f1fb65dp-1", "0x1.afc595db6c327p-2", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "c717b1139768eaf1"],
        ["0000", [2, 1, 0, 0], ["0x1.594887f0972bbp+0", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "f34dd5aedbdaa3a7"],
        ["0000", [1, 1, 0, 1], ["0x1.0b48772973d61p-1", "0x1.c4ead0472b85ep-1", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "896905d6b155bc08"],
        ["0000", [0, 2, 1, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x1.f8e2fdbda0efap-3", "0x0.0p+0"], "819b6f3aaf68db71"],
    ],
    "flow/default/counter/partial": [
        ["0000", [3, 0, 1, 2], ["0x1.d1898ee9c8572p+0", "0x0.0p+0", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "8d21213ed7d4d311"],
        ["0000", [0, 0, 0, 1], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ea34690cba2d4p-2"], "87d5c8d3ae9c1bb5"],
        ["0000", [2, 0, 2, 1], ["0x1.664967f1fb65dp-1", "0x0.0p+0", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "9adf8010b6d833f9"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "218b288c4f727c7a"],
        ["0000", [2, 0, 0, 1], ["0x1.7eb94925b9af9p-1", "0x0.0p+0", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "ad423c4fa97cde6c"],
        ["0000", [0, 2, 0, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x0.0p+0", "0x0.0p+0"], "ce0550b99445693e"],
    ],
    "flow/0.3/spawned/rectangular": [
        ["1111", [24, 26, 26, 23], ["0x1.888f37e20a25ep+3", "0x1.d3568d7e6e51ep+3", "0x1.e180903926ddap+3", "0x1.eb50e8c998a56p+3"], "5d102439b8fd1ee5"],
        ["1111", [15, 12, 17, 17], ["0x1.0f05a72035e8fp+3", "0x1.c7916a1bd8ea8p+2", "0x1.409b659e74670p+3", "0x1.704660888c3e8p+3"], "573f301375f6920a"],
        ["1111", [13, 12, 17, 10], ["0x1.e6b766a9a3b26p+2", "0x1.b7877c0b991efp+2", "0x1.3e5f40a59584dp+3", "0x1.d4d57dea10f21p+2"], "5e8931281a0e9d96"],
        ["1111", [3, 7, 16, 10], ["0x1.3efd8f30b97f6p+1", "0x1.fae38e3b8330ep+1", "0x1.3101ecd22f57bp+3", "0x1.9aa30705bc751p+2"], "74ab622df3bd40b6"],
        ["1111", [9, 9, 12, 9], ["0x1.1cb843f375d2bp+2", "0x1.43a840624377fp+2", "0x1.f2271efc877bfp+2", "0x1.9692c9771ff91p+2"], "a52de2f7bd82a196"],
        ["1111", [11, 10, 13, 6], ["0x1.5e93e55a6d34ap+2", "0x1.3e7d65aba6102p+2", "0x1.010f1990f0f13p+3", "0x1.17e83b9c4597cp+2"], "ebcad1be27a6e988"],
    ],
    "flow/0.3/spawned/holes": [
        ["1111", [23, 26, 23, 23], ["0x1.6ede14460af36p+3", "0x1.d3568d7e6e51ep+3", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "febd4f0f99ab408c"],
        ["1111", [18, 12, 18, 17], ["0x1.30464850a8690p+3", "0x1.c7916a1bd8ea8p+2", "0x1.5bfe1f73c916ep+3", "0x1.704660888c3e8p+3"], "3d1c106683db3f2d"],
        ["1111", [12, 12, 15, 10], ["0x1.81a2b9d46b94ap+2", "0x1.b7877c0b991efp+2", "0x1.0e599d5e9e7dcp+3", "0x1.d4d57dea10f21p+2"], "fa3b277134c2bc74"],
        ["1111", [4, 7, 10, 10], ["0x1.60d793ff3f7b2p+0", "0x1.fae38e3b8330ep+1", "0x1.9c69769fda2cep+2", "0x1.9aa30705bc751p+2"], "bc11006ba5525125"],
        ["0111", [0, 9, 6, 9], ["0x0.0p+0", "0x1.43a840624377fp+2", "0x1.159d539b51fd8p+2", "0x1.9692c9771ff91p+2"], "721d56708d04290b"],
        ["1111", [1, 10, 8, 6], ["0x1.bb9958e2e95b7p-3", "0x1.3e7d65aba6102p+2", "0x1.16fa62988b978p+2", "0x1.17e83b9c4597cp+2"], "80e5bdc113190e35"],
    ],
    "flow/0.3/spawned/partial": [
        ["1011", [23, 0, 23, 23], ["0x1.6ede14460af36p+3", "0x0.0p+0", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "5c4fe0abf24de85c"],
        ["0101", [0, 26, 0, 17], ["0x0.0p+0", "0x1.d3568d7e6e51ep+3", "0x0.0p+0", "0x1.704660888c3e8p+3"], "0a220408d716c9ff"],
        ["1011", [18, 0, 18, 10], ["0x1.30464850a8690p+3", "0x0.0p+0", "0x1.5bfe1f73c916ep+3", "0x1.d4d57dea10f21p+2"], "b2d048a1cc4b4860"],
        ["0101", [0, 12, 0, 10], ["0x0.0p+0", "0x1.c7916a1bd8ea8p+2", "0x0.0p+0", "0x1.9aa30705bc751p+2"], "3914e5bf8f58f111"],
        ["1011", [12, 0, 15, 9], ["0x1.81a2b9d46b94ap+2", "0x0.0p+0", "0x1.0e599d5e9e7dcp+3", "0x1.9692c9771ff91p+2"], "90d66e87515aea01"],
        ["0101", [0, 12, 0, 6], ["0x0.0p+0", "0x1.b7877c0b991efp+2", "0x0.0p+0", "0x1.17e83b9c4597cp+2"], "2002fcbc54a21ab7"],
    ],
    "flow/0.3/counter/rectangular": [
        ["1111", [24, 26, 26, 23], ["0x1.888f37e20a25ep+3", "0x1.d3568d7e6e51ep+3", "0x1.e180903926ddap+3", "0x1.eb50e8c998a56p+3"], "4637195fe589fe9c"],
        ["1111", [19, 15, 12, 18], ["0x1.355c2df3df720p+3", "0x1.fafdae3c9e10cp+2", "0x1.db3b8c9c2562dp+2", "0x1.87c50c044ecefp+3"], "4787345e49f9cd0e"],
        ["1111", [17, 8, 11, 12], ["0x1.07bcdf340b827p+3", "0x1.3e589f0ebee7cp+2", "0x1.ae1749ae5ede2p+2", "0x1.e493d9d46b1fbp+2"], "3ef63aa1caaee2fd"],
        ["1111", [11, 5, 12, 9], ["0x1.67645033447e0p+2", "0x1.670809f66f651p+1", "0x1.944ec3a1cb09ep+2", "0x1.9ac7e76b9cc8fp+2"], "6742fe9d95691ae8"],
        ["1111", [10, 2, 10, 5], ["0x1.403051ca022f4p+2", "0x1.4b4855d8b479ep+0", "0x1.4d26df354094cp+2", "0x1.88376c588be34p+1"], "253ac7abb3b1041a"],
        ["1011", [10, 0, 10, 4], ["0x1.75b2270c38a9ap+2", "0x0.0p+0", "0x1.aaedbb2628708p+2", "0x1.6cc75aaa64519p+1"], "e1b54312ffb17feb"],
    ],
    "flow/0.3/counter/holes": [
        ["1111", [23, 26, 23, 23], ["0x1.6ede14460af36p+3", "0x1.d3568d7e6e51ep+3", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "074612680f91fe91"],
        ["1111", [19, 15, 10, 18], ["0x1.355c2df3df720p+3", "0x1.fafdae3c9e10cp+2", "0x1.a4e275139636ep+2", "0x1.87c50c044ecefp+3"], "945599f30b753967"],
        ["1111", [17, 8, 10, 12], ["0x1.07bcdf340b827p+3", "0x1.3e589f0ebee7cp+2", "0x1.98758234a14aap+2", "0x1.e493d9d46b1fbp+2"], "a7c6703d22ab4a11"],
        ["1111", [10, 5, 9, 9], ["0x1.4e3c5243f7c0ep+2", "0x1.670809f66f651p+1", "0x1.65b64b1d923f4p+2", "0x1.9ac7e76b9cc8fp+2"], "85c44eda0d8d4b4c"],
        ["1111", [10, 2, 6, 5], ["0x1.3775e49b332c4p+2", "0x1.4b4855d8b479ep+0", "0x1.c3efc8c315d68p+1", "0x1.88376c588be34p+1"], "034f01f048b93c84"],
        ["1011", [8, 0, 8, 4], ["0x1.02a1b92dd157cp+2", "0x0.0p+0", "0x1.56f331289ae12p+2", "0x1.6cc75aaa64519p+1"], "66775723d4ce56dd"],
    ],
    "flow/0.3/counter/partial": [
        ["1011", [23, 0, 23, 23], ["0x1.6ede14460af36p+3", "0x0.0p+0", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "459ba6b71aa4a0a4"],
        ["0101", [0, 26, 0, 18], ["0x0.0p+0", "0x1.d3568d7e6e51ep+3", "0x0.0p+0", "0x1.87c50c044ecefp+3"], "f7a660b2f973daff"],
        ["1011", [18, 0, 12, 12], ["0x1.3a037205e1d34p+3", "0x0.0p+0", "0x1.c1c74ed8e29efp+2", "0x1.e493d9d46b1fbp+2"], "5b8785ee3d79ace6"],
        ["0101", [0, 15, 0, 9], ["0x0.0p+0", "0x1.31b287e757b81p+3", "0x0.0p+0", "0x1.9ac7e76b9cc8fp+2"], "6385261f89783a03"],
        ["1011", [10, 0, 7, 5], ["0x1.7b37f7a447b44p+2", "0x0.0p+0", "0x1.13930131f2a67p+2", "0x1.88376c588be34p+1"], "9360c9889be7971b"],
        ["0101", [0, 14, 0, 4], ["0x0.0p+0", "0x1.0df5b556717dap+3", "0x0.0p+0", "0x1.6cc75aaa64519p+1"], "b424f77a640e927b"],
    ],
    "pseudocode/default/spawned/rectangular": [
        ["0000", [1, 0, 2, 1], ["0x1.302ae9caca8bap-1", "0x0.0p+0", "0x1.1cca30886164cp+0", "0x1.ff88ffb859010p-2"], "06e1708808dd7d3d"],
        ["0000", [0, 1, 2, 0], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x1.f5d4a56a89564p-1", "0x0.0p+0"], "45d57b94513541c9"],
        ["0000", [1, 1, 1, 1], ["0x1.bb9958e2e95b7p-3", "0x1.e1814829a7a66p-1", "0x1.bca8515497a70p-2", "0x1.ea34690cba2d4p-2"], "0f2cd2e6ef717833"],
        ["0000", [0, 0, 1, 0], ["0x0.0p+0", "0x0.0p+0", "0x1.5a1c779bd937ap-2", "0x0.0p+0"], "1f49ed9de9b4aa0c"],
        ["0000", [0, 1, 1, 0], ["0x0.0p+0", "0x1.b9c98894182ffp-2", "0x1.3060009c2a9dap-2", "0x0.0p+0"], "1587d130ef84fbcd"],
        ["0000", [2, 2, 0, 0], ["0x1.addf9917883e4p-1", "0x1.22b9f05a5061dp+0", "0x0.0p+0", "0x0.0p+0"], "d8804256886a3735"],
    ],
    "pseudocode/default/spawned/holes": [
        ["0000", [2, 0, 1, 1], ["0x1.9f8acc18207f0p-1", "0x0.0p+0", "0x1.dbfa34ccee1aep-1", "0x1.ff88ffb859010p-2"], "4fcc22e4e41bd090"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x0.0p+0", "0x0.0p+0"], "4e0db1f45be5efb9"],
        ["0000", [1, 1, 2, 1], ["0x1.20c611c611cd0p-2", "0x1.e1814829a7a66p-1", "0x1.5c361c67f962ap+0", "0x1.ea34690cba2d4p-2"], "3362806f6eb92c10"],
        ["0000", [0, 0, 0, 0], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"], "3362806f6eb92c10"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.b9c98894182ffp-2", "0x0.0p+0", "0x0.0p+0"], "c852eca6e6cce402"],
        ["0000", [1, 2, 0, 0], ["0x1.a5d54743fe544p-1", "0x1.22b9f05a5061dp+0", "0x0.0p+0", "0x0.0p+0"], "7ffaec4752b5b8e9"],
    ],
    "pseudocode/default/spawned/partial": [
        ["0000", [2, 0, 1, 1], ["0x1.9f8acc18207f0p-1", "0x0.0p+0", "0x1.dbfa34ccee1aep-1", "0x1.ff88ffb859010p-2"], "4fcc22e4e41bd090"],
        ["0000", [0, 0, 0, 0], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"], "4fcc22e4e41bd090"],
        ["0000", [0, 0, 0, 1], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ea34690cba2d4p-2"], "e37e2b68ac5da0e7"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x0.0p+0", "0x0.0p+0"], "f6adecc74dee39de"],
        ["0000", [1, 0, 2, 0], ["0x1.20c611c611cd0p-2", "0x0.0p+0", "0x1.5c361c67f962ap+0", "0x0.0p+0"], "1eb007044b08d995"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.e1814829a7a66p-1", "0x0.0p+0", "0x0.0p+0"], "3362806f6eb92c10"],
    ],
    "pseudocode/default/counter/rectangular": [
        ["0000", [3, 1, 1, 2], ["0x1.d1898ee9c8572p+0", "0x1.1b30ec3e6c479p-1", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "37b53cb80da93fef"],
        ["0000", [3, 0, 3, 0], ["0x1.1bd10c2504eafp+0", "0x0.0p+0", "0x1.7e10f657608e0p+0", "0x0.0p+0"], "e13dd49942fe303e"],
        ["0000", [2, 1, 2, 1], ["0x1.664967f1fb65dp-1", "0x1.afc595db6c327p-2", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "c883a60c5a43e972"],
        ["0000", [1, 1, 0, 0], ["0x1.a5d54743fe544p-1", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "d6a50483ad72fdf2"],
        ["0000", [1, 1, 0, 1], ["0x1.0b48772973d61p-1", "0x1.c4ead0472b85ep-1", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "ecabcad8e1788a1a"],
        ["0000", [0, 2, 1, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x1.f8e2fdbda0efap-3", "0x0.0p+0"], "637819a96beff00d"],
    ],
    "pseudocode/default/counter/holes": [
        ["0000", [3, 1, 1, 2], ["0x1.d1898ee9c8572p+0", "0x1.1b30ec3e6c479p-1", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "c370b95246747fa3"],
        ["0000", [3, 0, 2, 0], ["0x1.1bd10c2504eafp+0", "0x0.0p+0", "0x1.2789d8706a402p+0", "0x0.0p+0"], "9c972547faa3e1a5"],
        ["0000", [2, 1, 2, 1], ["0x1.664967f1fb65dp-1", "0x1.afc595db6c327p-2", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "97a9f77aa9259333"],
        ["0000", [1, 1, 0, 0], ["0x1.a5d54743fe544p-1", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "7012315c5997e9dd"],
        ["0000", [1, 1, 0, 1], ["0x1.0b48772973d61p-1", "0x1.c4ead0472b85ep-1", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "467e333c56bd55bf"],
        ["0000", [0, 2, 1, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x1.f8e2fdbda0efap-3", "0x0.0p+0"], "a29e844971ec1bc1"],
    ],
    "pseudocode/default/counter/partial": [
        ["0000", [3, 0, 1, 2], ["0x1.d1898ee9c8572p+0", "0x0.0p+0", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "8d21213ed7d4d311"],
        ["0000", [0, 0, 0, 0], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"], "8d21213ed7d4d311"],
        ["0000", [2, 0, 2, 1], ["0x1.664967f1fb65dp-1", "0x0.0p+0", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "9430d51c012efdb4"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "5cd613e6da9f54be"],
        ["0000", [2, 0, 0, 1], ["0x1.7eb94925b9af9p-1", "0x0.0p+0", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "03d2c8d12730a91d"],
        ["0000", [0, 2, 0, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x0.0p+0", "0x0.0p+0"], "cdd3643396f6a308"],
    ],
    "pseudocode/0.3/spawned/rectangular": [
        ["1111", [24, 26, 26, 23], ["0x1.888f37e20a25ep+3", "0x1.d3568d7e6e51ep+3", "0x1.e180903926ddap+3", "0x1.eb50e8c998a56p+3"], "5d102439b8fd1ee5"],
        ["1111", [14, 10, 16, 16], ["0x1.f80bf534c5824p+2", "0x1.3c1f13e108e6ep+2", "0x1.2cf3f40782e89p+3", "0x1.6a8afe9b4909ep+3"], "5f0121d6d81dc1ea"],
        ["1111", [11, 7, 14, 13], ["0x1.9cc79e18c3feap+2", "0x1.b25166b764d26p+1", "0x1.0c58c90fc9d7bp+3", "0x1.333d04524be60p+3"], "78a4cea39cb80be1"],
        ["1111", [3, 2, 13, 11], ["0x1.2437b2d809544p+1", "0x1.d027274dbc584p+0", "0x1.eced1445c1edap+2", "0x1.dae446f6132f4p+2"], "7a42cbbfb85061b0"],
        ["1111", [3, 1, 8, 9], ["0x1.241240fcb0475p+0", "0x1.ea49efc3e7b5ep-1", "0x1.4ca63d47005b8p+2", "0x1.9b5d8ebd37a9bp+2"], "31ec5996424d9654"],
        ["0110", [2, 1, 5, 0], ["0x1.104eaa2b9bd66p-1", "0x1.b6045ed790faap-1", "0x1.63d8ca1bc17aep+1", "0x0.0p+0"], "93fc07c1c2d7fb00"],
    ],
    "pseudocode/0.3/spawned/holes": [
        ["1111", [23, 26, 23, 23], ["0x1.6ede14460af36p+3", "0x1.d3568d7e6e51ep+3", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "febd4f0f99ab408c"],
        ["1111", [18, 10, 17, 16], ["0x1.2dfee2c427b22p+3", "0x1.3c1f13e108e6ep+2", "0x1.4d3d6287333d2p+3", "0x1.6a8afe9b4909ep+3"], "280a19d35f51f6e6"],
        ["1111", [13, 7, 13, 13], ["0x1.93e2f63923804p+2", "0x1.b25166b764d26p+1", "0x1.dcb0a5f0f6730p+2", "0x1.333d04524be60p+3"], "de7afe7f763d1cd1"],
        ["1111", [8, 2, 6, 11], ["0x1.e5aaa043e205fp+1", "0x1.d027274dbc584p+0", "0x1.0e7211eb806fep+2", "0x1.dae446f6132f4p+2"], "9a1d849b42f6158c"],
        ["0111", [3, 1, 7, 9], ["0x1.90200688efdcbp+0", "0x1.ea49efc3e7b5ep-1", "0x1.f42f62a72e7c7p+1", "0x1.9b5d8ebd37a9bp+2"], "57f69a016e7b262d"],
        ["0110", [2, 1, 1, 0], ["0x1.b1d75143c4f57p-1", "0x1.b6045ed790faap-1", "0x1.6033d57a98e95p-2", "0x0.0p+0"], "dc1e4cf225450c41"],
    ],
    "pseudocode/0.3/spawned/partial": [
        ["1011", [23, 0, 23, 23], ["0x1.6ede14460af36p+3", "0x0.0p+0", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "5c4fe0abf24de85c"],
        ["0101", [0, 26, 0, 16], ["0x0.0p+0", "0x1.d3568d7e6e51ep+3", "0x0.0p+0", "0x1.6a8afe9b4909ep+3"], "1b634c9b5d997c1f"],
        ["1011", [18, 0, 17, 13], ["0x1.2dfee2c427b22p+3", "0x0.0p+0", "0x1.4d3d6287333d2p+3", "0x1.333d04524be60p+3"], "fffb7325163f1d13"],
        ["0101", [0, 10, 0, 11], ["0x0.0p+0", "0x1.3c1f13e108e6ep+2", "0x0.0p+0", "0x1.dae446f6132f4p+2"], "f1fa1bf1f60a7977"],
        ["1011", [13, 0, 13, 9], ["0x1.93e2f63923804p+2", "0x0.0p+0", "0x1.dcb0a5f0f6730p+2", "0x1.9b5d8ebd37a9bp+2"], "3c4d9f192406626f"],
        ["0100", [0, 7, 0, 0], ["0x0.0p+0", "0x1.b25166b764d26p+1", "0x0.0p+0", "0x0.0p+0"], "3a25d292c95b165a"],
    ],
    "pseudocode/0.3/counter/rectangular": [
        ["1111", [24, 26, 26, 23], ["0x1.888f37e20a25ep+3", "0x1.d3568d7e6e51ep+3", "0x1.e180903926ddap+3", "0x1.eb50e8c998a56p+3"], "4637195fe589fe9c"],
        ["1111", [19, 16, 13, 18], ["0x1.355c2df3df720p+3", "0x1.2787ddc135603p+3", "0x1.010e245afae21p+3", "0x1.87c50c044ecefp+3"], "f4142139e744436c"],
        ["1111", [15, 10, 8, 11], ["0x1.d4ba476524476p+2", "0x1.adb341aa96568p+2", "0x1.30738e981802dp+2", "0x1.cdc0dc63a27f1p+2"], "1e779c834c0694bb"],
        ["1111", [4, 10, 3, 6], ["0x1.f75f01d5dfc21p+0", "0x1.88b436c11a471p+2", "0x1.31266e05ebf12p+0", "0x1.28e51d3539aa9p+2"], "48804248e1f8af5d"],
        ["0101", [0, 5, 0, 2], ["0x0.0p+0", "0x1.b84ca6688c1eap+1", "0x0.0p+0", "0x1.8e92a0583aff0p+0"], "010fb39bccee6da4"],
        ["0100", [0, 4, 0, 1], ["0x0.0p+0", "0x1.573fc68882db0p+1", "0x0.0p+0", "0x1.ff88ffb859010p-2"], "dfde946475eaecc1"],
    ],
    "pseudocode/0.3/counter/holes": [
        ["1111", [23, 26, 23, 23], ["0x1.6ede14460af36p+3", "0x1.d3568d7e6e51ep+3", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "074612680f91fe91"],
        ["1111", [19, 16, 11, 18], ["0x1.355c2df3df720p+3", "0x1.2787ddc135603p+3", "0x1.cbc3312d66983p+2", "0x1.87c50c044ecefp+3"], "4bacb390d2743a31"],
        ["1111", [17, 10, 7, 11], ["0x1.07bcdf340b827p+3", "0x1.adb341aa96568p+2", "0x1.1ad1c71e5a6f5p+2", "0x1.cdc0dc63a27f1p+2"], "53c0338649e6f7b4"],
        ["1101", [11, 10, 1, 6], ["0x1.61d80d49e2806p+2", "0x1.88b436c11a471p+2", "0x1.3705e0ce830a8p-1", "0x1.28e51d3539aa9p+2"], "6f49b8ff9797387c"],
        ["1101", [9, 5, 0, 2], ["0x1.270853dab5721p+2", "0x1.b84ca6688c1eap+1", "0x0.0p+0", "0x1.8e92a0583aff0p+0"], "cab92814db4a2f4e"],
        ["1100", [8, 4, 0, 1], ["0x1.e7ccd2a1efb9bp+1", "0x1.573fc68882db0p+1", "0x0.0p+0", "0x1.ff88ffb859010p-2"], "3ef5d8653cf50b8c"],
    ],
    "pseudocode/0.3/counter/partial": [
        ["1011", [23, 0, 23, 23], ["0x1.6ede14460af36p+3", "0x0.0p+0", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "459ba6b71aa4a0a4"],
        ["0101", [0, 26, 0, 18], ["0x0.0p+0", "0x1.d3568d7e6e51ep+3", "0x0.0p+0", "0x1.87c50c044ecefp+3"], "f7a660b2f973daff"],
        ["1011", [18, 0, 13, 11], ["0x1.2ba1bd12b57cap+3", "0x0.0p+0", "0x1.fc4fd6be900c5p+2", "0x1.cdc0dc63a27f1p+2"], "3d6e3c59b7dc907a"],
        ["0101", [0, 13, 0, 6], ["0x0.0p+0", "0x1.0695411c46500p+3", "0x0.0p+0", "0x1.28e51d3539aa9p+2"], "f032c856e82b3078"],
        ["1011", [11, 0, 4, 2], ["0x1.8e54bba4aadcep+2", "0x0.0p+0", "0x1.43d736ecb39a0p+1", "0x1.8e92a0583aff0p+0"], "4c57ee44bda5b357"],
        ["0100", [0, 5, 0, 1], ["0x0.0p+0", "0x1.a227198b92a1dp+1", "0x0.0p+0", "0x1.ff88ffb859010p-2"], "41241307d9fcd84e"],
    ],
    "per-task/default/spawned/rectangular": [
        ["0000", [1, 0, 2, 1], ["0x1.302ae9caca8bap-1", "0x0.0p+0", "0x1.1cca30886164cp+0", "0x1.ff88ffb859010p-2"], "06e1708808dd7d3d"],
        ["0000", [0, 1, 2, 0], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x1.f5d4a56a89564p-1", "0x0.0p+0"], "45d57b94513541c9"],
        ["0000", [1, 1, 2, 2], ["0x1.bb9958e2e95b7p-3", "0x1.e1814829a7a66p-1", "0x1.091704a240eccp+0", "0x1.426d8881a2651p+0"], "98495a5eb29b5304"],
        ["0000", [0, 1, 1, 1], ["0x0.0p+0", "0x1.9c2f013b52b0ap-2", "0x1.5a1c779bd937ap-2", "0x1.eb757b1aeb044p-3"], "0251cdd6f08d153f"],
        ["0000", [1, 2, 2, 0], ["0x1.fd71353347658p-1", "0x1.fd88960fada0ep-1", "0x1.363c81e91c00cp+0", "0x0.0p+0"], "066299cfd17e50c1"],
        ["0000", [2, 2, 0, 0], ["0x1.addf9917883e4p-1", "0x1.22b9f05a5061dp+0", "0x0.0p+0", "0x0.0p+0"], "68c5866ef364c264"],
    ],
    "per-task/default/spawned/holes": [
        ["0000", [2, 0, 1, 1], ["0x1.9f8acc18207f0p-1", "0x0.0p+0", "0x1.dbfa34ccee1aep-1", "0x1.ff88ffb859010p-2"], "4fcc22e4e41bd090"],
        ["0000", [0, 1, 2, 0], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x1.3e3d2a61f0cedp+0", "0x0.0p+0"], "459972ae2f32a6ff"],
        ["0000", [1, 1, 1, 2], ["0x1.20c611c611cd0p-2", "0x1.e1814829a7a66p-1", "0x1.d8179d92bb38ap-2", "0x1.426d8881a2651p+0"], "3d1f72ee1dfccf6f"],
        ["0000", [0, 1, 0, 1], ["0x0.0p+0", "0x1.9c2f013b52b0ap-2", "0x0.0p+0", "0x1.eb757b1aeb044p-3"], "bbe75e13394e3d77"],
        ["0000", [0, 2, 0, 0], ["0x0.0p+0", "0x1.fd88960fada0ep-1", "0x0.0p+0", "0x0.0p+0"], "590c5efaaa6af71a"],
        ["0000", [1, 2, 0, 0], ["0x1.a5d54743fe544p-1", "0x1.22b9f05a5061dp+0", "0x0.0p+0", "0x0.0p+0"], "27572852be6c8f52"],
    ],
    "per-task/default/spawned/partial": [
        ["0000", [2, 0, 1, 1], ["0x1.9f8acc18207f0p-1", "0x0.0p+0", "0x1.dbfa34ccee1aep-1", "0x1.ff88ffb859010p-2"], "4fcc22e4e41bd090"],
        ["0000", [0, 0, 0, 0], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"], "4fcc22e4e41bd090"],
        ["0000", [0, 0, 2, 2], ["0x0.0p+0", "0x0.0p+0", "0x1.3e3d2a61f0cedp+0", "0x1.426d8881a2651p+0"], "ee0d13709a9dea1c"],
        ["0000", [0, 1, 0, 1], ["0x0.0p+0", "0x1.93272e28bd85ap-1", "0x0.0p+0", "0x1.eb757b1aeb044p-3"], "66d6d94f143b8ea3"],
        ["0000", [1, 0, 1, 0], ["0x1.20c611c611cd0p-2", "0x0.0p+0", "0x1.d8179d92bb38ap-2", "0x0.0p+0"], "1ce306441fd10f22"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.e1814829a7a66p-1", "0x0.0p+0", "0x0.0p+0"], "c054e824af08d83c"],
    ],
    "per-task/default/counter/rectangular": [
        ["0000", [3, 1, 1, 2], ["0x1.d1898ee9c8572p+0", "0x1.1b30ec3e6c479p-1", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "37b53cb80da93fef"],
        ["0000", [3, 0, 3, 1], ["0x1.1bd10c2504eafp+0", "0x0.0p+0", "0x1.7e10f657608e0p+0", "0x1.ea34690cba2d4p-2"], "a5b7ba46e51b508e"],
        ["0000", [2, 1, 2, 1], ["0x1.664967f1fb65dp-1", "0x1.afc595db6c327p-2", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "5271e57e4766af66"],
        ["0000", [2, 1, 0, 0], ["0x1.594887f0972bbp+0", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "5344ad4673c3c56f"],
        ["0000", [1, 1, 0, 1], ["0x1.0b48772973d61p-1", "0x1.c4ead0472b85ep-1", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "0d574a04e191f80d"],
        ["0000", [0, 2, 1, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x1.f8e2fdbda0efap-3", "0x0.0p+0"], "dc7ceb643e19b966"],
    ],
    "per-task/default/counter/holes": [
        ["0000", [3, 1, 1, 2], ["0x1.d1898ee9c8572p+0", "0x1.1b30ec3e6c479p-1", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "c370b95246747fa3"],
        ["0000", [3, 0, 2, 1], ["0x1.1bd10c2504eafp+0", "0x0.0p+0", "0x1.2789d8706a402p+0", "0x1.ea34690cba2d4p-2"], "518819e296ff3e46"],
        ["0000", [2, 1, 2, 1], ["0x1.664967f1fb65dp-1", "0x1.afc595db6c327p-2", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "c717b1139768eaf1"],
        ["0000", [2, 1, 0, 0], ["0x1.594887f0972bbp+0", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "f34dd5aedbdaa3a7"],
        ["0000", [1, 1, 0, 1], ["0x1.0b48772973d61p-1", "0x1.c4ead0472b85ep-1", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "896905d6b155bc08"],
        ["0000", [0, 2, 1, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x1.f8e2fdbda0efap-3", "0x0.0p+0"], "819b6f3aaf68db71"],
    ],
    "per-task/default/counter/partial": [
        ["0000", [3, 0, 1, 2], ["0x1.d1898ee9c8572p+0", "0x0.0p+0", "0x1.3c0a03a4e6697p-2", "0x1.abb2200ca21c4p-1"], "8d21213ed7d4d311"],
        ["0000", [0, 0, 0, 1], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ea34690cba2d4p-2"], "87d5c8d3ae9c1bb5"],
        ["0000", [2, 0, 2, 1], ["0x1.664967f1fb65dp-1", "0x0.0p+0", "0x1.4188d3455c908p+0", "0x1.9b85d8dd9a732p-1"], "9adf8010b6d833f9"],
        ["0000", [0, 1, 0, 0], ["0x0.0p+0", "0x1.ddd2719813e04p-1", "0x0.0p+0", "0x0.0p+0"], "218b288c4f727c7a"],
        ["0000", [2, 0, 0, 1], ["0x1.7eb94925b9af9p-1", "0x0.0p+0", "0x0.0p+0", "0x1.56525fdebf7eap-1"], "ad423c4fa97cde6c"],
        ["0000", [0, 2, 0, 0], ["0x0.0p+0", "0x1.5f1011a9ac5dcp-1", "0x0.0p+0", "0x0.0p+0"], "ce0550b99445693e"],
    ],
    "per-task/0.3/spawned/rectangular": [
        ["1111", [24, 26, 26, 23], ["0x1.888f37e20a25ep+3", "0x1.d3568d7e6e51ep+3", "0x1.e180903926ddap+3", "0x1.eb50e8c998a56p+3"], "5d102439b8fd1ee5"],
        ["1111", [17, 13, 18, 17], ["0x1.2673db0746595p+3", "0x1.eba5e4548d1bap+2", "0x1.5ddfa9914b1dap+3", "0x1.704660888c3e8p+3"], "c5c57a5fcc2369b6"],
        ["1111", [14, 10, 19, 14], ["0x1.d8a4bfa0bf6aep+2", "0x1.77d66949a36adp+2", "0x1.6387108f62bf4p+3", "0x1.33a70b4c4e70ep+3"], "050befe53a60e5f5"],
        ["1111", [9, 9, 17, 14], ["0x1.83eceec9f25a2p+2", "0x1.545c49c70a561p+2", "0x1.38e578c925db7p+3", "0x1.16b290dc3a536p+3"], "f911d297676276a1"],
        ["1111", [12, 16, 22, 13], ["0x1.8b2fd08d84278p+2", "0x1.28e53cc42ff0bp+3", "0x1.99db81711c43ap+3", "0x1.18f3ba8121d0ap+3"], "dd1c72c5418dd349"],
        ["1111", [13, 20, 22, 11], ["0x1.7feb4ed2ef24ep+2", "0x1.69c7f364e9f5ep+3", "0x1.9362232cc1583p+3", "0x1.f834de8a3f84cp+2"], "c35545b8975f3526"],
    ],
    "per-task/0.3/spawned/holes": [
        ["1111", [23, 26, 23, 23], ["0x1.6ede14460af36p+3", "0x1.d3568d7e6e51ep+3", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "febd4f0f99ab408c"],
        ["1111", [19, 13, 20, 17], ["0x1.3aa6574c4ea00p+3", "0x1.eba5e4548d1bap+2", "0x1.7912c88721f42p+3", "0x1.704660888c3e8p+3"], "64c46d8e852fa8ab"],
        ["1111", [13, 10, 19, 14], ["0x1.8f7f849b82df8p+2", "0x1.77d66949a36adp+2", "0x1.52ef73fa3c748p+3", "0x1.33a70b4c4e70ep+3"], "9c0f2aa3d9ffe653"],
        ["1111", [6, 9, 11, 14], ["0x1.216c1337aab8fp+1", "0x1.545c49c70a561p+2", "0x1.a8e05c13498e6p+2", "0x1.16b290dc3a536p+3"], "fa0f018393028c5e"],
        ["0111", [2, 16, 6, 13], ["0x1.362bc5b600de3p+0", "0x1.28e53cc42ff0bp+3", "0x1.83d22b7b27ea9p+1", "0x1.18f3ba8121d0ap+3"], "870bff0692d179e6"],
        ["0111", [2, 20, 6, 11], ["0x1.9f4ed3ac6d46dp-1", "0x1.69c7f364e9f5ep+3", "0x1.2fe8878c9acd4p+1", "0x1.f834de8a3f84cp+2"], "2d6501f862e4ca79"],
    ],
    "per-task/0.3/spawned/partial": [
        ["1011", [23, 0, 23, 23], ["0x1.6ede14460af36p+3", "0x0.0p+0", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "5c4fe0abf24de85c"],
        ["0101", [0, 26, 0, 17], ["0x0.0p+0", "0x1.d3568d7e6e51ep+3", "0x0.0p+0", "0x1.704660888c3e8p+3"], "0a220408d716c9ff"],
        ["1011", [19, 0, 20, 14], ["0x1.3aa6574c4ea00p+3", "0x0.0p+0", "0x1.7912c88721f42p+3", "0x1.33a70b4c4e70ep+3"], "83e3e39cf64a9b39"],
        ["0101", [0, 13, 0, 14], ["0x0.0p+0", "0x1.eba5e4548d1bap+2", "0x0.0p+0", "0x1.16b290dc3a536p+3"], "0bc64f3bd0694731"],
        ["1011", [13, 0, 19, 13], ["0x1.8f7f849b82df8p+2", "0x0.0p+0", "0x1.52ef73fa3c748p+3", "0x1.18f3ba8121d0ap+3"], "99732caf1c98bc94"],
        ["0101", [0, 10, 0, 11], ["0x0.0p+0", "0x1.77d66949a36adp+2", "0x0.0p+0", "0x1.f834de8a3f84cp+2"], "a2ca094d30a95bf3"],
    ],
    "per-task/0.3/counter/rectangular": [
        ["1111", [24, 26, 26, 23], ["0x1.888f37e20a25ep+3", "0x1.d3568d7e6e51ep+3", "0x1.e180903926ddap+3", "0x1.eb50e8c998a56p+3"], "4637195fe589fe9c"],
        ["1111", [19, 15, 14, 18], ["0x1.355c2df3df720p+3", "0x1.fafdae3c9e10cp+2", "0x1.086153cc8170cp+3", "0x1.87c50c044ecefp+3"], "78cc1166ccb54941"],
        ["1111", [18, 10, 15, 12], ["0x1.0eab44979727ep+3", "0x1.60176ae9e024bp+2", "0x1.16ab98fd14158p+3", "0x1.e493d9d46b1fbp+2"], "7f77cfb39b576bb0"],
        ["1111", [12, 10, 15, 11], ["0x1.75411afa5bc8ep+2", "0x1.1ac2bdaef34eap+2", "0x1.def6fc3186ad0p+2", "0x1.f6f3b22211b0ap+2"], "b3bd17f6d5f62bdc"],
        ["1111", [13, 9, 8, 12], ["0x1.9cf758ec219eap+2", "0x1.18d57e1606d83p+2", "0x1.01b782e58fa4cp+2", "0x1.118b18ad5309ep+3"], "09f7bcc98dd1bb93"],
        ["1111", [14, 9, 12, 14], ["0x1.fb27ba79e3d74p+2", "0x1.dd8ccc88e9c7cp+1", "0x1.ad865f4f621abp+2", "0x1.34de6bff5cd44p+3"], "844c4db9caa41cfd"],
    ],
    "per-task/0.3/counter/holes": [
        ["1111", [23, 26, 23, 23], ["0x1.6ede14460af36p+3", "0x1.d3568d7e6e51ep+3", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "074612680f91fe91"],
        ["1111", [19, 15, 13, 18], ["0x1.355c2df3df720p+3", "0x1.fafdae3c9e10cp+2", "0x1.fb20e01f454e0p+2", "0x1.87c50c044ecefp+3"], "9752cf80fc712e8b"],
        ["1111", [18, 10, 14, 12], ["0x1.0eab44979727ep+3", "0x1.60176ae9e024bp+2", "0x1.f920f81c067c6p+2", "0x1.e493d9d46b1fbp+2"], "283909c85adfc2eb"],
        ["1111", [11, 10, 17, 11], ["0x1.5c191d0b0f0bap+2", "0x1.1ac2bdaef34eap+2", "0x1.33d0eeac0af80p+3", "0x1.f6f3b22211b0ap+2"], "dcc132a19df597be"],
        ["1111", [11, 9, 9, 12], ["0x1.569098a858a36p+2", "0x1.18d57e1606d83p+2", "0x1.2a4b396f65d5cp+2", "0x1.118b18ad5309ep+3"], "f956ea69653dd6c1"],
        ["1111", [9, 9, 15, 14], ["0x1.15be7d2e34808p+2", "0x1.dd8ccc88e9c7cp+1", "0x1.0bec1a39cea45p+3", "0x1.34de6bff5cd44p+3"], "b1473ccac1efa2a9"],
    ],
    "per-task/0.3/counter/partial": [
        ["1011", [23, 0, 23, 23], ["0x1.6ede14460af36p+3", "0x0.0p+0", "0x1.b45a2d8809878p+3", "0x1.eb50e8c998a56p+3"], "459ba6b71aa4a0a4"],
        ["0101", [0, 26, 0, 18], ["0x0.0p+0", "0x1.d3568d7e6e51ep+3", "0x0.0p+0", "0x1.87c50c044ecefp+3"], "f7a660b2f973daff"],
        ["1011", [18, 0, 13, 12], ["0x1.3a037205e1d34p+3", "0x0.0p+0", "0x1.e44869cbfd73cp+2", "0x1.e493d9d46b1fbp+2"], "2448b85db4d033ab"],
        ["0101", [0, 18, 0, 11], ["0x0.0p+0", "0x1.61facb093895cp+3", "0x0.0p+0", "0x1.f6f3b22211b0ap+2"], "74865a0ce489b920"],
        ["1011", [14, 0, 12, 12], ["0x1.f0636eee88958p+2", "0x0.0p+0", "0x1.a314fcdda9fadp+2", "0x1.118b18ad5309ep+3"], "3acbe2c336a43a7c"],
        ["0101", [0, 16, 0, 14], ["0x0.0p+0", "0x1.1cc73c092c44cp+3", "0x0.0p+0", "0x1.34de6bff5cd44p+3"], "bbf23ad966211df6"],
    ],
}


@pytest.mark.parametrize(
    "rule, alpha, policy, stack",
    ROUND_CASES,
    ids=[_round_key(*case) for case in ROUND_CASES],
)
def test_weighted_round_outputs_are_pinned(graph, rule, alpha, policy, stack):
    assert round_path(graph, rule, alpha, policy, stack) == ROUND_GOLDEN[
        _round_key(rule, alpha, policy, stack)
    ]


if __name__ == "__main__":
    torus = Graph(10, torus_graph(3).edges, name="torus9+isolated")
    print("ROUND_GOLDEN: dict[str, list[list]] = {")
    for case in ROUND_CASES:
        print(f'    "{_round_key(*case)}": [')
        for row in round_path(torus, *case):
            print(f"        {row!r},".replace("'", '"'))
        print("    ],")
    print("}")
