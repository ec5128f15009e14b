"""Pinned sample paths of every randomized event's batched application.

Each case applies one event three times to a fixed replica stack under
one stream policy and pins, per application, a digest of the stack's
state arrays, a digest of the five outcome arrays and, for counter
streams, the number of draw sites the application consumed. A swapped
draw site, a reordered draw or a changed summation order moves a
digest, where the invariant checks of ``test_scenarios_events.py`` pass.

After a deliberate change, print the new table with::

    PYTHONPATH=src python tests/test_event_goldens.py

paste it over ``GOLDEN`` and say in CHANGES.md which entries moved and
why.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.generators import cycle_graph
from repro.model.batch import BatchUniformState, BatchWeightedState
from repro.model.state import WeightedState
from repro.scenarios import (
    LoadShock,
    NodeDrain,
    NodeOutage,
    PoissonChurnEvent,
    TaskArrival,
    TaskDeparture,
)
from repro.utils.rng import CounterStreams, spawn_rngs

EVENTS = {
    "arrival": TaskArrival(5, weight=0.5),
    "arrival-targeted": TaskArrival(3, node=1, weight=0.3),
    "departure": TaskDeparture(12),
    "churn": PoissonChurnEvent(12.0, weight=0.5),
    "churn-targeted": PoissonChurnEvent(12.0, node=2, weight=0.5),
    "shock": LoadShock(0.5, node=0),
    "drain": NodeDrain(2),
    "outage": NodeOutage(1, residual_factor=0.5),
}
STACKS = ("uniform", "weighted")
POLICIES = ("spawned", "counter")
APPLICATIONS = 3
NUM_REPLICAS = 5


def _digest(*arrays: object) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        value = np.ascontiguousarray(array)
        sha.update(f"{value.dtype.str}{value.shape}".encode())
        sha.update(value.tobytes())
    return sha.hexdigest()[:16]


def _stack(kind: str):
    """Five replicas on ``cycle_graph(4)``; replica 3 is emptied.

    The weighted stack also has holes mid-row in replicas 0-2 and keeps
    replica 4 full, as scenario departures leave it.
    """
    rngs = spawn_rngs(11, NUM_REPLICAS)
    if kind == "uniform":
        counts = np.stack(
            [np.bincount(r.integers(0, 4, 40), minlength=4) for r in rngs]
        )
        counts[3] = 0
        return BatchUniformState(counts, np.ones(4))
    states = [
        WeightedState(r.integers(0, 4, 40), r.uniform(0.1, 1.0, 40), np.ones(4))
        for r in rngs
    ]
    batch = BatchWeightedState.from_states(states)
    batch.remove_tasks([0, 0, 1, 2, 2, 2], [3, 17, 0, 5, 6, 30])
    batch.remove_tasks(np.full(40, 3), np.arange(40))
    return batch


def _state_arrays(batch) -> tuple:
    if isinstance(batch, BatchUniformState):
        return batch.counts, batch.speeds
    return (
        batch.task_nodes,
        batch.task_weights,
        batch.task_mask,
        batch.node_weights,
        batch.speeds,
    )


def sample_path(event: str, stack: str, policy: str) -> list[list]:
    """``[state digest, outcome digest, sites]`` per application."""
    graph = cycle_graph(4)
    batch = _stack(stack)
    if policy == "counter":
        streams = CounterStreams(7, NUM_REPLICAS)
    else:
        streams = spawn_rngs(99, NUM_REPLICAS)
    path = []
    for round_index in range(APPLICATIONS):
        if policy == "counter":
            streams.begin_round(round_index)
        outcome = EVENTS[event].apply_batch(batch, graph, streams)
        path.append(
            [
                _digest(*_state_arrays(batch)),
                _digest(
                    outcome.tasks_added,
                    outcome.tasks_removed,
                    outcome.weight_added,
                    outcome.weight_removed,
                    outcome.tasks_relocated,
                ),
                streams._site_sequence if policy == "counter" else None,
            ]
        )
    return path


GOLDEN: dict[str, list[list]] = {
    "arrival/uniform/spawned": [
        ["f7dece34a17d2722", "8f85d77190cd0ab2", None],
        ["91bb7c9ed5426539", "8f85d77190cd0ab2", None],
        ["405496b4bcc5cc85", "8f85d77190cd0ab2", None],
    ],
    "arrival/uniform/counter": [
        ["a0f1d876e56fa1af", "8f85d77190cd0ab2", 1],
        ["8054d5b91ae651b2", "8f85d77190cd0ab2", 1],
        ["d19999ae3be48883", "8f85d77190cd0ab2", 1],
    ],
    "arrival/weighted/spawned": [
        ["8a1c7fb51c703585", "6a8feab10ebdc83c", None],
        ["940db2d38cdb9071", "6a8feab10ebdc83c", None],
        ["397acb28be7fdbaa", "6a8feab10ebdc83c", None],
    ],
    "arrival/weighted/counter": [
        ["206ace22251723de", "6a8feab10ebdc83c", 1],
        ["2a78e070487d21ca", "6a8feab10ebdc83c", 1],
        ["15c000c63a2d43f0", "6a8feab10ebdc83c", 1],
    ],
    "arrival-targeted/uniform/spawned": [
        ["144b7f0c16658fc2", "7ea91787c97f7349", None],
        ["bd48bba5e82b241b", "7ea91787c97f7349", None],
        ["4f59c482bf4e9255", "7ea91787c97f7349", None],
    ],
    "arrival-targeted/uniform/counter": [
        ["144b7f0c16658fc2", "7ea91787c97f7349", 0],
        ["bd48bba5e82b241b", "7ea91787c97f7349", 0],
        ["4f59c482bf4e9255", "7ea91787c97f7349", 0],
    ],
    "arrival-targeted/weighted/spawned": [
        ["788072970cf44c95", "41c59a1e1de61544", None],
        ["95340828d855ae0a", "41c59a1e1de61544", None],
        ["848d0a04e2fcbfb0", "41c59a1e1de61544", None],
    ],
    "arrival-targeted/weighted/counter": [
        ["788072970cf44c95", "41c59a1e1de61544", 0],
        ["95340828d855ae0a", "41c59a1e1de61544", 0],
        ["848d0a04e2fcbfb0", "41c59a1e1de61544", 0],
    ],
    "departure/uniform/spawned": [
        ["64f34b472a17418c", "f19062bd26ee3ac6", None],
        ["bac04adb9a92f573", "f19062bd26ee3ac6", None],
        ["8f2eeda1a4bf0466", "f19062bd26ee3ac6", None],
    ],
    "departure/uniform/counter": [
        ["36cb80847dfdcade", "f19062bd26ee3ac6", 1],
        ["3c6798a7855ca6b4", "f19062bd26ee3ac6", 1],
        ["d3fca8f97e21817a", "f19062bd26ee3ac6", 1],
    ],
    "departure/weighted/spawned": [
        ["b3617a1026baad24", "f4d3ecaefe6cd1f5", None],
        ["b96f476d82d184be", "73077b5470d635a1", None],
        ["e50415d9bc377ae6", "1bedb0567da090ac", None],
    ],
    "departure/weighted/counter": [
        ["c942788e99fb60f8", "ae400eb17e652932", 1],
        ["97d5e131c6672929", "99d9f38a14ac2c58", 1],
        ["3a39a6e1500cdab2", "4672fdd0a5c8304f", 1],
    ],
    "churn/uniform/spawned": [
        ["f28fffe1a3971a69", "3b65a0a54bcaea9c", None],
        ["53899be84e9307df", "10cc5a28e4568db5", None],
        ["3c6e95703df11528", "85ade00c704ca159", None],
    ],
    "churn/uniform/counter": [
        ["52dbcc9a3d591b5e", "b4c5e15012993a82", 3],
        ["7fa7916e97d53a04", "4f14ca7ff11f00f3", 3],
        ["9228ad2e6f05bf1b", "651f82bbea64be8f", 3],
    ],
    "churn/weighted/spawned": [
        ["ac50aff798f34c53", "0f485b635e131b4a", None],
        ["4d061a3ba3db7d42", "f65253ea0ffabeb3", None],
        ["265f4b9ad3b6bb17", "b2fce40698e1671a", None],
    ],
    "churn/weighted/counter": [
        ["3bf83ee4bd84844a", "2793ad5190730c1e", 3],
        ["96518c094803898a", "1fe35c89ca92ec3e", 3],
        ["9578c0b735ccccc2", "1894d047e99c46b4", 3],
    ],
    "churn-targeted/uniform/spawned": [
        ["0aa21330dfeab623", "3b65a0a54bcaea9c", None],
        ["9cdce5f776d63e63", "dced3fb98e3e3e9f", None],
        ["e4e0345c5aadc9fe", "34c29e7357a9ff93", None],
    ],
    "churn-targeted/uniform/counter": [
        ["6fc358ef1ce3856e", "b4c5e15012993a82", 2],
        ["dd52704fbaa40219", "4f14ca7ff11f00f3", 2],
        ["1842dcd80ad52289", "651f82bbea64be8f", 2],
    ],
    "churn-targeted/weighted/spawned": [
        ["8f4b4491d9e39052", "e6577f7cdea9d4af", None],
        ["d7d7bb15b8eab7c3", "b5dbf5ae62a14eea", None],
        ["fa585168bf27f10e", "82eb71200d65012a", None],
    ],
    "churn-targeted/weighted/counter": [
        ["4782373b468e7198", "e85786e082a57038", 2],
        ["8dea18975fd46e06", "000a9dbced2bdc6b", 2],
        ["b8f06a53073612b8", "a8fe4ce196d84602", 2],
    ],
    "shock/uniform/spawned": [
        ["598b7d27e27a0cde", "30d351028691e402", None],
        ["3d4aa8712f125329", "365617fe41540eed", None],
        ["2768d8811d7b5a78", "c629a78ce47994d8", None],
    ],
    "shock/uniform/counter": [
        ["6002ab345310c807", "39f9319602b5e2dd", 1],
        ["47f9ad6f49298a83", "cb45e90df19ae36d", 1],
        ["dc628a5305f3338a", "adf52a966d899421", 1],
    ],
    "shock/weighted/spawned": [
        ["adc540906af8ffd6", "d85e24a87f1880e0", None],
        ["8e4ef901839b5163", "caf77f6c56a31bb4", None],
        ["6332e983abc8ebdb", "d9896875703b3c0b", None],
    ],
    "shock/weighted/counter": [
        ["a06a3919c7a18599", "4000b97dbf184a09", 1],
        ["87dcf6c0b44cebd6", "455778d456201527", 1],
        ["2258ecd73dbd685f", "48f8136e338dcf2e", 1],
    ],
    "drain/uniform/spawned": [
        ["e62dc71e985ae5d3", "ad61f87289f77ae3", None],
        ["e62dc71e985ae5d3", "46f52f643ea801da", None],
        ["e62dc71e985ae5d3", "46f52f643ea801da", None],
    ],
    "drain/uniform/counter": [
        ["93da0f1a33fac889", "ad61f87289f77ae3", 1],
        ["93da0f1a33fac889", "46f52f643ea801da", 0],
        ["93da0f1a33fac889", "46f52f643ea801da", 0],
    ],
    "drain/weighted/spawned": [
        ["d53a0096988003c7", "2351f7469a850ac3", None],
        ["d53a0096988003c7", "46f52f643ea801da", None],
        ["d53a0096988003c7", "46f52f643ea801da", None],
    ],
    "drain/weighted/counter": [
        ["a52b684d85a07352", "2351f7469a850ac3", 1],
        ["a52b684d85a07352", "46f52f643ea801da", 0],
        ["a52b684d85a07352", "46f52f643ea801da", 0],
    ],
    "outage/uniform/spawned": [
        ["5c4ccfad6d272b80", "b8dcc1d16536ade8", None],
        ["ecde898d4b748d93", "46f52f643ea801da", None],
        ["350f13ba98966e4a", "46f52f643ea801da", None],
    ],
    "outage/uniform/counter": [
        ["d186a3d706b86a2c", "b8dcc1d16536ade8", 1],
        ["3f19039a6808a357", "46f52f643ea801da", 0],
        ["9d96546b2854f688", "46f52f643ea801da", 0],
    ],
    "outage/weighted/spawned": [
        ["a7228848ff5f7eb3", "1adac50d9064c294", None],
        ["4fd6897bb81bf23d", "46f52f643ea801da", None],
        ["de1a3079e889837b", "46f52f643ea801da", None],
    ],
    "outage/weighted/counter": [
        ["79ea9335ef74aff9", "1adac50d9064c294", 1],
        ["aaa38287b0c2b154", "46f52f643ea801da", 0],
        ["f9038236fdc4c4a0", "46f52f643ea801da", 0],
    ],
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("event", EVENTS)
def test_event_sample_path_is_pinned(event, stack, policy):
    assert sample_path(event, stack, policy) == GOLDEN[f"{event}/{stack}/{policy}"]


def test_weighted_departures_reach_eight_per_row():
    """The departure cases remove >= 8 tasks from some row at once,
    where a weight sum in another order can differ in the last bit."""
    batch = _stack("weighted")
    outcome = EVENTS["departure"].apply_batch(batch, None, spawn_rngs(99, NUM_REPLICAS))
    assert outcome.tasks_removed.max() >= 8


if __name__ == "__main__":
    print("GOLDEN: dict[str, list[list]] = {")
    for event in EVENTS:
        for stack in STACKS:
            for policy in POLICIES:
                print(f'    "{event}/{stack}/{policy}": [')
                for application in sample_path(event, stack, policy):
                    print(f"        {application!r},".replace("'", '"'))
                print("    ],")
    print("}")
