"""Pinned sample paths of every randomized event's batched application.

Each case applies one event three times to a fixed replica stack under
one stream policy and pins, per application, a digest of the stack's
state arrays, a digest of the five outcome arrays and, for counter
streams, the number of draw sites the application consumed. A swapped
draw site, a reordered draw or a changed summation order moves a
digest, where the invariant checks of ``test_scenarios_events.py`` pass.
The compiled trace events draw nothing, so their counter cases pin zero
sites; they are also pinned applied to a proper subset of the rows.

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
    AdversarialArrival,
    LoadShock,
    NodeDrain,
    NodeOutage,
    PoissonChurnEvent,
    TaskArrival,
    TaskDeparture,
    TraceArrival,
    TraceDeparture,
    TraceRelocation,
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
    "trace-arrival": TraceArrival((2, 0, 2, 1), weight=0.5),
    "trace-departure": TraceDeparture(9, start_node=2),
    "trace-relocation": TraceRelocation(1, 0.3),
    "adversarial": AdversarialArrival(4, weight=0.5),
}
#: Events that may apply to a subset of the rows and are pinned so too.
TRACE_EVENTS = ("trace-arrival", "trace-departure", "trace-relocation", "adversarial")
#: A proper, unsorted subset of the rows that includes the emptied replica.
SUBSET = (4, 0, 3)
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


def sample_path(
    event: str, stack: str, policy: str, replicas: tuple | None = None
) -> list[list]:
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
        outcome = EVENTS[event].apply_batch(batch, graph, streams, replicas)
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
    "trace-arrival/uniform/spawned": [
        ["5f012b964e927e5c", "3e83c56c8fc0add7", None],
        ["30556f739d5e84e2", "3e83c56c8fc0add7", None],
        ["0b6ac657309b968c", "3e83c56c8fc0add7", None],
    ],
    "trace-arrival/uniform/spawned/subset": [
        ["6401a10ebfaebe23", "968e3858508e6d70", None],
        ["8c04d3c08d14d74d", "968e3858508e6d70", None],
        ["596d3f0c451a5f5c", "968e3858508e6d70", None],
    ],
    "trace-arrival/uniform/counter": [
        ["5f012b964e927e5c", "3e83c56c8fc0add7", 0],
        ["30556f739d5e84e2", "3e83c56c8fc0add7", 0],
        ["0b6ac657309b968c", "3e83c56c8fc0add7", 0],
    ],
    "trace-arrival/uniform/counter/subset": [
        ["6401a10ebfaebe23", "968e3858508e6d70", 0],
        ["8c04d3c08d14d74d", "968e3858508e6d70", 0],
        ["596d3f0c451a5f5c", "968e3858508e6d70", 0],
    ],
    "trace-arrival/weighted/spawned": [
        ["6685408fc9005b56", "7ff9a11eec816e1c", None],
        ["ee3270619efdb530", "7ff9a11eec816e1c", None],
        ["700c3a58281cec0a", "7ff9a11eec816e1c", None],
    ],
    "trace-arrival/weighted/spawned/subset": [
        ["9ef3b932962ac6be", "780beb409187fa78", None],
        ["bce13605b820fe30", "780beb409187fa78", None],
        ["c7e9621b54447547", "780beb409187fa78", None],
    ],
    "trace-arrival/weighted/counter": [
        ["6685408fc9005b56", "7ff9a11eec816e1c", 0],
        ["ee3270619efdb530", "7ff9a11eec816e1c", 0],
        ["700c3a58281cec0a", "7ff9a11eec816e1c", 0],
    ],
    "trace-arrival/weighted/counter/subset": [
        ["9ef3b932962ac6be", "780beb409187fa78", 0],
        ["bce13605b820fe30", "780beb409187fa78", 0],
        ["c7e9621b54447547", "780beb409187fa78", 0],
    ],
    "trace-departure/uniform/spawned": [
        ["ac3c83a2536e470e", "dd0b8425ccc134e8", None],
        ["689998e15361e149", "dd0b8425ccc134e8", None],
        ["f7ad12069a963a89", "dd0b8425ccc134e8", None],
    ],
    "trace-departure/uniform/spawned/subset": [
        ["9365bb66182c9caa", "5afe9f9f28853beb", None],
        ["9e47cebff989e3ca", "5afe9f9f28853beb", None],
        ["99fa444390b8b731", "5afe9f9f28853beb", None],
    ],
    "trace-departure/uniform/counter": [
        ["ac3c83a2536e470e", "dd0b8425ccc134e8", 0],
        ["689998e15361e149", "dd0b8425ccc134e8", 0],
        ["f7ad12069a963a89", "dd0b8425ccc134e8", 0],
    ],
    "trace-departure/uniform/counter/subset": [
        ["9365bb66182c9caa", "5afe9f9f28853beb", 0],
        ["9e47cebff989e3ca", "5afe9f9f28853beb", 0],
        ["99fa444390b8b731", "5afe9f9f28853beb", 0],
    ],
    "trace-departure/weighted/spawned": [
        ["e3b5a8cf88cac4dc", "f41b0e91ac85336e", None],
        ["fe7a14483df2f127", "be254d9413c6b534", None],
        ["d4ba4073a6a5217f", "c6732bcbd03d0b18", None],
    ],
    "trace-departure/weighted/spawned/subset": [
        ["e9c66a4f54cae09f", "4feae0a24ee234ee", None],
        ["2595c4f971db947f", "53fab1c707a4b8e4", None],
        ["0056586cb7a005d5", "3286d373abcf2db9", None],
    ],
    "trace-departure/weighted/counter": [
        ["e3b5a8cf88cac4dc", "f41b0e91ac85336e", 0],
        ["fe7a14483df2f127", "be254d9413c6b534", 0],
        ["d4ba4073a6a5217f", "c6732bcbd03d0b18", 0],
    ],
    "trace-departure/weighted/counter/subset": [
        ["e9c66a4f54cae09f", "4feae0a24ee234ee", 0],
        ["2595c4f971db947f", "53fab1c707a4b8e4", 0],
        ["0056586cb7a005d5", "3286d373abcf2db9", 0],
    ],
    "trace-relocation/uniform/spawned": [
        ["d258a0f1ba294c74", "72ac340a265dc48d", None],
        ["ea7924dbff4fa78f", "b8dec8febffa4d50", None],
        ["abd972df24f9d914", "608f63db228245d2", None],
    ],
    "trace-relocation/uniform/spawned/subset": [
        ["0e2fb66dbb6ed59a", "eb865eb9b3f8bc2e", None],
        ["7b106ee8ee34f948", "60b2d5bae9db4279", None],
        ["9bc7a3c18649ed24", "319e753426576418", None],
    ],
    "trace-relocation/uniform/counter": [
        ["d258a0f1ba294c74", "72ac340a265dc48d", 0],
        ["ea7924dbff4fa78f", "b8dec8febffa4d50", 0],
        ["abd972df24f9d914", "608f63db228245d2", 0],
    ],
    "trace-relocation/uniform/counter/subset": [
        ["0e2fb66dbb6ed59a", "eb865eb9b3f8bc2e", 0],
        ["7b106ee8ee34f948", "60b2d5bae9db4279", 0],
        ["9bc7a3c18649ed24", "319e753426576418", 0],
    ],
    "trace-relocation/weighted/spawned": [
        ["a3cadda32e300181", "b70d3474918ee407", None],
        ["47a84ce5a70a7ab9", "b0f78d3d8ef96d54", None],
        ["5deabbe7fd1be57a", "551c11c9e773cb95", None],
    ],
    "trace-relocation/weighted/spawned/subset": [
        ["b1f3227b37ec2437", "eb865eb9b3f8bc2e", None],
        ["28ec0882fb8f2681", "60b2d5bae9db4279", None],
        ["4dcdc7dfc2d73c04", "319e753426576418", None],
    ],
    "trace-relocation/weighted/counter": [
        ["a3cadda32e300181", "b70d3474918ee407", 0],
        ["47a84ce5a70a7ab9", "b0f78d3d8ef96d54", 0],
        ["5deabbe7fd1be57a", "551c11c9e773cb95", 0],
    ],
    "trace-relocation/weighted/counter/subset": [
        ["b1f3227b37ec2437", "eb865eb9b3f8bc2e", 0],
        ["28ec0882fb8f2681", "60b2d5bae9db4279", 0],
        ["4dcdc7dfc2d73c04", "319e753426576418", 0],
    ],
    "adversarial/uniform/spawned": [
        ["e73bc757a22f8830", "3e83c56c8fc0add7", None],
        ["8234bb0e53044bae", "3e83c56c8fc0add7", None],
        ["eeae23c49e9545a5", "3e83c56c8fc0add7", None],
    ],
    "adversarial/uniform/spawned/subset": [
        ["2c40cc42ab89a741", "968e3858508e6d70", None],
        ["38b166b5e359363b", "968e3858508e6d70", None],
        ["6f06280156ab4453", "968e3858508e6d70", None],
    ],
    "adversarial/uniform/counter": [
        ["e73bc757a22f8830", "3e83c56c8fc0add7", 0],
        ["8234bb0e53044bae", "3e83c56c8fc0add7", 0],
        ["eeae23c49e9545a5", "3e83c56c8fc0add7", 0],
    ],
    "adversarial/uniform/counter/subset": [
        ["2c40cc42ab89a741", "968e3858508e6d70", 0],
        ["38b166b5e359363b", "968e3858508e6d70", 0],
        ["6f06280156ab4453", "968e3858508e6d70", 0],
    ],
    "adversarial/weighted/spawned": [
        ["13643ecf91bc00d2", "7ff9a11eec816e1c", None],
        ["ea2c5ae9e7b561aa", "7ff9a11eec816e1c", None],
        ["98432d5fc21d99be", "7ff9a11eec816e1c", None],
    ],
    "adversarial/weighted/spawned/subset": [
        ["d47cf00a610ad320", "780beb409187fa78", None],
        ["50b254b39e750163", "780beb409187fa78", None],
        ["02f18f3591c208a4", "780beb409187fa78", None],
    ],
    "adversarial/weighted/counter": [
        ["13643ecf91bc00d2", "7ff9a11eec816e1c", 0],
        ["ea2c5ae9e7b561aa", "7ff9a11eec816e1c", 0],
        ["98432d5fc21d99be", "7ff9a11eec816e1c", 0],
    ],
    "adversarial/weighted/counter/subset": [
        ["d47cf00a610ad320", "780beb409187fa78", 0],
        ["50b254b39e750163", "780beb409187fa78", 0],
        ["02f18f3591c208a4", "780beb409187fa78", 0],
    ],
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("event", EVENTS)
def test_event_sample_path_is_pinned(event, stack, policy):
    assert sample_path(event, stack, policy) == GOLDEN[f"{event}/{stack}/{policy}"]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("event", TRACE_EVENTS)
def test_trace_event_subset_sample_path_is_pinned(event, stack, policy):
    assert (
        sample_path(event, stack, policy, SUBSET)
        == GOLDEN[f"{event}/{stack}/{policy}/subset"]
    )


def test_weighted_departures_reach_eight_per_row():
    """The departure cases remove >= 8 tasks from some row at once,
    where a weight sum in another order can differ in the last bit."""
    batch = _stack("weighted")
    outcome = EVENTS["departure"].apply_batch(batch, None, spawn_rngs(99, NUM_REPLICAS))
    assert outcome.tasks_removed.max() >= 8


@pytest.mark.parametrize("count", [3, 8, 17, 33])
def test_weighted_trace_departure_weight_equals_scalar(count):
    """The batched weight sum is each replica's ``.sum()`` in scan
    order, as the scalar ``apply`` takes it (a ``bincount`` sum differs
    in the last bit from 8 removals on)."""
    event = TraceDeparture(count, start_node=2)
    batch = _stack("weighted")
    scalars = [batch.replica(index) for index in range(NUM_REPLICAS)]
    for _ in range(APPLICATIONS):
        outcome = event.apply_batch(batch, None, None)
        for index, state in enumerate(scalars):
            expected = event.apply(state, None, None)
            assert outcome.tasks_removed[index] == expected.tasks_removed
            assert outcome.weight_removed[index] == expected.weight_removed


if __name__ == "__main__":
    print("GOLDEN: dict[str, list[list]] = {")
    for event in EVENTS:
        for stack in STACKS:
            for policy in POLICIES:
                print(f'    "{event}/{stack}/{policy}": [')
                for application in sample_path(event, stack, policy):
                    print(f"        {application!r},".replace("'", '"'))
                print("    ],")
                if event in TRACE_EVENTS:
                    print(f'    "{event}/{stack}/{policy}/subset": [')
                    for application in sample_path(event, stack, policy, SUBSET):
                        print(f"        {application!r},".replace("'", '"'))
                    print("    ],")
    print("}")
