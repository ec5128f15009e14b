"""The ensemble router's refusals, through both of its entry points.

``measure_convergence_rounds`` and ``ScenarioRunner.run_ensemble`` plan
their repetitions, engine and streams the same way; every malformed
request must fail with a ``ValidationError`` on either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import measure_convergence_rounds
from repro.core.protocols import SelfishUniformProtocol
from repro.core.stopping import NashStop
from repro.errors import ValidationError
from repro.graphs.generators import cycle_graph
from repro.model.placement import random_placement
from repro.model.state import UniformState
from repro.scenarios import ScenarioRunner

GRAPH = cycle_graph(4)


def _shared_speeds(rng):
    return UniformState(random_placement(4, 12, rng), np.ones(4))


def _own_speeds(rng):
    # Every repetition draws its own speed vector, so the states cannot
    # share one replica stack.
    return UniformState(random_placement(4, 12, rng), rng.uniform(1.0, 2.0, 4))


def _measure(factory, repetitions, **options):
    return measure_convergence_rounds(
        GRAPH,
        SelfishUniformProtocol(),
        factory,
        NashStop(),
        repetitions,
        max_rounds=5,
        seed=1,
        **options,
    )


def _scenario(factory, repetitions, **options):
    runner = ScenarioRunner(GRAPH, SelfishUniformProtocol())
    return runner.run_ensemble(factory, repetitions, rounds=5, seed=1, **options)


REFUSALS = {
    "no-repetitions": (_shared_speeds, 0, {}),
    "unknown-engine": (_shared_speeds, 4, {"engine": "turbo"}),
    "counter-on-scalar": (
        _shared_speeds,
        4,
        {"engine": "scalar", "rng_policy": "counter"},
    ),
    "negative-offset": (_shared_speeds, 4, {"replica_offset": -1}),
    "empty-window": (_shared_speeds, 4, {"replica_count": 0}),
    "window-past-repetitions": (
        _shared_speeds,
        4,
        {"replica_offset": 2, "replica_count": 3},
    ),
    "batch-on-unstackable": (_own_speeds, 4, {"engine": "batch"}),
}


@pytest.mark.parametrize("entry", [_measure, _scenario], ids=["measure", "scenario"])
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_router_refuses(entry, case):
    factory, repetitions, options = REFUSALS[case]
    with pytest.raises(ValidationError):
        entry(factory, repetitions, **options)
