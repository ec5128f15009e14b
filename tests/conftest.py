"""Shared fixtures for the test suite.

Also registers the ``ci`` Hypothesis profile: derandomized (fixed seed)
so the property-based equivalence tests are deterministic on CI runners.
Loaded automatically when ``CI`` is set (GitHub Actions does) or when
``HYPOTHESIS_PROFILE=ci`` is exported; local runs keep Hypothesis's
default randomized exploration.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI") or os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    star_graph,
    torus_graph,
)
from repro.model.speeds import uniform_speeds
from repro.model.state import UniformState, WeightedState


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--rng-policy",
        choices=("spawned", "counter"),
        default="spawned",
        help="stream-layout policy the policy-matrix tests run the "
        "measurement pipeline under (CI runs the fast tier once per "
        "policy)",
    )


@pytest.fixture
def cli_rng_policy(request: pytest.FixtureRequest) -> str:
    """The ``--rng-policy`` the current pytest invocation selected."""
    return request.config.getoption("--rng-policy")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def ring8():
    return cycle_graph(8)


@pytest.fixture
def path5():
    return path_graph(5)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def torus9():
    return torus_graph(3)


@pytest.fixture
def grid9():
    return grid_graph(3)


@pytest.fixture
def cube8():
    return hypercube_graph(3)


@pytest.fixture
def star6():
    return star_graph(6)


@pytest.fixture
def small_graphs(ring8, path5, k5, torus9, grid9, cube8, star6):
    """A representative batch of small connected graphs."""
    return [ring8, path5, k5, torus9, grid9, cube8, star6]


@pytest.fixture
def uniform_state_ring8(ring8):
    """80 tasks spread unevenly on the 8-ring with unit speeds."""
    counts = np.array([30, 20, 10, 5, 5, 4, 3, 3])
    return UniformState(counts, uniform_speeds(8))


@pytest.fixture
def weighted_state_ring8(ring8, rng):
    """60 weighted tasks on the 8-ring with mixed speeds."""
    weights = rng.uniform(0.2, 1.0, size=60)
    locations = rng.integers(0, 8, size=60)
    speeds = np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 1.0])
    return WeightedState(locations, weights, speeds)
