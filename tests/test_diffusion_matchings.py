"""Tests for repro.diffusion.matchings (dimension exchange)."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.simulator import run_protocol
from repro.core.stopping import PotentialThresholdStop
from repro.diffusion.matchings import DimensionExchangeProtocol, greedy_edge_coloring
from repro.errors import ProtocolError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    star_graph,
    torus_graph,
)
from repro.model.state import UniformState, WeightedState


class TestGreedyEdgeColoring:
    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(8), torus_graph(3), hypercube_graph(3), complete_graph(5)],
    )
    def test_colors_are_matchings(self, graph):
        matchings = greedy_edge_coloring(graph)
        covered = 0
        for matching in matchings:
            endpoints = graph.edges[matching].ravel()
            assert np.unique(endpoints).shape[0] == endpoints.shape[0]
            covered += matching.shape[0]
        assert covered == graph.num_edges

    def test_color_count_bounded(self):
        graph = torus_graph(4)
        assert len(greedy_edge_coloring(graph)) <= 2 * graph.max_degree - 1

    def test_hypercube_dimension_count(self):
        """Q_3 is 3-edge-colourable by dimension; greedy finds <= 5."""
        graph = hypercube_graph(3)
        assert len(greedy_edge_coloring(graph)) <= 5


class TestDimensionExchange:
    def test_requires_uniform_state(self, ring8, rng):
        state = WeightedState([0], [0.5], np.ones(8))
        with pytest.raises(ProtocolError):
            DimensionExchangeProtocol().execute_round(state, ring8, rng)

    def test_mass_conserved(self, rng):
        graph = torus_graph(3)
        state = UniformState(np.array([90] + [0] * 8), np.ones(9))
        protocol = DimensionExchangeProtocol()
        for _ in range(40):
            protocol.execute_round(state, graph, rng)
            assert state.num_tasks == 90
            assert np.all(state.counts >= 0)

    def test_pair_balances_on_single_edge(self, rng):
        graph = path_graph(2)
        state = UniformState([10, 0], [1.0, 1.0])
        protocol = DimensionExchangeProtocol()
        protocol.execute_round(state, graph, rng)
        np.testing.assert_array_equal(state.counts, [5, 5])

    def test_speed_proportional_split(self, rng):
        graph = path_graph(2)
        state = UniformState([12, 0], [1.0, 2.0])
        protocol = DimensionExchangeProtocol()
        protocol.execute_round(state, graph, rng)
        np.testing.assert_array_equal(state.counts, [4, 8])

    def test_balanced_pair_stable(self, rng):
        graph = path_graph(2)
        state = UniformState([5, 5], [1.0, 1.0])
        protocol = DimensionExchangeProtocol()
        summary = protocol.execute_round(state, graph, rng)
        assert summary.tasks_moved == 0

    def test_converges_on_hypercube(self, rng):
        """Classic dimension exchange on Q_3 balances quickly."""
        graph = hypercube_graph(3)
        state = UniformState(np.array([800] + [0] * 7), np.ones(8))
        result = run_protocol(
            graph,
            DimensionExchangeProtocol(),
            state,
            stopping=PotentialThresholdStop(64.0, "psi0"),
            max_rounds=200,
            seed=1,
        )
        assert result.converged
        # 3 colour classes: a handful of sweeps suffices.
        assert result.stop_round <= 30

    def test_round_robin_covers_all_colors(self, rng):
        """Consecutive rounds activate different matchings."""
        graph = cycle_graph(4)  # 2-edge-colourable
        protocol = DimensionExchangeProtocol()
        state = UniformState(np.array([40, 0, 0, 0]), np.ones(4))
        first = protocol.execute_round(state, graph, rng)
        second = protocol.execute_round(state, graph, rng)
        # Both rounds moved something: both matchings saw imbalance.
        assert first.tasks_moved > 0
        assert second.tasks_moved > 0

    def test_graph_at_a_collected_graphs_address_gets_its_own_schedule(self, rng):
        """CPython builds a new graph in a collected graph's memory sooner
        or later, so the new graph takes the old ``id``. A schedule keyed
        by ``id`` then served the ring's matchings to the star and indexed
        past its edges (``IndexError``)."""
        protocol = DimensionExchangeProtocol()
        ring = cycle_graph(12)
        protocol.execute_round(UniformState(np.arange(12), np.ones(12)), ring, rng)
        ring_id = id(ring)
        del ring
        gc.collect()
        stars = []  # all kept alive, so each new star takes fresh memory
        for _ in range(10_000):
            stars.append(star_graph(5))
            if id(stars[-1]) == ring_id:
                break
        state = UniformState(np.array([40, 0, 0, 0, 0]), np.ones(5))
        summary = protocol.execute_round(state, stars[-1], rng)
        assert summary.tasks_moved == 20
        assert state.num_tasks == 40
