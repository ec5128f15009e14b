"""Tests for dynamic-topology scenario events and the spectral trace.

Covers the derived-graph events (:class:`EdgeFailure`,
:class:`EdgeRecovery`, :class:`NetworkPartition`), their threading
through :class:`ScenarioRunner` on both engines and both RNG policies,
the per-round ``lambda2`` / ``gap_ratio`` / ``connected`` observables,
sharded-vs-monolithic ensemble equality, and the
``topology-resilience`` measurement cell.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocols import SelfishUniformProtocol
from repro.core.simulator import Simulator
from repro.core.stopping import PotentialThresholdStop
from repro.errors import ModelError, SimulationError, ValidationError
from repro.graphs.generators import cycle_graph, fat_tree_graph, torus_graph
from repro.model.placement import random_placement
from repro.model.state import UniformState
from repro.scenarios import (
    EdgeFailure,
    EdgeRecovery,
    NetworkPartition,
    Schedule,
    ScenarioRunner,
    at,
    merge_replica_results,
)
from repro.utils.rng import derive_seed, make_rng

from tests.equivalence import (
    assert_same_seed_determinism,
    assert_scenario_conservation,
    assert_topology_traces_agree,
    assert_topology_window,
)

FAIL_ROUND = 5
PARTITION_ROUND = 10
RECOVER_ROUND = 15
HORIZON = 25


def _uniform_factory(n, m):
    def factory(rng):
        return UniformState(random_placement(n, m, rng), np.ones(n))

    return factory


def _topology_runner(graph, fail_fraction=0.3):
    schedule = Schedule(
        [
            at(FAIL_ROUND, EdgeFailure(fraction=fail_fraction, seed=11)),
            at(
                PARTITION_ROUND,
                NetworkPartition(tuple(range(graph.num_vertices // 2))),
            ),
            at(RECOVER_ROUND, EdgeRecovery()),
        ]
    )
    return ScenarioRunner(
        graph,
        SelfishUniformProtocol(),
        schedule,
        target=PotentialThresholdStop(400.0, "psi0"),
    )


class TestTopologyEventSemantics:
    def test_edge_failure_explicit_edges(self):
        graph = cycle_graph(8)
        event = EdgeFailure(edges=((0, 1), (4, 5)))
        derived = event.transform_graph(graph, graph, 3)
        assert derived.num_edges == graph.num_edges - 2
        assert derived.num_vertices == graph.num_vertices

    def test_edge_failure_fraction_deterministic(self):
        graph = torus_graph(4)
        event = EdgeFailure(fraction=0.25, seed=7)
        first = event.transform_graph(graph, graph, 9)
        second = event.transform_graph(graph, graph, 9)
        assert first == second
        assert first.num_edges == graph.num_edges - round(0.25 * graph.num_edges)

    def test_edge_failure_fraction_varies_with_round(self):
        graph = torus_graph(4)
        event = EdgeFailure(fraction=0.25, seed=7)
        assert event.transform_graph(graph, graph, 1) != event.transform_graph(
            graph, graph, 2
        )

    def test_edge_recovery_returns_base_graph(self):
        graph = torus_graph(4)
        degraded = EdgeFailure(fraction=0.5, seed=1).transform_graph(
            graph, graph, 0
        )
        restored = EdgeRecovery().transform_graph(degraded, graph, 5)
        assert restored is graph

    def test_partition_disconnects_named_side(self):
        from repro.spectral.eigen import algebraic_connectivity

        graph = torus_graph(4)
        cut = NetworkPartition(tuple(range(8))).transform_graph(graph, graph, 0)
        assert algebraic_connectivity(cut, strict=False) == 0.0
        # no edge crosses the cut
        side = np.zeros(16, dtype=bool)
        side[:8] = True
        assert not np.any(side[cut.edges[:, 0]] != side[cut.edges[:, 1]])

    def test_partition_validation(self):
        with pytest.raises(ValidationError):
            NetworkPartition(())
        with pytest.raises(ValidationError):
            NetworkPartition((0, 0))
        with pytest.raises(ValidationError):
            NetworkPartition((-1,))
        graph = cycle_graph(6)
        with pytest.raises(ModelError):
            # proper subset required: all vertices is not a partition
            NetworkPartition(tuple(range(6))).transform_graph(graph, graph, 0)

    def test_edge_failure_validation(self):
        with pytest.raises(ValidationError):
            EdgeFailure()
        with pytest.raises(ValidationError):
            EdgeFailure(edges=((0, 1),), fraction=0.5)
        with pytest.raises(ValidationError):
            EdgeFailure(fraction=1.5)

    def test_topology_events_refuse_state_apply(self):
        graph = cycle_graph(6)
        state = UniformState(
            random_placement(6, 30, make_rng(0)), np.ones(6)
        )
        event = EdgeRecovery()
        with pytest.raises(ModelError):
            event.apply(state, graph, make_rng(0))

    def test_swap_graph_rejects_size_mismatch(self):
        simulator = Simulator(cycle_graph(6), SelfishUniformProtocol(), seed=1)
        with pytest.raises(SimulationError):
            simulator.swap_graph(cycle_graph(7))


class TestTopologyScenarioRuns:
    @pytest.fixture
    def graph(self):
        return fat_tree_graph(4)

    def test_scalar_trace_shows_partition_window(self, graph):
        # the scalar engine always consumes spawned streams
        runner = _topology_runner(graph)
        result = runner.run_ensemble(
            _uniform_factory(graph.num_vertices, 120),
            3,
            HORIZON,
            seed=42,
            engine="scalar",
        )
        assert result.lambda2.shape == (HORIZON + 1,)
        assert result.gap_ratio.shape == (HORIZON + 1,)
        assert result.connected.shape == (HORIZON + 1,)
        assert_topology_window(result, PARTITION_ROUND, RECOVER_ROUND)
        assert_scenario_conservation(result)

    def test_engines_record_identical_traces(self, graph, cli_rng_policy):
        runner = _topology_runner(graph)
        factory = _uniform_factory(graph.num_vertices, 120)
        scalar = runner.run_ensemble(
            factory, 3, HORIZON, seed=42, engine="scalar",
        )
        batch = runner.run_ensemble(
            factory, 3, HORIZON, seed=42, engine="batch",
            rng_policy=cli_rng_policy,
        )
        assert_topology_traces_agree(scalar, batch)
        assert_scenario_conservation(batch)

    def test_policies_record_identical_traces(self, graph):
        runner = _topology_runner(graph)
        factory = _uniform_factory(graph.num_vertices, 120)
        spawned = runner.run_ensemble(
            factory, 3, HORIZON, seed=42, engine="batch",
            rng_policy="spawned",
        )
        counter = runner.run_ensemble(
            factory, 3, HORIZON, seed=42, engine="batch",
            rng_policy="counter",
        )
        assert_topology_traces_agree(spawned, counter)

    def test_same_seed_determinism(self, graph, cli_rng_policy):
        runner = _topology_runner(graph)
        factory = _uniform_factory(graph.num_vertices, 120)

        def run():
            result = runner.run_ensemble(
                factory, 3, HORIZON, seed=42, engine="batch",
                rng_policy=cli_rng_policy,
            )
            return (
                result.num_tasks,
                result.psi0,
                result.lambda2,
                result.gap_ratio,
                result.connected,
            )

        assert_same_seed_determinism(run)

    def test_sharded_matches_monolithic(self, graph):
        runner = _topology_runner(graph)
        factory = _uniform_factory(graph.num_vertices, 120)
        monolithic = runner.run_ensemble(
            factory, 4, HORIZON, seed=42, engine="batch"
        )
        shards = [
            runner.run_ensemble(
                factory, 4, HORIZON, seed=42, engine="batch",
                replica_offset=offset, replica_count=2,
            )
            for offset in (0, 2)
        ]
        merged = merge_replica_results(shards)
        np.testing.assert_array_equal(merged.num_tasks, monolithic.num_tasks)
        np.testing.assert_array_equal(merged.psi0, monolithic.psi0)
        np.testing.assert_array_equal(
            merged.target_satisfied, monolithic.target_satisfied
        )
        assert_topology_traces_agree(merged, monolithic)

    def test_event_records_have_zero_magnitude(self, graph):
        runner = _topology_runner(graph)
        result = runner.run_ensemble(
            _uniform_factory(graph.num_vertices, 120),
            2,
            HORIZON,
            seed=42,
            engine="batch",
        )
        assert len(result.events) == 3
        for record in result.events:
            assert np.all(record.tasks_added == 0)
            assert np.all(record.tasks_removed == 0)
            assert np.all(record.weight_added == 0.0)
            assert np.all(record.weight_removed == 0.0)

    def test_trace_absent_without_topology_support(self, graph):
        """A plain run still records the (static) spectral trace."""
        runner = ScenarioRunner(graph, SelfishUniformProtocol())
        result = runner.run_ensemble(
            _uniform_factory(graph.num_vertices, 120),
            2,
            8,
            seed=42,
            engine="batch",
        )
        assert np.all(result.connected)
        assert np.all(result.gap_ratio == result.gap_ratio[0])


class TestTopologyResilienceCell:
    def test_measurement_roundtrip(self, cli_rng_policy):
        from repro.experiments.executor import CellSpec, run_cell

        params = {
            "fail_fraction": 0.25,
            "fail_round": 20,
            "partition_round": 45,
            "recover_round": 70,
            "horizon": 140,
        }
        cell = run_cell(
            CellSpec(
                "topology-resilience",
                "fat-tree",
                20,
                m_factor=8.0,
                repetitions=4,
                seed=20120716,
                params=tuple(sorted(params.items())),
                rng_policy=cli_rng_policy,
            )
        )
        assert cell.family == "fat-tree"
        assert cell.n == 20
        assert cell.num_replicas == 4
        assert np.isinf(cell.gap_partitioned)
        assert cell.gap_restored
        assert cell.disconnected_rounds >= 70 - 45
        assert cell.num_recovered == 4
        assert len(cell.gap_series) == 141
        assert cell.gap_series[-1] == cell.gap_series[0]

    def test_registered_in_executor(self):
        from repro.experiments.executor import CELL_KINDS
        from repro.experiments.scenario_cells import _build_topology_cell

        assert CELL_KINDS["topology-resilience"].build is _build_topology_cell

    def test_experiment_registered(self):
        from repro.experiments.registry import available_experiments

        assert "topology-failures" in available_experiments()
