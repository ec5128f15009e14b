"""Tests for repro.scenarios.schedule and repro.scenarios.runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocols import SelfishUniformProtocol, SelfishWeightedProtocol
from repro.core.stopping import NashStop, PotentialThresholdStop
from repro.errors import SimulationError, ValidationError
from repro.graphs.generators import cycle_graph, torus_graph
from repro.model.batch import BatchUniformState
from repro.model.placement import place_weighted_random, random_placement
from repro.model.state import UniformState, WeightedState
from repro.model.tasks import two_class_weights
from repro.scenarios import (
    LoadShock,
    NodeOutage,
    PoissonChurnEvent,
    Schedule,
    ScenarioRunner,
    SpeedChange,
    StreamingRecording,
    TaskArrival,
    TaskDeparture,
    at,
    every,
    nash_violation_fraction,
)

from tests.equivalence import (
    assert_scenario_conservation,
    assert_scenario_engines_agree,
)


def _uniform_factory(n, m):
    def factory(rng):
        return UniformState(random_placement(n, m, rng), np.ones(n))

    return factory


def _weighted_factory(n, m):
    weights = two_class_weights(m, heavy_fraction=0.1)

    def factory(rng):
        return WeightedState(place_weighted_random(m, n, rng), weights, np.ones(n))

    return factory


class TestSchedule:
    def test_at_single_round(self):
        entry = at(5, LoadShock(0.5, node=0))
        assert entry.due(5) and not entry.due(4) and not entry.due(6)

    def test_at_multiple_rounds(self):
        entry = at([3, 9], TaskArrival(1))
        assert entry.due(3) and entry.due(9) and not entry.due(6)

    def test_every_with_window(self):
        entry = every(3, TaskDeparture(1), start=6, stop=13)
        fires = [r for r in range(20) if entry.due(r)]
        assert fires == [6, 9, 12]

    def test_events_due_preserves_entry_order(self):
        shock = LoadShock(0.5, node=0)
        churn = PoissonChurnEvent(1.0)
        schedule = Schedule([every(1, churn), at(4, shock)])
        assert schedule.events_due(4) == [churn, shock]
        assert schedule.events_due(3) == [churn]

    def test_event_rounds(self):
        schedule = Schedule([at([4, 8], LoadShock(0.5, node=0))])
        assert schedule.event_rounds("shock", 10) == [4, 8]
        assert schedule.event_rounds("shock", 5) == [4]

    def test_numpy_integers_accepted(self):
        """Round indices routinely come out of numpy arithmetic."""
        entry = at(np.int64(5), LoadShock(0.5, node=0))
        assert entry.due(5)
        assert every(np.int64(2), TaskArrival(1)).due(4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            every(0, TaskArrival(1))
        with pytest.raises(ValidationError):
            at(-1, TaskArrival(1))
        with pytest.raises(ValidationError):
            Schedule([TaskArrival(1)])  # bare event, not an entry


class TestScenarioRunnerScalar:
    def test_shapes_and_engine(self):
        graph = cycle_graph(6)
        runner = ScenarioRunner(
            graph,
            SelfishUniformProtocol(),
            Schedule([every(1, PoissonChurnEvent(1.0))]),
            target=NashStop(),
        )
        state = UniformState(random_placement(6, 60, np.random.default_rng(0)), np.ones(6))
        result = runner.run(state, rounds=12, rng=7)
        assert result.engine == "scalar"
        assert result.psi0.shape == (13, 1)
        assert result.num_replicas == 1
        assert result.rounds_executed == 12
        assert len(result.events) == 12
        assert_scenario_conservation(result)

    def test_empty_schedule_is_pure_simulation(self):
        graph = cycle_graph(6)
        runner = ScenarioRunner(graph, SelfishUniformProtocol())
        state = UniformState(random_placement(6, 60, np.random.default_rng(0)), np.ones(6))
        result = runner.run(state, rounds=10, rng=3)
        assert result.events == []
        np.testing.assert_array_equal(
            result.num_tasks, np.full((11, 1), 60)
        )

    def test_speed_event_changes_loads(self):
        graph = cycle_graph(4)
        runner = ScenarioRunner(
            graph,
            SelfishUniformProtocol(),
            Schedule([at(2, SpeedChange(0, 4.0))]),
        )
        state = UniformState(np.full(4, 10), np.ones(4))
        result = runner.run(state, rounds=4, rng=1)
        assert result.final_state.speeds[0] == 4.0

    @pytest.mark.parametrize("recording", [None, StreamingRecording()])
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_node_count_mismatch_rejected_upfront(self, engine, recording):
        runner = ScenarioRunner(cycle_graph(6), SelfishUniformProtocol())
        state = UniformState(np.full(5, 3), np.ones(5))
        with pytest.raises(SimulationError, match="vertices"):
            if engine == "scalar":
                runner.run(state, rounds=3, rng=1, recording=recording)
            else:
                batch = BatchUniformState.from_states([state, state])
                runner.run_batch(batch, rounds=3, seed=1, recording=recording)


class TestScenarioRunnerBatch:
    def test_uniform_auto_batches(self):
        graph = torus_graph(3)
        schedule = Schedule(
            [every(1, PoissonChurnEvent(1.0)), at(6, LoadShock(0.8, node=0))]
        )
        runner = ScenarioRunner(
            graph, SelfishUniformProtocol(), schedule, target=NashStop()
        )
        result = runner.run_ensemble(
            _uniform_factory(9, 90), repetitions=8, rounds=15, seed=5
        )
        assert result.engine == "batch"
        assert result.psi0.shape == (16, 8)
        assert_scenario_conservation(result)
        shock = result.events_named("shock")
        assert len(shock) == 1 and shock[0].round_index == 6
        assert np.all(shock[0].tasks_relocated > 0)

    def test_same_seed_bit_determinism(self):
        graph = torus_graph(3)
        schedule = Schedule([every(1, PoissonChurnEvent(2.0))])
        runner = ScenarioRunner(graph, SelfishUniformProtocol(), schedule)

        def run_once():
            return runner.run_ensemble(
                _uniform_factory(9, 90), repetitions=5, rounds=10, seed=17
            )

        first, second = run_once(), run_once()
        np.testing.assert_array_equal(first.num_tasks, second.num_tasks)
        np.testing.assert_array_equal(first.psi0, second.psi0)
        np.testing.assert_array_equal(
            first.final_state.counts, second.final_state.counts
        )

    def test_weighted_pathwise_engines_agree(self):
        graph = cycle_graph(6)
        schedule = Schedule(
            [
                every(2, PoissonChurnEvent(1.0, weight=0.5)),
                at(5, LoadShock(0.5, node=0)),
                at(8, NodeOutage(2, residual_factor=0.5)),
                at(3, TaskArrival(2, node=1, weight=0.25)),
                at(7, TaskDeparture(3)),
            ]
        )
        runner = ScenarioRunner(
            graph, SelfishWeightedProtocol(), schedule, target=NashStop()
        )
        assert_scenario_engines_agree(
            runner,
            _weighted_factory(6, 30),
            repetitions=5,
            rounds=14,
            seed=23,
            pathwise=True,
            conservation_atol=1e-9,
        )

    def test_weighted_compaction_is_transparent(self):
        """Heavy churn grows then compacts the padded stack without
        changing trajectories (scalar comparison stays bit-identical)."""
        graph = cycle_graph(4)
        schedule = Schedule([every(1, PoissonChurnEvent(6.0, weight=0.5))])
        runner = ScenarioRunner(graph, SelfishWeightedProtocol(), schedule)
        assert_scenario_engines_agree(
            runner,
            _weighted_factory(4, 8),
            repetitions=3,
            rounds=60,
            seed=31,
            pathwise=True,
            conservation_atol=1e-9,
        )

    def test_engine_batch_forced_on_unstackable_raises(self):
        graph = cycle_graph(4)
        runner = ScenarioRunner(graph, SelfishUniformProtocol(), Schedule())

        def ragged_factory(rng):
            # Different speed vectors -> unstackable.
            speeds = rng.uniform(1.0, 2.0, 4)
            return UniformState(random_placement(4, 12, rng), speeds)

        with pytest.raises(ValidationError):
            runner.run_ensemble(
                ragged_factory, repetitions=3, rounds=5, seed=1, engine="batch"
            )

    def test_target_satisfied_trace(self):
        graph = torus_graph(3)
        schedule = Schedule([at(10, LoadShock(0.9, node=0))])
        runner = ScenarioRunner(
            graph,
            SelfishUniformProtocol(),
            schedule,
            target=PotentialThresholdStop(1e9, "psi0"),
        )
        result = runner.run_ensemble(
            _uniform_factory(9, 90), repetitions=4, rounds=12, seed=2
        )
        # A sky-high threshold is satisfied every round.
        assert np.all(result.target_satisfied)


class TestUniformLawAgreement:
    @pytest.mark.slow
    def test_uniform_engines_agree_in_law(self):
        """KS agreement of recovery-round distributions under a fixed
        churn + shock schedule (uniform kernels are law-equivalent)."""
        graph = torus_graph(3)
        shock_round = 15
        schedule = Schedule(
            [
                every(1, PoissonChurnEvent(1.0)),
                at(shock_round, LoadShock(0.8, node=0)),
            ]
        )
        from repro.spectral.eigen import algebraic_connectivity
        from repro.theory.constants import psi_critical

        lambda2 = algebraic_connectivity(graph)
        threshold = 4.0 * psi_critical(9, graph.max_degree, lambda2, 1.0)
        runner = ScenarioRunner(
            graph,
            SelfishUniformProtocol(),
            schedule,
            target=PotentialThresholdStop(threshold, "psi0"),
        )
        assert_scenario_engines_agree(
            runner,
            _uniform_factory(9, 16 * 9),
            repetitions=120,
            rounds=60,
            seed=41,
            pathwise=False,
            shock_round=shock_round,
        )


class TestNashViolationFraction:
    def test_balanced_state_has_no_violations(self):
        graph = cycle_graph(4)
        loads = np.full((2, 4), 5.0)
        np.testing.assert_array_equal(
            nash_violation_fraction(loads, np.ones(4), graph), np.zeros(2)
        )

    def test_skewed_state_has_violations(self):
        graph = cycle_graph(4)
        loads = np.array([[40.0, 0.0, 0.0, 0.0]])
        fraction = nash_violation_fraction(loads, np.ones(4), graph)
        assert 0.0 < fraction[0] <= 1.0


class TestCounterScenarioPolicy:
    """rng_policy='counter' scenario runs: law-level engine agreement."""

    def _uniform_runner(self, n=9):
        graph = torus_graph(3)
        from repro.spectral.eigen import algebraic_connectivity
        from repro.theory.constants import psi_critical

        lambda2 = algebraic_connectivity(graph)
        threshold = 4.0 * psi_critical(n, graph.max_degree, lambda2, 1.0)
        schedule = Schedule(
            [
                every(1, PoissonChurnEvent(1.0)),
                at(20, LoadShock(0.8, node=0)),
            ]
        )
        return ScenarioRunner(
            graph,
            SelfishUniformProtocol(),
            schedule,
            target=PotentialThresholdStop(threshold, "psi0"),
        )

    def test_counter_run_deterministic_and_conserving(self):
        runner = self._uniform_runner()

        def run():
            result = runner.run_ensemble(
                _uniform_factory(9, 16 * 9),
                repetitions=16,
                rounds=40,
                seed=5,
                engine="batch",
                rng_policy="counter",
            )
            assert_scenario_conservation(result)
            return result.psi0, result.num_tasks, result.target_satisfied

        first = run()
        second = run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_counter_weighted_conserves_exactly(self):
        n, m = 8, 64
        schedule = Schedule(
            [
                every(1, PoissonChurnEvent(1.0, weight=0.5)),
                at(10, LoadShock(0.5, node=0)),
                at(15, TaskArrival(5, weight=0.5)),
                at(18, TaskDeparture(7)),
            ]
        )
        runner = ScenarioRunner(
            cycle_graph(n), SelfishWeightedProtocol(), schedule, target=NashStop()
        )
        result = runner.run_ensemble(
            _weighted_factory(n, m),
            repetitions=20,
            rounds=30,
            seed=9,
            engine="batch",
            rng_policy="counter",
        )
        assert_scenario_conservation(result, atol=1e-9)

    def test_counter_rejects_scalar_engine(self):
        runner = self._uniform_runner()
        with pytest.raises(ValidationError):
            runner.run_ensemble(
                _uniform_factory(9, 16 * 9),
                repetitions=2,
                rounds=5,
                seed=1,
                engine="scalar",
                rng_policy="counter",
            )

    @pytest.mark.slow
    def test_counter_uniform_recovery_matches_scalar_in_law(self):
        from tests.equivalence import assert_counter_scenario_agrees

        runner = self._uniform_runner()
        assert_counter_scenario_agrees(
            runner,
            _uniform_factory(9, 16 * 9),
            repetitions=120,
            rounds=60,
            seed=41,
            shock_round=20,
        )

    @pytest.mark.slow
    def test_counter_weighted_final_potentials_match_scalar_in_law(self):
        from tests.equivalence import assert_counter_scenario_agrees

        n, m = 8, 64
        schedule = Schedule(
            [
                every(1, PoissonChurnEvent(1.0, weight=0.5)),
                at(20, LoadShock(0.5, node=0)),
            ]
        )
        runner = ScenarioRunner(
            cycle_graph(n), SelfishWeightedProtocol(), schedule, target=NashStop()
        )
        assert_counter_scenario_agrees(
            runner,
            _weighted_factory(n, m),
            repetitions=120,
            rounds=60,
            seed=41,
            conservation_atol=1e-9,
        )
