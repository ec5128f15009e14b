"""Tests for repro.scenarios.events: every event on every state type."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ModelError, ValidationError
from repro.graphs.generators import cycle_graph, star_graph
from repro.model.batch import BatchUniformState, BatchWeightedState
from repro.model.state import UniformState, WeightedState
from repro.scenarios import (
    LoadShock,
    NodeDrain,
    NodeOutage,
    PoissonChurnEvent,
    SpeedChange,
    TaskArrival,
    TaskDeparture,
)
from repro.utils.rng import spawn_rngs


@pytest.fixture
def uniform4():
    return UniformState(np.array([10, 5, 0, 5]), np.ones(4))


@pytest.fixture
def weighted4(rng):
    locations = rng.integers(0, 4, size=30)
    weights = rng.uniform(0.1, 1.0, size=30)
    return WeightedState(locations, weights, np.ones(4))


def _uniform_batch(num_replicas=5, n=4, m=40, seed=3):
    rngs = spawn_rngs(seed, num_replicas)
    counts = np.stack(
        [np.bincount(r.integers(0, n, m), minlength=n) for r in rngs]
    )
    return BatchUniformState(counts, np.ones(n)), rngs


def _weighted_batch(num_replicas=5, n=4, m=20, seed=3):
    rngs = spawn_rngs(seed, num_replicas)
    states = [
        WeightedState(
            r.integers(0, n, m), r.uniform(0.1, 1.0, m), np.ones(n)
        )
        for r in rngs
    ]
    return BatchWeightedState.from_states(states), rngs


class TestTaskArrival:
    def test_targeted_uniform(self, uniform4, rng):
        outcome = TaskArrival(7, node=2).apply(uniform4, None, rng)
        assert uniform4.counts[2] == 7
        assert outcome.tasks_added == 7 and outcome.weight_added == 7.0

    def test_random_uniform_total(self, uniform4, rng):
        TaskArrival(100).apply(uniform4, None, rng)
        assert uniform4.num_tasks == 120

    def test_weighted_appends_in_order(self, weighted4, rng):
        before = weighted4.num_tasks
        outcome = TaskArrival(3, node=1, weight=0.25).apply(weighted4, None, rng)
        assert weighted4.num_tasks == before + 3
        assert np.allclose(weighted4.task_weights[-3:], 0.25)
        assert np.all(weighted4.task_nodes[-3:] == 1)
        assert outcome.weight_added == pytest.approx(0.75)

    def test_zero_noop_consumes_no_randomness(self, uniform4):
        rng = np.random.default_rng(5)
        TaskArrival(0).apply(uniform4, None, rng)
        fresh = np.random.default_rng(5)
        assert rng.integers(0, 1000) == fresh.integers(0, 1000)

    def test_batch_uniform_adds_everywhere(self):
        batch, rngs = _uniform_batch()
        totals = batch.num_tasks.copy()
        outcome = TaskArrival(9).apply_batch(batch, None, rngs)
        np.testing.assert_array_equal(batch.num_tasks, totals + 9)
        np.testing.assert_array_equal(outcome.tasks_added, np.full(5, 9))

    def test_batch_weighted_grows_padded_axis(self):
        batch, rngs = _weighted_batch()
        width = batch.max_tasks
        TaskArrival(4, weight=0.5).apply_batch(batch, None, rngs)
        assert batch.max_tasks == width + 4
        np.testing.assert_array_equal(batch.num_tasks, np.full(5, 24))

    def test_bad_node_rejected(self, uniform4, rng):
        with pytest.raises(ModelError):
            TaskArrival(1, node=9).apply(uniform4, None, rng)

    def test_bad_weight_rejected(self):
        with pytest.raises(ValidationError):
            TaskArrival(1, weight=1.5)
        with pytest.raises(ValidationError):
            TaskArrival(-1)


class TestTaskDeparture:
    def test_removes_exactly(self, uniform4, rng):
        outcome = TaskDeparture(6).apply(uniform4, None, rng)
        assert uniform4.num_tasks == 14
        assert outcome.tasks_removed == 6

    def test_overremoval_clears(self, uniform4, rng):
        TaskDeparture(1000).apply(uniform4, None, rng)
        assert uniform4.num_tasks == 0

    def test_empty_noop(self, rng):
        empty = UniformState(np.zeros(3, dtype=np.int64), np.ones(3))
        assert TaskDeparture(5).apply(empty, None, rng) .tasks_removed == 0

    def test_weighted_removes_weight(self, weighted4, rng):
        total = weighted4.task_weights.sum()
        outcome = TaskDeparture(10).apply(weighted4, None, rng)
        assert weighted4.num_tasks == 20
        assert weighted4.task_weights.sum() == pytest.approx(
            total - outcome.weight_removed
        )

    def test_batch_weighted_marks_padding(self):
        batch, rngs = _weighted_batch()
        outcome = TaskDeparture(5).apply_batch(batch, None, rngs)
        np.testing.assert_array_equal(batch.num_tasks, np.full(5, 15))
        np.testing.assert_array_equal(outcome.tasks_removed, np.full(5, 5))
        rebuilt = batch.copy()
        rebuilt.rebuild_node_weights()
        np.testing.assert_allclose(
            batch.node_weights, rebuilt.node_weights, atol=1e-12
        )


class TestLoadShock:
    def test_full_shock_moves_everything(self, uniform4, rng):
        outcome = LoadShock(1.0, node=0).apply(uniform4, None, rng)
        assert outcome.tasks_relocated == 10
        assert uniform4.counts[0] == 20
        assert uniform4.num_tasks == 20

    def test_conserves_tasks(self, weighted4, rng):
        total = weighted4.task_weights.sum()
        LoadShock(0.5, node=1).apply(weighted4, None, rng)
        assert weighted4.task_weights.sum() == pytest.approx(total)

    def test_batch_uniform_conserves(self):
        batch, rngs = _uniform_batch()
        totals = batch.num_tasks.copy()
        LoadShock(0.7, node=0).apply_batch(batch, None, rngs)
        np.testing.assert_array_equal(batch.num_tasks, totals)

    def test_fraction_validated(self):
        with pytest.raises(ValidationError):
            LoadShock(1.5, node=0)


class TestSpeedChange:
    def test_scalar(self, uniform4, rng):
        loads_before = uniform4.loads.copy()
        SpeedChange(0, 2.0).apply(uniform4, None, rng)
        assert uniform4.speeds[0] == 2.0
        assert uniform4.loads[0] == pytest.approx(loads_before[0] / 2.0)

    def test_batch_shared_speeds(self):
        batch, rngs = _uniform_batch()
        SpeedChange(1, 4.0).apply_batch(batch, None, rngs)
        assert batch.speeds[1] == 4.0

    def test_batch_subset_rejected(self):
        """Speeds are shared across the stack — a subset application
        would desynchronize the untouched replicas."""
        batch, rngs = _uniform_batch()
        with pytest.raises(ModelError, match="shared speed"):
            SpeedChange(1, 4.0).apply_batch(batch, None, rngs, replicas=[0])
        with pytest.raises(ModelError, match="shared speed"):
            NodeOutage(1).apply_batch(batch, cycle_graph(4), rngs, replicas=[0])

    def test_factor_validated(self):
        with pytest.raises(ValidationError):
            SpeedChange(0, 0.0)


class TestNodeDrain:
    def test_drains_to_neighbours(self, rng):
        graph = star_graph(5)  # node 0 is the hub
        state = UniformState(np.array([20, 0, 0, 0, 0]), np.ones(5))
        outcome = NodeDrain(0).apply(state, graph, rng)
        assert outcome.tasks_relocated == 20
        assert state.counts[0] == 0
        assert state.num_tasks == 20

    def test_empty_node_noop(self, rng):
        graph = cycle_graph(4)
        state = UniformState(np.array([0, 5, 5, 5]), np.ones(4))
        assert NodeDrain(0).apply(state, graph, rng).tasks_relocated == 0

    def test_weighted_batch_drains(self):
        graph = cycle_graph(4)
        batch, rngs = _weighted_batch()
        NodeDrain(2).apply_batch(batch, graph, rngs)
        live = batch.task_mask
        assert not np.any((batch.task_nodes == 2) & live)

    def test_needs_graph(self, uniform4, rng):
        with pytest.raises(ModelError):
            NodeDrain(0).apply(uniform4, None, rng)


class TestNodeOutage:
    def test_drain_plus_speed(self, rng):
        graph = cycle_graph(4)
        state = UniformState(np.array([8, 2, 2, 2]), np.ones(4))
        outcome = NodeOutage(0, residual_factor=0.5).apply(state, graph, rng)
        assert outcome.tasks_relocated == 8
        assert state.counts[0] == 0
        assert state.speeds[0] == 0.5

    def test_batch(self):
        graph = cycle_graph(4)
        batch, rngs = _uniform_batch()
        NodeOutage(0, residual_factor=0.25).apply_batch(batch, graph, rngs)
        assert batch.speeds[0] == 0.25
        assert np.all(batch.counts[:, 0] == 0)


class TestPoissonChurn:
    def test_stationary_in_expectation(self, rng):
        state = UniformState(np.full(4, 100), np.ones(4))
        event = PoissonChurnEvent(10.0)
        for _ in range(300):
            event.apply(state, None, rng)
        assert 200 <= state.num_tasks <= 600

    def test_weighted_churn(self, weighted4, rng):
        event = PoissonChurnEvent(3.0, weight=0.5)
        for _ in range(50):
            event.apply(weighted4, None, rng)
        assert weighted4.num_tasks > 0
        rebuilt = weighted4.copy()
        rebuilt.rebuild_node_weights()
        np.testing.assert_allclose(
            weighted4.node_weights, rebuilt.node_weights, atol=1e-9
        )

    def test_rate_validated(self):
        with pytest.raises(ValidationError):
            PoissonChurnEvent(-1.0)


class TestBatchScalarPathwise:
    """Batched event application consumes each replica's stream exactly
    as the scalar application does (weighted states: bit-identical)."""

    @pytest.mark.parametrize(
        "event",
        [
            TaskArrival(5, weight=0.5),
            TaskArrival(3, node=1, weight=0.3),
            TaskDeparture(4),
            PoissonChurnEvent(2.0, weight=0.5),
            LoadShock(0.5, node=0),
            NodeDrain(2),
            NodeOutage(1, residual_factor=0.5),
        ],
    )
    def test_weighted_event_pathwise(self, event):
        graph = cycle_graph(4)
        batch, _ = _weighted_batch(num_replicas=4, seed=11)
        scalars = [batch.replica(index) for index in range(4)]
        # Fresh spawned streams at identical positions for both paths.
        rngs_batch = spawn_rngs(99, 4)
        rngs_scalar = spawn_rngs(99, 4)
        event.apply_batch(batch, graph, rngs_batch)
        for index, (state, generator) in enumerate(zip(scalars, rngs_scalar)):
            event.apply(state, graph, generator)
            extracted = batch.replica(index)
            np.testing.assert_array_equal(extracted.task_nodes, state.task_nodes)
            np.testing.assert_allclose(
                extracted.task_weights, state.task_weights, atol=0.0
            )

    @pytest.mark.parametrize(
        "event",
        [TaskDeparture(12), PoissonChurnEvent(12.0, weight=0.5)],
        ids=["departure", "churn"],
    )
    def test_weighted_outcomes_equal_scalar_on_stack_with_holes(self, event):
        """Outcome counts and weights equal the scalar ones bit for bit.

        Eight or more departures per replica is where a weight sum taken
        in another order could differ in the last bit.
        """
        graph = cycle_graph(4)
        batch, _ = _weighted_batch(num_replicas=5, m=40, seed=11)
        # Holes mid-row in replicas 0-2, replica 3 emptied, replica 4 full.
        batch.remove_tasks([0, 0, 1, 2, 2, 2], [3, 17, 0, 5, 6, 30])
        batch.remove_tasks(np.full(40, 3), np.arange(40))
        assert batch.task_mask[4].all() and not batch.task_mask.all()
        scalars = [batch.replica(index) for index in range(5)]
        rngs_batch = spawn_rngs(99, 5)
        rngs_scalar = spawn_rngs(99, 5)
        most_removed = 0
        for _ in range(3):
            outcome = event.apply_batch(batch, graph, rngs_batch)
            for index, (state, generator) in enumerate(zip(scalars, rngs_scalar)):
                expected = event.apply(state, graph, generator)
                assert outcome.tasks_added[index] == expected.tasks_added
                assert outcome.weight_added[index] == expected.weight_added
                assert outcome.tasks_removed[index] == expected.tasks_removed
                assert outcome.weight_removed[index] == expected.weight_removed
                np.testing.assert_array_equal(
                    batch.replica(index).task_nodes, state.task_nodes
                )
            most_removed = max(most_removed, int(outcome.tasks_removed.max()))
        assert most_removed >= 8

    @pytest.mark.parametrize(
        "event",
        [
            TaskArrival(5),
            TaskDeparture(4),
            PoissonChurnEvent(2.0),
            LoadShock(0.5, node=0),
            NodeDrain(2),
        ],
    )
    def test_uniform_event_pathwise(self, event):
        graph = cycle_graph(4)
        batch, _ = _uniform_batch(num_replicas=4, seed=11)
        scalars = [batch.replica(index) for index in range(4)]
        # Fresh spawned streams at identical positions for both paths.
        rngs_batch = spawn_rngs(99, 4)
        rngs_scalar = spawn_rngs(99, 4)
        event.apply_batch(batch, graph, rngs_batch)
        for index, (state, generator) in enumerate(zip(scalars, rngs_scalar)):
            event.apply(state, graph, generator)
            np.testing.assert_array_equal(batch.counts[index], state.counts)


class TestEventValueSemantics:
    def test_events_picklable(self):
        events = [
            TaskArrival(5, node=1, weight=0.5),
            TaskDeparture(3),
            PoissonChurnEvent(2.5),
            LoadShock(0.4, node=2),
            SpeedChange(1, 0.5),
            NodeDrain(0),
            NodeOutage(3),
        ]
        for event in events:
            clone = pickle.loads(pickle.dumps(event))
            assert clone == event

    def test_describe_is_informative(self):
        assert "node 2" in LoadShock(0.5, node=2).describe()
        assert "rate" in PoissonChurnEvent(1.5).describe()


class TestCounterEventPaths:
    """Counter-layout applications: same semantics, block draws.

    Each event's counter path must preserve the event's invariants
    (totals, placement supports, outcome bookkeeping) — the law-level
    agreement with the scalar path is pinned end-to-end in
    ``tests/test_scenarios_runner.py``.
    """

    @staticmethod
    def _streams(num_replicas, seed=7, round_index=0):
        from repro.utils.rng import CounterStreams

        streams = CounterStreams(seed, num_replicas)
        streams.begin_round(round_index)
        return streams

    def test_arrival_uniform_counts(self):
        batch, _ = _uniform_batch()
        streams = self._streams(batch.num_replicas)
        before = batch.num_tasks.copy()
        outcome = TaskArrival(9).apply_batch(batch, None, streams)
        np.testing.assert_array_equal(batch.num_tasks, before + 9)
        np.testing.assert_array_equal(outcome.tasks_added, np.full(5, 9))

    def test_arrival_targeted_consumes_no_site(self):
        batch, _ = _uniform_batch()
        streams = self._streams(batch.num_replicas)
        TaskArrival(4, node=1).apply_batch(batch, None, streams)
        # No site was consumed for a deterministic placement.
        assert streams._site_sequence == 0

    def test_arrival_weighted_appends_in_slot_order(self):
        batch, _ = _weighted_batch()
        streams = self._streams(batch.num_replicas)
        widths = batch.num_tasks.copy()
        TaskArrival(3, weight=0.25).apply_batch(batch, None, streams)
        np.testing.assert_array_equal(batch.num_tasks, widths + 3)
        # The three new tasks occupy the trailing live slots of each row.
        for row in range(batch.num_replicas):
            live = np.flatnonzero(batch.task_mask[row])
            np.testing.assert_allclose(
                batch.task_weights[row, live[-3:]], 0.25
            )

    def test_departure_uniform_removes_exactly(self):
        batch, _ = _uniform_batch()
        streams = self._streams(batch.num_replicas)
        before = batch.num_tasks.copy()
        outcome = TaskDeparture(11).apply_batch(batch, None, streams)
        np.testing.assert_array_equal(batch.num_tasks, before - 11)
        np.testing.assert_array_equal(outcome.tasks_removed, np.full(5, 11))

    def test_departure_uniform_overremoval_clears(self):
        batch, _ = _uniform_batch(m=6)
        streams = self._streams(batch.num_replicas)
        TaskDeparture(1000).apply_batch(batch, None, streams)
        np.testing.assert_array_equal(batch.num_tasks, np.zeros(5, dtype=int))

    def test_departure_weighted_removes_and_accounts_weight(self):
        batch, _ = _weighted_batch()
        streams = self._streams(batch.num_replicas)
        total_before = batch.total_task_weight.copy()
        outcome = TaskDeparture(4).apply_batch(batch, None, streams)
        np.testing.assert_array_equal(
            batch.num_tasks, np.full(5, 16)
        )
        np.testing.assert_allclose(
            total_before - batch.total_task_weight, outcome.weight_removed
        )

    def test_shock_uniform_conserves_and_relocates(self):
        batch, _ = _uniform_batch()
        streams = self._streams(batch.num_replicas)
        before = batch.num_tasks.copy()
        outcome = LoadShock(1.0, node=2).apply_batch(batch, None, streams)
        np.testing.assert_array_equal(batch.num_tasks, before)
        np.testing.assert_array_equal(batch.counts[:, 2], before)
        assert np.all(outcome.tasks_relocated >= 0)

    def test_shock_weighted_fraction_zero_noop(self):
        batch, _ = _weighted_batch()
        streams = self._streams(batch.num_replicas)
        nodes = batch.task_nodes.copy()
        outcome = LoadShock(0.0, node=1).apply_batch(batch, None, streams)
        np.testing.assert_array_equal(batch.task_nodes, nodes)
        np.testing.assert_array_equal(outcome.tasks_relocated, np.zeros(5, int))

    def test_drain_uniform_empties_node(self):
        graph = cycle_graph(4)
        batch, _ = _uniform_batch()
        streams = self._streams(batch.num_replicas)
        before = batch.num_tasks.copy()
        evicted = batch.counts[:, 1].copy()
        outcome = NodeDrain(1).apply_batch(batch, graph, streams)
        np.testing.assert_array_equal(batch.counts[:, 1], 0)
        np.testing.assert_array_equal(batch.num_tasks, before)
        np.testing.assert_array_equal(outcome.tasks_relocated, evicted)
        # Evicted tasks landed on node 1's neighbours only (0 and 2).
        np.testing.assert_array_equal(batch.counts[:, 3], _uniform_batch()[0].counts[:, 3])

    def test_drain_weighted_empties_node(self):
        graph = cycle_graph(4)
        batch, _ = _weighted_batch()
        streams = self._streams(batch.num_replicas)
        NodeDrain(0).apply_batch(batch, graph, streams)
        assert not np.any((batch.task_nodes == 0) & batch.task_mask)

    def test_outage_counter_drains_and_cripples(self):
        graph = cycle_graph(4)
        batch, _ = _uniform_batch()
        streams = self._streams(batch.num_replicas)
        NodeOutage(2, residual_factor=0.5).apply_batch(batch, graph, streams)
        np.testing.assert_array_equal(batch.counts[:, 2], 0)
        assert batch.speeds[2] == pytest.approx(0.5)

    def test_churn_counter_conserves_modulo_outcome(self):
        batch, _ = _uniform_batch()
        streams = self._streams(batch.num_replicas)
        before = batch.num_tasks.copy()
        outcome = PoissonChurnEvent(4.0).apply_batch(batch, None, streams)
        np.testing.assert_array_equal(
            batch.num_tasks,
            before + outcome.tasks_added - outcome.tasks_removed,
        )

    def test_churn_counter_weighted_conserves_modulo_outcome(self):
        batch, _ = _weighted_batch()
        streams = self._streams(batch.num_replicas)
        before = batch.total_task_weight.copy()
        outcome = PoissonChurnEvent(3.0, weight=0.5).apply_batch(
            batch, None, streams
        )
        np.testing.assert_allclose(
            batch.total_task_weight,
            before + outcome.weight_added - outcome.weight_removed,
            atol=1e-12,
        )

    def test_counter_events_deterministic(self):
        def run():
            batch, _ = _uniform_batch()
            streams = self._streams(batch.num_replicas, seed=13)
            PoissonChurnEvent(5.0).apply_batch(batch, None, streams)
            LoadShock(0.4, node=0).apply_batch(batch, None, streams)
            return batch.counts.copy()

        np.testing.assert_array_equal(run(), run())

    def test_speed_change_ignores_layout_policy(self):
        batch, _ = _uniform_batch()
        streams = self._streams(batch.num_replicas)
        SpeedChange(1, 2.0).apply_batch(batch, None, streams)
        assert batch.speeds[1] == pytest.approx(2.0)
