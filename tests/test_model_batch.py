"""Tests for repro.model.batch (the replica-stack states)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.potentials import psi0_potential, psi1_potential
from repro.errors import ModelError
from repro.model.batch import BatchUniformState, BatchWeightedState
from repro.model.state import UniformState, WeightedState


def make_batch():
    counts = np.array([[4, 0, 2], [1, 1, 1], [0, 0, 9]])
    return BatchUniformState(counts, [1.0, 1.0, 2.0])


class TestConstruction:
    def test_dimensions(self):
        batch = make_batch()
        assert batch.num_replicas == 3
        assert batch.num_nodes == 3
        np.testing.assert_array_equal(batch.num_tasks, [6, 3, 9])

    def test_rejects_1d(self):
        with pytest.raises(ModelError):
            BatchUniformState([1, 2, 3], [1.0, 1.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            BatchUniformState([[1, -2]], [1.0, 1.0])

    def test_rejects_non_integral(self):
        with pytest.raises(ModelError):
            BatchUniformState([[1.5, 2.0]], [1.0, 1.0])

    def test_coerces_integral_floats(self):
        batch = BatchUniformState([[1.0, 2.0]], [1.0, 1.0])
        assert batch.counts.dtype == np.int64

    def test_speed_length_must_match(self):
        with pytest.raises(Exception):
            BatchUniformState([[1, 2, 3]], [1.0, 1.0])

    def test_from_states(self):
        states = [
            UniformState([4, 0, 2], [1.0, 1.0, 2.0]),
            UniformState([1, 1, 1], [1.0, 1.0, 2.0]),
        ]
        batch = BatchUniformState.from_states(states)
        np.testing.assert_array_equal(batch.counts, [[4, 0, 2], [1, 1, 1]])

    def test_from_states_rejects_mixed_speeds(self):
        states = [
            UniformState([4, 0], [1.0, 1.0]),
            UniformState([1, 1], [1.0, 2.0]),
        ]
        with pytest.raises(ModelError):
            BatchUniformState.from_states(states)

    def test_from_states_rejects_empty(self):
        with pytest.raises(ModelError):
            BatchUniformState.from_states([])

    def test_can_stack_mirrors_from_states(self):
        same = [
            UniformState([4, 0], [1.0, 1.0]),
            UniformState([1, 1], [1.0, 1.0]),
        ]
        mixed_speeds = [
            UniformState([4, 0], [1.0, 1.0]),
            UniformState([1, 1], [1.0, 2.0]),
        ]
        assert BatchUniformState.can_stack(same)
        assert not BatchUniformState.can_stack(mixed_speeds)
        assert not BatchUniformState.can_stack([])
        assert not BatchUniformState.can_stack([object()])

    def test_replicate(self):
        state = UniformState([4, 0, 2], [1.0, 1.0, 2.0])
        batch = BatchUniformState.replicate(state, 4)
        assert batch.num_replicas == 4
        np.testing.assert_array_equal(batch.counts[3], [4, 0, 2])

    def test_replica_round_trip(self):
        batch = make_batch()
        replica = batch.replica(1)
        assert isinstance(replica, UniformState)
        np.testing.assert_array_equal(replica.counts, [1, 1, 1])
        np.testing.assert_array_equal(replica.speeds, batch.speeds)

    def test_replica_out_of_range(self):
        with pytest.raises(ModelError):
            make_batch().replica(3)


class TestDerivedQuantities:
    """Every batched quantity must agree row-wise with the scalar state."""

    def test_rowwise_match(self):
        batch = make_batch()
        for r in range(batch.num_replicas):
            scalar = batch.replica(r)
            np.testing.assert_allclose(batch.loads[r], scalar.loads)
            np.testing.assert_allclose(batch.deviation[r], scalar.deviation)
            np.testing.assert_allclose(
                batch.target_weights[r], scalar.target_weights
            )
            assert batch.max_load_difference[r] == pytest.approx(
                scalar.max_load_difference
            )
            assert batch.average_load[r] == pytest.approx(scalar.average_load)
            assert batch.total_weight[r] == pytest.approx(scalar.total_weight)

    def test_potentials_match_scalar(self):
        batch = make_batch()
        psi0 = batch.psi0_potentials()
        psi1 = batch.psi1_potentials()
        for r in range(batch.num_replicas):
            scalar = batch.replica(r)
            assert psi0[r] == pytest.approx(psi0_potential(scalar))
            assert psi1[r] == pytest.approx(psi1_potential(scalar))

    def test_deviation_rows_sum_to_zero(self):
        np.testing.assert_allclose(
            make_batch().deviation.sum(axis=1), 0.0, atol=1e-9
        )


class TestMutation:
    def test_counts_read_only(self):
        batch = make_batch()
        with pytest.raises(ValueError):
            batch.counts[0, 0] = 5
        with pytest.raises(ValueError):
            batch.speeds[0] = 5.0

    def test_apply_flows(self):
        batch = make_batch()
        sent = np.array([[2, 0, 0], [0, 0, 1]])
        received = np.array([[0, 2, 0], [1, 0, 0]])
        batch.apply_flows([0, 2], sent, received)
        np.testing.assert_array_equal(
            batch.counts, [[2, 2, 2], [1, 1, 1], [1, 0, 8]]
        )

    def test_apply_flows_conservation_enforced(self):
        batch = make_batch()
        sent = np.array([[2, 0, 0]])
        received = np.array([[0, 1, 0]])  # one task vanished
        with pytest.raises(ModelError):
            batch.apply_flows([0], sent, received)

    def test_apply_flows_negative_counts_rejected(self):
        batch = make_batch()
        sent = np.array([[0, 2, 0]])  # node 1 has no tasks in replica 0
        received = np.array([[2, 0, 0]])
        with pytest.raises(ModelError):
            batch.apply_flows([0], sent, received)

    def test_apply_flows_shape_checked(self):
        batch = make_batch()
        with pytest.raises(ModelError):
            batch.apply_flows([0], np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=int))

    def test_copy_independent(self):
        batch = make_batch()
        clone = batch.copy()
        batch.apply_flows(
            [0], np.array([[2, 0, 0]]), np.array([[0, 2, 0]])
        )
        np.testing.assert_array_equal(clone.counts[0], [4, 0, 2])

    def test_repr(self):
        assert "R=3" in repr(make_batch())


def make_weighted_batch():
    """Two replicas with different task counts (padding exercised)."""
    states = [
        WeightedState([0, 1, 1, 2], [0.5, 0.25, 1.0, 0.75], [1.0, 1.0, 2.0]),
        WeightedState([2, 0], [0.3, 0.6], [1.0, 1.0, 2.0]),
    ]
    return BatchWeightedState.from_states(states), states


class TestWeightedConstruction:
    def test_padded_layout(self):
        batch, states = make_weighted_batch()
        assert batch.num_replicas == 2
        assert batch.num_nodes == 3
        assert batch.max_tasks == 4
        np.testing.assert_array_equal(batch.num_tasks, [4, 2])
        np.testing.assert_array_equal(batch.task_nodes[1], [2, 0, -1, -1])
        np.testing.assert_array_equal(batch.task_weights[1], [0.3, 0.6, 0.0, 0.0])
        np.testing.assert_array_equal(
            batch.task_mask, [[True] * 4, [True, True, False, False]]
        )

    def test_rejects_1d(self):
        with pytest.raises(ModelError):
            BatchWeightedState([0, 1], [0.5, 0.5], [1.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ModelError):
            BatchWeightedState([[0, 1]], [[0.5]], [1.0, 1.0])

    def test_rejects_out_of_range_locations(self):
        with pytest.raises(ModelError):
            BatchWeightedState([[0, 5]], [[0.5, 0.5]], [1.0, 1.0])
        with pytest.raises(ModelError):
            BatchWeightedState([[0, -2]], [[0.5, 0.5]], [1.0, 1.0])

    def test_rejects_invalid_weights(self):
        with pytest.raises(ModelError):
            BatchWeightedState([[0, 1]], [[0.5, 1.5]], [1.0, 1.0])
        with pytest.raises(ModelError):
            BatchWeightedState([[0, 1]], [[0.5, 0.0]], [1.0, 1.0])

    def test_from_states_rejects_mixed_speeds(self):
        states = [
            WeightedState([0], [0.5], [1.0, 1.0]),
            WeightedState([0], [0.5], [1.0, 2.0]),
        ]
        with pytest.raises(ModelError):
            BatchWeightedState.from_states(states)
        assert not BatchWeightedState.can_stack(states)

    def test_can_stack_allows_ragged_tasks(self):
        _, states = make_weighted_batch()
        assert BatchWeightedState.can_stack(states)
        assert not BatchWeightedState.can_stack([])
        assert not BatchWeightedState.can_stack(
            [UniformState([1, 2], [1.0, 1.0])]
        )

    def test_replicate(self):
        state = WeightedState([0, 2], [0.5, 0.9], [1.0, 1.0, 2.0])
        batch = BatchWeightedState.replicate(state, 3)
        assert batch.num_replicas == 3
        np.testing.assert_array_equal(batch.task_nodes[2], [0, 2])

    def test_replica_round_trip_strips_padding(self):
        batch, states = make_weighted_batch()
        replica = batch.replica(1)
        assert isinstance(replica, WeightedState)
        np.testing.assert_array_equal(replica.task_nodes, states[1].task_nodes)
        np.testing.assert_array_equal(
            replica.task_weights, states[1].task_weights
        )
        np.testing.assert_allclose(
            replica.node_weights, states[1].node_weights
        )

    def test_replica_out_of_range(self):
        batch, _ = make_weighted_batch()
        with pytest.raises(ModelError):
            batch.replica(2)


class TestWeightedDerivedQuantities:
    """Every batched quantity must agree row-wise with the scalar state."""

    def test_rowwise_match(self):
        batch, states = make_weighted_batch()
        for r, scalar in enumerate(states):
            np.testing.assert_allclose(batch.node_weights[r], scalar.node_weights)
            np.testing.assert_allclose(batch.loads[r], scalar.loads)
            np.testing.assert_allclose(batch.deviation[r], scalar.deviation)
            assert batch.max_load_difference[r] == pytest.approx(
                scalar.max_load_difference
            )
            assert batch.total_weight[r] == pytest.approx(scalar.total_weight)
            assert batch.psi0_potentials()[r] == pytest.approx(
                psi0_potential(scalar)
            )
            assert batch.psi1_potentials()[r] == pytest.approx(
                psi1_potential(scalar)
            )

    def test_loads_for_rows(self):
        batch, states = make_weighted_batch()
        np.testing.assert_allclose(batch.loads_for([1])[0], states[1].loads)

    def test_total_task_weight_ignores_padding(self):
        batch, states = make_weighted_batch()
        np.testing.assert_allclose(
            batch.total_task_weight,
            [state.total_weight for state in states],
        )


class TestWeightedMutation:
    def test_arrays_read_only(self):
        batch, _ = make_weighted_batch()
        with pytest.raises(ValueError):
            batch.task_nodes[0, 0] = 1
        with pytest.raises(ValueError):
            batch.task_weights[0, 0] = 0.9
        with pytest.raises(ValueError):
            batch.task_mask[0, 0] = False

    def test_apply_moves_updates_node_weights(self):
        batch, _ = make_weighted_batch()
        batch.apply_moves([0, 1], [0, 1], [1, 2])
        assert batch.task_nodes[0, 0] == 1
        assert batch.task_nodes[1, 1] == 2
        rebuilt = batch.copy()
        rebuilt.rebuild_node_weights()
        np.testing.assert_allclose(
            batch.node_weights, rebuilt.node_weights, atol=1e-12
        )

    def test_apply_moves_rejects_padding_slot(self):
        batch, _ = make_weighted_batch()
        with pytest.raises(ModelError):
            batch.apply_moves([1], [3], [0])

    def test_apply_moves_rejects_duplicate_task(self):
        batch, _ = make_weighted_batch()
        with pytest.raises(ModelError):
            batch.apply_moves([0, 0], [1, 1], [0, 2])
        # Out of row-major order, the duplicate is not adjacent.
        with pytest.raises(ModelError, match="at most once"):
            batch.apply_moves([0, 1, 0], [1, 0, 1], [0, 2, 2])

    def test_apply_moves_accepts_unsorted_unique_moves(self):
        batch, _ = make_weighted_batch()
        batch.apply_moves([1, 0], [0, 1], [2, 1])
        assert batch.task_nodes[1, 0] == 2
        assert batch.task_nodes[0, 1] == 1

    def test_apply_moves_rejects_bad_destination(self):
        batch, _ = make_weighted_batch()
        with pytest.raises(ModelError):
            batch.apply_moves([0], [0], [7])

    def test_copy_independent(self):
        batch, _ = make_weighted_batch()
        clone = batch.copy()
        batch.apply_moves([0], [0], [2])
        assert clone.task_nodes[0, 0] == 0

    def test_repr(self):
        batch, _ = make_weighted_batch()
        assert "R=2" in repr(batch)


class TestScenarioMutationApis:
    """PR 4 state-mutation APIs backing the scenario events."""

    def test_adjust_counts_changes_totals(self):
        batch = BatchUniformState(np.array([[5, 0], [1, 1]]), np.ones(2))
        batch.adjust_counts([0, 1], np.array([[-2, 3], [0, -1]]))
        np.testing.assert_array_equal(batch.counts, [[3, 3], [1, 0]])

    def test_adjust_counts_rejects_negative_result(self):
        batch = BatchUniformState(np.array([[5, 0]]), np.ones(2))
        with pytest.raises(ModelError):
            batch.adjust_counts([0], np.array([[-10, 0]]))

    def test_adjust_counts_rejects_duplicate_rows(self):
        """Fancy-index assignment would silently keep only the last
        duplicate's delta."""
        batch = BatchUniformState(np.array([[5, 5]]), np.ones(2))
        with pytest.raises(ModelError, match="duplicate replica"):
            batch.adjust_counts([0, 0], np.array([[1, 0], [0, 1]]))

    def test_weighted_add_remove_roundtrip(self):
        from repro.model.state import WeightedState

        states = [
            WeightedState([0, 1], [0.5, 0.2], np.ones(3)),
            WeightedState([2], [0.9], np.ones(3)),
        ]
        batch = BatchWeightedState.from_states(states)
        batch.add_tasks([1, 1], [0, 2], [0.3, 0.4])
        np.testing.assert_array_equal(batch.num_tasks, [2, 3])
        # Appended after the last live slot, preserving live order.
        np.testing.assert_allclose(
            batch.replica(1).task_weights, [0.9, 0.3, 0.4]
        )
        batch.remove_tasks([1], [1])  # drop the 0.3 task
        np.testing.assert_allclose(batch.replica(1).task_weights, [0.9, 0.4])
        rebuilt = batch.copy()
        rebuilt.rebuild_node_weights()
        np.testing.assert_allclose(
            batch.node_weights, rebuilt.node_weights, atol=1e-12
        )

    def test_remove_rejects_padding_and_duplicates(self):
        from repro.model.state import WeightedState

        batch = BatchWeightedState.from_states(
            [
                WeightedState([0, 1], [0.5, 0.2], np.ones(3)),
                WeightedState([2], [0.9], np.ones(3)),
            ]
        )
        with pytest.raises(ModelError, match="padding"):
            batch.remove_tasks([1], [1])
        with pytest.raises(ModelError, match="duplicate"):
            batch.remove_tasks([0, 0], [1, 1])

    def test_compact_preserves_live_order(self):
        from repro.model.state import WeightedState

        batch = BatchWeightedState.from_states(
            [WeightedState([0, 1, 2, 0], [0.1, 0.2, 0.3, 0.4], np.ones(3))]
        )
        batch.remove_tasks([0, 0], [0, 2])
        before = batch.replica(0)
        batch.compact()
        assert batch.max_tasks == 2
        after = batch.replica(0)
        np.testing.assert_array_equal(before.task_nodes, after.task_nodes)
        np.testing.assert_allclose(before.task_weights, after.task_weights)

    def test_rescale_speed_shared(self):
        batch = BatchUniformState(np.array([[5, 0], [1, 1]]), np.ones(2))
        batch.rescale_speed(0, 2.0)
        assert batch.speeds[0] == 2.0
        with pytest.raises(Exception):
            batch.rescale_speed(0, -1.0)
