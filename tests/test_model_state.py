"""Tests for repro.model.state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError, SpeedError
from repro.model.state import UniformState, WeightedState


class TestUniformState:
    def test_basic_quantities(self):
        state = UniformState([4, 0, 2], [1.0, 1.0, 2.0])
        assert state.num_nodes == 3
        assert state.num_tasks == 6
        assert state.total_weight == 6.0
        assert state.total_speed == 4.0
        assert state.average_load == pytest.approx(1.5)
        np.testing.assert_allclose(state.loads, [4.0, 0.0, 1.0])

    def test_target_and_deviation(self):
        state = UniformState([4, 0, 2], [1.0, 1.0, 2.0])
        np.testing.assert_allclose(state.target_weights, [1.5, 1.5, 3.0])
        np.testing.assert_allclose(state.deviation, [2.5, -1.5, -1.0])
        assert state.deviation.sum() == pytest.approx(0.0)

    def test_max_load_difference(self):
        state = UniformState([4, 0, 2], [1.0, 1.0, 2.0])
        assert state.max_load_difference == pytest.approx(2.5)

    def test_float_counts_coerced_when_integral(self):
        state = UniformState(np.array([1.0, 2.0]), [1.0, 1.0])
        assert state.counts.dtype == np.int64

    def test_non_integral_counts_rejected(self):
        with pytest.raises(ModelError):
            UniformState([1.5, 2.0], [1.0, 1.0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ModelError):
            UniformState([-1, 2], [1.0, 1.0])

    def test_bad_speeds_rejected(self):
        with pytest.raises(SpeedError):
            UniformState([1, 2], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(Exception):
            UniformState([1, 2], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            UniformState([], [])


class TestUniformStateMoves:
    def test_simple_move(self):
        state = UniformState([5, 0], [1.0, 1.0])
        state.apply_moves([0], [1], [3])
        np.testing.assert_array_equal(state.counts, [2, 3])

    def test_simultaneous_exchange(self):
        """A node may send and receive in the same concurrent round."""
        state = UniformState([3, 3], [1.0, 1.0])
        state.apply_moves([0, 1], [1, 0], [3, 3])
        np.testing.assert_array_equal(state.counts, [3, 3])

    def test_mass_conserved(self, rng):
        state = UniformState([10, 10, 10, 10], np.ones(4))
        state.apply_moves([0, 1, 2], [1, 2, 3], [4, 5, 6])
        assert state.num_tasks == 40

    def test_overdraw_rejected(self):
        state = UniformState([2, 0], [1.0, 1.0])
        with pytest.raises(ModelError, match="negative"):
            state.apply_moves([0], [1], [5])

    def test_negative_amount_rejected(self):
        state = UniformState([2, 0], [1.0, 1.0])
        with pytest.raises(ModelError):
            state.apply_moves([0], [1], [-1])

    def test_misaligned_arrays_rejected(self):
        state = UniformState([2, 0], [1.0, 1.0])
        with pytest.raises(ModelError):
            state.apply_moves([0], [1, 0], [1])

    def test_copy_independent(self):
        state = UniformState([5, 0], [1.0, 1.0])
        clone = state.copy()
        state.apply_moves([0], [1], [2])
        np.testing.assert_array_equal(clone.counts, [5, 0])

    def test_repr(self):
        assert "m=5" in repr(UniformState([5, 0], [1.0, 1.0]))


class TestWeightedState:
    def test_node_weights_from_assignment(self):
        state = WeightedState([0, 0, 1], [0.5, 0.25, 1.0], [1.0, 2.0])
        np.testing.assert_allclose(state.node_weights, [0.75, 1.0])
        np.testing.assert_allclose(state.loads, [0.75, 0.5])
        assert state.num_tasks == 3
        assert state.total_weight == pytest.approx(1.75)

    def test_tasks_on(self):
        state = WeightedState([0, 1, 0], [0.5, 0.5, 0.5], [1.0, 1.0])
        np.testing.assert_array_equal(state.tasks_on(0), [0, 2])
        np.testing.assert_array_equal(state.tasks_on(1), [1])

    def test_tasks_on_bad_node(self):
        state = WeightedState([0], [0.5], [1.0, 1.0])
        with pytest.raises(ModelError):
            state.tasks_on(5)

    def test_bad_location_rejected(self):
        with pytest.raises(ModelError):
            WeightedState([2], [0.5], [1.0, 1.0])

    def test_bad_weight_rejected(self):
        with pytest.raises(ModelError):
            WeightedState([0], [1.5], [1.0, 1.0])

    def test_weights_read_only(self):
        state = WeightedState([0], [0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            state.task_weights[0] = 0.9


class TestWeightedStateMoves:
    def test_move_updates_incrementally(self):
        state = WeightedState([0, 0], [0.5, 0.25], [1.0, 1.0])
        state.apply_moves([1], [1])
        np.testing.assert_allclose(state.node_weights, [0.5, 0.25])
        np.testing.assert_array_equal(state.task_nodes, [0, 1])

    def test_total_weight_conserved(self, weighted_state_ring8, rng):
        before = weighted_state_ring8.total_weight
        tasks = rng.choice(60, size=10, replace=False)
        destinations = rng.integers(0, 8, size=10)
        weighted_state_ring8.apply_moves(tasks, destinations)
        assert weighted_state_ring8.total_weight == pytest.approx(before)

    def test_duplicate_task_rejected(self):
        state = WeightedState([0, 0], [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ModelError, match="at most once"):
            state.apply_moves([0, 0], [1, 1])

    def test_empty_moves_noop(self):
        state = WeightedState([0], [0.5], [1.0, 1.0])
        state.apply_moves([], [])
        np.testing.assert_array_equal(state.task_nodes, [0])

    def test_out_of_range_task(self):
        state = WeightedState([0], [0.5], [1.0, 1.0])
        with pytest.raises(ModelError):
            state.apply_moves([5], [1])

    def test_out_of_range_destination(self):
        state = WeightedState([0], [0.5], [1.0, 1.0])
        with pytest.raises(ModelError):
            state.apply_moves([0], [7])

    def test_rebuild_matches_incremental(self, weighted_state_ring8, rng):
        for _ in range(50):
            task = int(rng.integers(0, 60))
            destination = int(rng.integers(0, 8))
            weighted_state_ring8.apply_moves([task], [destination])
        incremental = weighted_state_ring8.node_weights.copy()
        weighted_state_ring8.rebuild_node_weights()
        np.testing.assert_allclose(
            weighted_state_ring8.node_weights, incremental, atol=1e-9
        )

    def test_copy_independent(self):
        state = WeightedState([0, 0], [0.5, 0.5], [1.0, 1.0])
        clone = state.copy()
        state.apply_moves([0], [1])
        np.testing.assert_array_equal(clone.task_nodes, [0, 0])

    def test_repr(self):
        assert "m=2" in repr(WeightedState([0, 0], [0.5, 0.5], [1.0, 1.0]))


class TestReadOnlyViews:
    """The exposed state arrays must not be writable (regression:

    the docstrings promised read-only views but handed out the internal
    writable arrays)."""

    def test_uniform_counts_read_only(self):
        state = UniformState([4, 0, 2], [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            state.counts[0] = 99
        assert state.counts[0] == 4

    def test_uniform_speeds_read_only(self):
        state = UniformState([4, 0, 2], [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            state.speeds[0] = 99.0

    def test_weighted_task_nodes_read_only(self):
        state = WeightedState([0, 1], [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            state.task_nodes[0] = 1

    def test_weighted_speeds_read_only(self):
        state = WeightedState([0, 1], [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            state.speeds[:] = 2.0

    def test_apply_moves_still_works_after_view_access(self):
        state = UniformState([4, 0, 2], [1.0, 1.0, 2.0])
        _ = state.counts  # materialize a read-only view first
        state.apply_moves([0], [1], [2])
        np.testing.assert_array_equal(state.counts, [2, 2, 2])
