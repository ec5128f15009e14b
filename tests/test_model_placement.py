"""Tests for repro.model.placement."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.model import placement
from repro.model.placement import (
    PLACEMENT_CHUNK,
    adversarial_placement,
    all_on_one_placement,
    counts_from_assignment,
    place_weighted_all_on_one,
    place_weighted_proportional,
    place_weighted_random,
    proportional_placement,
    random_placement,
)


class TestAllOnOne:
    def test_counts(self):
        counts = all_on_one_placement(4, 10, node=2)
        np.testing.assert_array_equal(counts, [0, 0, 10, 0])

    def test_bad_node(self):
        with pytest.raises(PlacementError):
            all_on_one_placement(4, 10, node=4)


class TestAdversarial:
    def test_targets_slowest(self):
        counts = adversarial_placement([3.0, 1.0, 2.0], 7)
        np.testing.assert_array_equal(counts, [0, 7, 0])


class TestRandomPlacement:
    def test_total_preserved(self):
        counts = random_placement(5, 100, seed=0)
        assert counts.sum() == 100

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_placement(5, 50, seed=1), random_placement(5, 50, seed=1)
        )

    def test_roughly_uniform(self):
        counts = random_placement(4, 40000, seed=2)
        assert np.all(np.abs(counts - 10000) < 500)

    @staticmethod
    def _assert_matches_one_shot(n, m):
        rng, one_shot = np.random.default_rng(11), np.random.default_rng(11)
        expected = np.bincount(one_shot.integers(0, n, size=m), minlength=n)
        np.testing.assert_array_equal(random_placement(n, m, seed=rng), expected)
        # The chunked draw leaves the stream where the one-shot draw does.
        assert rng.random() == one_shot.random()

    @pytest.mark.parametrize("offset", [-1, 0, 1, PLACEMENT_CHUNK * 3 // 2])
    def test_chunked_draw_equals_one_shot(self, offset):
        self._assert_matches_one_shot(36, PLACEMENT_CHUNK + offset)

    @pytest.mark.parametrize("n", [7, 36, 1000])
    @pytest.mark.parametrize("m", [0, 1000, 1001, 1002, 2502])
    def test_odd_chunk_boundaries_equal_one_shot(self, monkeypatch, n, m):
        monkeypatch.setattr(placement, "PLACEMENT_CHUNK", 1001)
        self._assert_matches_one_shot(n, m)

    @pytest.mark.parametrize("n", [7, 36, 1000, 2**31 + 5])
    def test_sequential_integers_read_the_stream_as_one_call(self, n):
        # The property the chunked placement relies on, for bounds on
        # either side of 2**32 (numpy's 32- and 64-bit paths).
        rng, one_shot = np.random.default_rng(5), np.random.default_rng(5)
        chunks = [rng.integers(0, n, size=size) for size in (1001, 3, 998, 1)]
        np.testing.assert_array_equal(
            np.concatenate(chunks), one_shot.integers(0, n, size=2003)
        )
        assert rng.random() == one_shot.random()

    def test_peak_memory_is_bounded(self):
        tracemalloc.start()
        try:
            counts = random_placement(36, 10**7, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 10**7
        assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestProportionalPlacement:
    def test_exact_total(self):
        counts = proportional_placement([1.0, 2.0, 3.0], 100)
        assert counts.sum() == 100

    def test_proportionality(self):
        counts = proportional_placement([1.0, 3.0], 400)
        np.testing.assert_array_equal(counts, [100, 300])

    def test_within_one_of_ideal(self):
        speeds = np.array([1.0, 1.7, 2.3, 4.0])
        m = 987
        counts = proportional_placement(speeds, m)
        ideal = m * speeds / speeds.sum()
        assert np.all(np.abs(counts - ideal) < 1.0)

    def test_zero_tasks(self):
        np.testing.assert_array_equal(proportional_placement([1.0, 1.0], 0), [0, 0])

    def test_bad_speeds(self):
        with pytest.raises(PlacementError):
            proportional_placement([1.0, 0.0], 5)


class TestCountsFromAssignment:
    def test_basic(self):
        counts = counts_from_assignment([0, 0, 2], 3)
        np.testing.assert_array_equal(counts, [2, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(PlacementError):
            counts_from_assignment([3], 3)


class TestWeightedPlacements:
    def test_all_on_one(self):
        locations = place_weighted_all_on_one(5, node=3)
        np.testing.assert_array_equal(locations, [3, 3, 3, 3, 3])

    def test_random_range(self):
        locations = place_weighted_random(100, 7, seed=0)
        assert locations.min() >= 0
        assert locations.max() < 7

    def test_proportional_balances_loads(self, rng):
        weights = rng.uniform(0.1, 1.0, size=300)
        speeds = np.array([1.0, 2.0, 1.0, 3.0])
        locations = place_weighted_proportional(weights, speeds, seed=1)
        node_weight = np.bincount(locations, weights=weights, minlength=4)
        loads = node_weight / speeds
        # LPT-style greedy should land within one max task weight of even.
        assert loads.max() - loads.min() <= 1.0

    def test_proportional_bad_speeds(self):
        with pytest.raises(PlacementError):
            place_weighted_proportional([0.5], [0.0])
