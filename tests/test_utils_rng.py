"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.rng import (
    RNG_POLICIES,
    CounterStreams,
    SpawnedStreams,
    as_stream_layout,
    check_rng_policy,
    derive_seed,
    make_rng,
    make_streams,
    spawn_rngs,
)


class TestMakeRng:
    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).random(5)
        b = make_rng(2).random(5)
        assert not np.allclose(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert make_rng(generator) is generator

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            make_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(ValidationError):
            make_rng("seed")  # type: ignore[arg-type]

    def test_numpy_integer_accepted(self):
        assert isinstance(make_rng(np.int64(7)), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_children_independent_streams(self):
        children = spawn_rngs(7, 2)
        a = children[0].random(10)
        b = children[1].random(10)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        first = [g.random(3) for g in spawn_rngs(9, 3)]
        second = [g.random(3) for g in spawn_rngs(9, 3)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_zero_count(self):
        assert spawn_rngs(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            spawn_rngs(1, -1)

    def test_spawn_from_generator(self):
        generator = np.random.default_rng(3)
        children = spawn_rngs(generator, 2)
        assert len(children) == 2

    def test_generator_input_is_not_mutated(self):
        """Regression: spawning children must not consume the caller's
        spawn counter (it used to call ``seed.spawn(1)`` in a loop)."""
        generator = np.random.default_rng(3)
        sequence = generator.bit_generator.seed_seq
        before = sequence.n_children_spawned
        spawn_rngs(generator, 4)
        assert sequence.n_children_spawned == before
        # The generator's own stream is untouched too.
        reference = np.random.default_rng(3).random(5)
        np.testing.assert_array_equal(generator.random(5), reference)

    def test_generator_input_repeatable(self):
        """Regression: two calls with the same generator used to yield
        silently different streams (each call advanced the spawn
        counter)."""
        generator = np.random.default_rng(3)
        first = [g.random(4) for g in spawn_rngs(generator, 3)]
        second = [g.random(4) for g in spawn_rngs(generator, 3)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_generator_input_matches_one_shot_spawn_numbering(self):
        """Children come from one ``spawn(count)`` call on an unmutated
        copy, so they match spawning directly off the seed sequence."""
        generator = np.random.default_rng(3)
        children = spawn_rngs(generator, 3)
        expected = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(3).spawn(3)
        ]
        for child, reference in zip(children, expected):
            np.testing.assert_array_equal(child.random(4), reference.random(4))

    def test_seed_sequence_input_accepted_and_unmutated(self):
        sequence = np.random.SeedSequence(11)
        first = [g.random(4) for g in spawn_rngs(sequence, 3)]
        assert sequence.n_children_spawned == 0
        second = [g.random(4) for g in spawn_rngs(sequence, 3)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_int_seed_children_unchanged_by_fix(self):
        """The int-seed derivation is part of the reproducibility
        contract: children must equal a direct SeedSequence spawn."""
        children = spawn_rngs(9, 3)
        expected = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(9).spawn(3)
        ]
        for child, reference in zip(children, expected):
            np.testing.assert_array_equal(child.random(4), reference.random(4))

    def test_prefix_stability(self):
        small = [g.random(3) for g in spawn_rngs(5, 2)]
        large = [g.random(3) for g in spawn_rngs(5, 6)]
        for x, y in zip(small, large):
            np.testing.assert_array_equal(x, y)

    def test_offset_window_matches_monolithic_children(self):
        """Child ``offset + k`` of a window equals child ``offset + k``
        of the monolithic spawn — the shard contract."""
        monolithic = [g.random(4) for g in spawn_rngs(5, 7)]
        window = [g.random(4) for g in spawn_rngs(5, 3, offset=2)]
        for got, expected in zip(window, monolithic[2:5]):
            np.testing.assert_array_equal(got, expected)

    def test_offset_zero_is_default_behaviour(self):
        plain = [g.random(4) for g in spawn_rngs(5, 3)]
        explicit = [g.random(4) for g in spawn_rngs(5, 3, offset=0)]
        for x, y in zip(plain, explicit):
            np.testing.assert_array_equal(x, y)

    def test_offset_windows_concatenate_to_monolithic(self):
        monolithic = [g.random(2) for g in spawn_rngs(11, 6)]
        shards = [
            g.random(2)
            for offset, count in ((0, 2), (2, 2), (4, 2))
            for g in spawn_rngs(11, count, offset=offset)
        ]
        for got, expected in zip(shards, monolithic):
            np.testing.assert_array_equal(got, expected)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValidationError):
            spawn_rngs(1, 2, offset=-1)

    def test_offset_does_not_mutate_caller_sequence(self):
        sequence = np.random.SeedSequence(11)
        spawn_rngs(sequence, 2, offset=3)
        assert sequence.n_children_spawned == 0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)

    def test_component_sensitivity(self):
        assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)
        assert derive_seed(5, "a", 1) != derive_seed(5, "b", 1)
        assert derive_seed(5, "a", 1) != derive_seed(6, "a", 1)

    def test_non_negative(self):
        for k in range(20):
            assert derive_seed(k, "x", k) >= 0

    def test_bad_component_type(self):
        with pytest.raises(ValidationError):
            derive_seed(1, 2.5)  # type: ignore[arg-type]

    def test_usable_as_seed(self):
        seed = derive_seed(11, "experiment", 3)
        generator = make_rng(seed)
        assert 0.0 <= generator.random() < 1.0


class TestStreamLayoutPlumbing:
    def test_policies_and_factory(self):
        assert RNG_POLICIES == ("spawned", "counter")
        assert check_rng_policy("spawned") == "spawned"
        with pytest.raises(ValidationError):
            check_rng_policy("philox")
        spawned = make_streams("spawned", 7, 4)
        counter = make_streams("counter", 7, 4)
        assert isinstance(spawned, SpawnedStreams)
        assert isinstance(counter, CounterStreams)
        assert spawned.policy == "spawned" and counter.policy == "counter"
        assert len(spawned) == len(counter) == 4

    def test_spawned_wraps_matching_children(self):
        layout = make_streams("spawned", 7, 3)
        reference = spawn_rngs(7, 3)
        for child, expected in zip(layout.generators, reference):
            np.testing.assert_array_equal(child.random(4), expected.random(4))

    def test_as_stream_layout_wraps_lists_and_passes_layouts(self):
        generators = spawn_rngs(1, 2)
        layout = as_stream_layout(generators)
        assert isinstance(layout, SpawnedStreams)
        assert layout[0] is generators[0]
        assert as_stream_layout(layout) is layout

    def test_cross_policy_access_raises(self):
        counter = CounterStreams(5, 2)
        with pytest.raises(ValidationError):
            counter.generators
        spawned = SpawnedStreams(seed=5, num_replicas=2)
        with pytest.raises(ValidationError):
            spawned.site("anything")


class TestCounterStreams:
    def test_site_before_begin_round_raises(self):
        streams = CounterStreams(3, 2)
        with pytest.raises(ValidationError):
            streams.site("kernel")

    def test_generator_seed_rejected(self):
        with pytest.raises(ValidationError):
            CounterStreams(np.random.default_rng(0), 2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            CounterStreams(-1, 2)

    def test_none_seed_gets_entropy_root(self):
        assert CounterStreams(None, 2).root_seed >= 0

    def test_site_streams_deterministic(self):
        def draw():
            streams = CounterStreams(9, 4)
            streams.begin_round(3)
            return streams.site("kernel").random((4, 5))

        np.testing.assert_array_equal(draw(), draw())

    def test_sites_distinct_within_round(self):
        streams = CounterStreams(9, 4)
        streams.begin_round(0)
        a = streams.site("kernel").random(8)
        b = streams.site("kernel").random(8)
        assert not np.allclose(a, b)  # sequence number separates repeats

    def test_sites_distinct_across_rounds_and_labels(self):
        streams = CounterStreams(9, 4)
        streams.begin_round(0)
        first = streams.site("kernel").random(8)
        second = streams.site("event").random(8)
        streams.begin_round(1)
        third = streams.site("kernel").random(8)
        assert not np.allclose(first, second)
        assert not np.allclose(first, third)

    def test_roots_separate_streams(self):
        values = []
        for root in (1, 2):
            streams = CounterStreams(root, 2)
            streams.begin_round(0)
            values.append(streams.site("kernel").random(8))
        assert not np.allclose(values[0], values[1])

    def test_begin_round_resets_site_sequence(self):
        streams = CounterStreams(9, 4)
        streams.begin_round(0)
        first = streams.site("kernel").random(8)
        streams.begin_round(0)
        again = streams.site("kernel").random(8)
        np.testing.assert_array_equal(first, again)

    def test_row_prefix_independent_of_block_height(self):
        """Replica rows of a site block are a prefix-stable function of
        the row index (row-major Philox counter addressing)."""
        streams = CounterStreams(9, 8)
        streams.begin_round(5)
        tall = streams.site("kernel").random((8, 6))
        streams.begin_round(5)
        short = streams.site("kernel").random((3, 6))
        np.testing.assert_array_equal(short, tall[:3])


class TestCounterStreamWindows:
    """Replica-window (sharded) CounterStreams layouts."""

    def test_site_uniforms_matches_whole_stack_site(self):
        """On a full (unwindowed) stack, the replica-addressed block
        draw reproduces the packed ``site().random((R, M))`` draw."""
        streams = CounterStreams(9, 6)
        streams.begin_round(2)
        packed = streams.site("kernel").random((6, 5))
        streams.begin_round(2)
        addressed = streams.site_uniforms("kernel", np.arange(6), 5)
        np.testing.assert_array_equal(addressed, packed)

    def test_window_rows_match_monolithic_rows(self):
        """A window's rows equal the same global rows of the monolithic
        layout — the counter shard contract."""
        full = CounterStreams(9, 8)
        full.begin_round(3)
        monolithic = full.site_uniforms("kernel", np.arange(8), 4)
        window = CounterStreams(9, 3, replica_offset=2, total_replicas=8)
        window.begin_round(3)
        local = window.site_uniforms("kernel", np.arange(3), 4)
        np.testing.assert_array_equal(local, monolithic[2:5])

    def test_window_gap_rows(self):
        """Non-contiguous (retired-replica) row subsets address their
        own global rows only."""
        full = CounterStreams(9, 8)
        full.begin_round(0)
        monolithic = full.site_uniforms("kernel", np.arange(8), 3)
        window = CounterStreams(9, 4, replica_offset=4, total_replicas=8)
        window.begin_round(0)
        rows = np.array([0, 2, 3])  # local -> global 4, 6, 7
        local = window.site_uniforms("kernel", rows, 3)
        np.testing.assert_array_equal(local, monolithic[[4, 6, 7]])

    def test_windowed_whole_stack_site_refused(self):
        window = CounterStreams(9, 3, replica_offset=2, total_replicas=8)
        window.begin_round(0)
        with pytest.raises(ValidationError, match="windowed"):
            window.site("kernel")
        # The replica-addressed draw is the windowed layout's API.
        window.site_uniforms("kernel", np.arange(3), 2)

    def test_window_properties(self):
        window = CounterStreams(9, 3, replica_offset=2, total_replicas=8)
        assert window.replica_offset == 2
        assert window.total_replicas == 8
        assert window.is_windowed
        assert len(window) == 3
        full = CounterStreams(9, 8)
        assert not full.is_windowed
        assert full.total_replicas == 8

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            CounterStreams(9, 3, replica_offset=-1)
        with pytest.raises(ValidationError):
            CounterStreams(9, 5, replica_offset=4, total_replicas=8)


class TestSamplingPrimitives:
    """The six event primitives: spawned makes each replica's scalar
    calls, counter draws one block per call from one site."""

    ROWS = np.array([0, 2, 3])
    NEED = np.array(
        [[True, True, False], [False, False, False], [True, True, True]]
    )

    @staticmethod
    def _counter(round_index=0):
        streams = CounterStreams(5, 4)
        streams.begin_round(round_index)
        return streams

    def test_spawned_integers_and_random_are_the_scalar_calls(self):
        streams = SpawnedStreams(seed=3, num_replicas=4)
        reference = spawn_rngs(3, 4)
        np.testing.assert_array_equal(
            streams.integers("arrival", self.ROWS, self.NEED, 7),
            np.concatenate(
                [
                    reference[0].integers(0, 7, size=2),
                    reference[3].integers(0, 7, size=3),
                ]
            ),
        )
        np.testing.assert_array_equal(
            streams.random("shock", self.ROWS, self.NEED),
            np.concatenate([reference[0].random(2), reference[3].random(3)]),
        )

    def test_spawned_poisson_columns_are_each_replicas_draws(self):
        streams = SpawnedStreams(seed=3, num_replicas=4)
        block = streams.poisson("churn", self.ROWS, 4.0, 2)
        reference = spawn_rngs(3, 4)
        expected = [[reference[r].poisson(4.0) for _ in range(2)] for r in self.ROWS]
        np.testing.assert_array_equal(block, np.array(expected).T)

    def test_spawned_removal_counts_skip_the_draw_when_clearing(self):
        streams = SpawnedStreams(seed=3, num_replicas=4)
        counts = np.array([[2, 1, 0], [0, 0, 0], [4, 4, 4]])
        k = np.array([3, 0, 5])
        removal = streams.removal_counts("departure", self.ROWS, counts, k)
        np.testing.assert_array_equal(removal[:2], [[2, 1, 0], [0, 0, 0]])
        assert removal[2].sum() == 5
        # Rows 0 and 2 drew nothing: their generators are untouched.
        fresh = spawn_rngs(3, 4)
        assert streams[0].random() == fresh[0].random()
        assert streams[2].random() == fresh[2].random()

    def test_subset_returns_distinct_live_slots_in_row_order(self):
        mask = np.array([[True, False, True, True], [False, True, True, False]])
        k = np.array([2, 1])
        for streams in (SpawnedStreams(seed=3, num_replicas=4), self._counter()):
            positions, slots = streams.subset("departure", np.array([1, 3]), mask, k)
            np.testing.assert_array_equal(positions, [0, 0, 1])
            assert mask[positions, slots].all()
            assert len(set(zip(positions.tolist(), slots.tolist()))) == 3

    def test_counter_integers_mask_a_rectangular_block(self):
        values = self._counter().integers("arrival", self.ROWS, self.NEED, 7)
        block = self._counter().site("arrival").integers(0, 7, size=self.NEED.shape)
        np.testing.assert_array_equal(values, block[self.NEED])

    def test_counter_poisson_block_is_sequential_draws_of_one_site(self):
        block = self._counter().poisson("churn", self.ROWS, 4.0, 2)
        generator = self._counter().site("churn")
        np.testing.assert_array_equal(
            block, [generator.poisson(4.0, size=3), generator.poisson(4.0, size=3)]
        )

    def test_counter_takes_no_site_when_nothing_is_drawn(self):
        streams = self._counter()
        nothing = np.zeros((3, 4), dtype=bool)
        zero = np.zeros(3, dtype=np.int64)
        assert streams.integers("arrival", self.ROWS, nothing, 7).size == 0
        assert streams.random("shock", self.ROWS, nothing).size == 0
        ones = np.ones((3, 4), dtype=np.int64)
        assert not streams.removal_counts("departure", self.ROWS, ones, zero).any()
        assert streams.subset("departure", self.ROWS, ~nothing, zero)[0].size == 0
        assert streams._site_sequence == 0
        streams.binomial("shock", self.ROWS, ones, 0.5)
        assert streams._site_sequence == 1
