"""Counter stream layout: pipeline-level contracts (PR 5 tentpole).

The ``rng_policy="counter"`` layout must match the scalar reference *in
law* (KS over first-hitting rounds), be same-seed deterministic, and —
for the static weighted cells, whose draw sites consume a fixed number
of uniforms per replica per round — stay resize prefix-stable. The
spawned layout's bit-identity contracts are covered by the existing
engine suites; this module pins the counter layout's own guarantees plus
the routing/validation rules that keep the two policies from being
silently mixed up.

``TestPolicyMatrix`` runs the measurement pipeline under whichever
policy the pytest invocation selects (``--rng-policy``, default
spawned); CI runs the fast tier once per policy.

Three pins close the module:

* **one reference fill** — :func:`repro.utils.rng.philox_uniforms`
  (raw Philox words, converted in numpy's own way) equals
  ``Generator(Philox(key)).random`` bit for bit at any start word;
* **counter goldens** — counter-policy measurements at fixed seeds;
* **sparse-row regression** — ``CounterStreams.site_uniforms`` with
  retired (non-contiguous) rows returns exactly what the full-span
  gather returns, and builds a second generator only across a gap
  that costs more to draw than to skip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import measure_convergence_rounds
from repro.core.protocols import (
    PerTaskThresholdProtocol,
    SelfishUniformProtocol,
    SelfishWeightedProtocol,
)
from repro.core.stopping import NashStop, PotentialThresholdStop
from repro.errors import ValidationError
from repro.experiments.executor import CellSpec, run_cell
from repro.graphs.generators import cycle_graph, star_graph, torus_graph
from repro.model.batch import BatchUniformState, BatchWeightedState
from repro.model.placement import adversarial_placement, place_weighted_random
from repro.model.speeds import two_class_speeds, uniform_speeds
from repro.model.state import UniformState, WeightedState
from repro.model.tasks import two_class_weights
from repro.spectral.eigen import algebraic_connectivity
from repro.theory.constants import psi_critical
from repro.utils.rng import (
    _SPLIT_GAP_WORDS,
    CounterStreams,
    philox_uniforms,
    spawn_rngs,
)

from tests.equivalence import (
    assert_batch_conserves,
    assert_counter_matches_scalar_law,
    assert_prefix_stability,
    assert_same_seed_determinism,
)


def _weighted_cell(n: int = 8, m_per_n: int = 8):
    graph = cycle_graph(n)
    m = m_per_n * n
    speeds = two_class_speeds(n, fast_fraction=0.25, fast_speed=2.0)
    weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)

    def factory(rng: np.random.Generator) -> WeightedState:
        return WeightedState(place_weighted_random(m, n, rng), weights, speeds)

    return graph, factory


def _uniform_cell():
    graph = torus_graph(3)
    n = graph.num_vertices
    m = 8 * n * n
    speeds = uniform_speeds(n)
    lambda2 = algebraic_connectivity(graph)
    threshold = 4.0 * psi_critical(n, graph.max_degree, lambda2, 1.0)

    def factory(rng: np.random.Generator) -> UniformState:
        return UniformState(adversarial_placement(speeds, m), speeds)

    return graph, factory, PotentialThresholdStop(threshold, "psi0")


class TestCounterLawAgreement:
    @pytest.mark.slow
    def test_weighted_first_hits_match_scalar(self):
        graph, factory = _weighted_cell()
        assert_counter_matches_scalar_law(
            graph=graph,
            protocol=SelfishWeightedProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=200,
            max_rounds=50_000,
            seed=42,
        )

    @pytest.mark.slow
    def test_per_task_first_hits_match_scalar(self):
        graph, factory = _weighted_cell()
        assert_counter_matches_scalar_law(
            graph=graph,
            protocol=PerTaskThresholdProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=200,
            max_rounds=50_000,
            seed=42,
        )

    @pytest.mark.slow
    def test_uniform_first_hits_match_scalar(self):
        graph, factory, stopping = _uniform_cell()
        assert_counter_matches_scalar_law(
            graph=graph,
            protocol=SelfishUniformProtocol(),
            state_factory=factory,
            stopping=stopping,
            repetitions=200,
            max_rounds=20_000,
            seed=42,
        )

    def test_weighted_quick_agreement(self):
        """A fast (60-rep) KS sanity check kept in the fast tier."""
        graph, factory = _weighted_cell()
        assert_counter_matches_scalar_law(
            graph=graph,
            protocol=SelfishWeightedProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=60,
            max_rounds=50_000,
            seed=42,
        )


class TestCounterDeterminism:
    def test_weighted_same_seed_bit_identical(self):
        graph, factory = _weighted_cell()

        def run():
            measurement = measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=12,
                max_rounds=50_000,
                seed=7,
                engine="batch",
                rng_policy="counter",
            )
            return (measurement.repetition_rounds,)

        assert_same_seed_determinism(run)

    def test_uniform_same_seed_bit_identical(self):
        graph, factory, stopping = _uniform_cell()

        def run():
            measurement = measure_convergence_rounds(
                graph=graph,
                protocol=SelfishUniformProtocol(),
                state_factory=factory,
                stopping=stopping,
                repetitions=12,
                max_rounds=20_000,
                seed=7,
                engine="batch",
                rng_policy="counter",
            )
            return (measurement.repetition_rounds,)

        assert_same_seed_determinism(run)

    def test_weighted_resize_prefix_stable(self):
        """Counter streams are replica-indexed (Philox counter rows), so
        growing a static weighted ensemble must not perturb the prefix."""
        graph, factory = _weighted_cell()

        def run(repetitions: int):
            measurement = measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=repetitions,
                max_rounds=50_000,
                seed=7,
                engine="batch",
                rng_policy="counter",
            )
            return (measurement.repetition_rounds,)

        assert_prefix_stability(run, small=6, large=14)


class TestCounterKernelInvariants:
    def test_weighted_conservation_with_retirement(self):
        graph, factory = _weighted_cell()
        children = spawn_rngs(3, 8)
        batch = BatchWeightedState.from_states(
            [factory(child) for child in children]
        )
        streams = CounterStreams(3, 8)
        assert_batch_conserves(
            batch,
            SelfishWeightedProtocol(),
            graph,
            streams,
            rounds=40,
            retired=(1, 5),
        )

    def test_uniform_conservation_with_retirement(self):
        graph, factory, _ = _uniform_cell()
        children = spawn_rngs(3, 8)
        batch = BatchUniformState.from_states(
            [factory(child) for child in children]
        )
        streams = CounterStreams(3, 8)
        assert_batch_conserves(
            batch,
            SelfishUniformProtocol(),
            graph,
            streams,
            rounds=40,
            retired=(0, 6),
        )

    def test_weighted_ragged_stack_padding_never_moves(self):
        """Padded (unequal-m) stacks under the counter kernel keep
        padding inert and totals exact."""
        n = 6
        graph = cycle_graph(n)
        speeds = uniform_speeds(n)
        rng = np.random.default_rng(0)
        states = [
            WeightedState(
                place_weighted_random(m, n, rng),
                rng.uniform(0.2, 1.0, size=m),
                speeds,
            )
            for m in (5, 11, 2)
        ]
        batch = BatchWeightedState.from_states(states)
        streams = CounterStreams(5, 3)
        protocol = SelfishWeightedProtocol()
        totals = batch.total_task_weight.copy()
        masks = batch.task_mask.copy()
        for round_index in range(30):
            streams.begin_round(round_index)
            protocol.execute_round_batch(batch, graph, streams, None)
        np.testing.assert_array_equal(batch.task_mask, masks)
        np.testing.assert_allclose(batch.total_task_weight, totals, rtol=0, atol=0)
        assert np.all(batch.task_nodes[~batch.task_mask] == -1)

    def test_isolated_node_cannot_corrupt_saturation(self):
        """Regression: a task on a degree-0 node used to produce edge
        index ``indptr[i] - 1`` (possibly ``-1``), wrapping the
        saturation gather into another replica's edge entries — a
        saturated replica then leaked its flag onto the isolated one."""
        from repro.graphs.graph import Graph

        graph = Graph(3, [(1, 2)])  # node 0 isolated
        speeds = uniform_speeds(3)
        # Replica 0: only an isolated task — its raw flat index is -1,
        # which wraps to the *last* edge entry of the last replica.
        # Replica 1: a heavy imbalance whose saturated direction is
        # exactly that last CSR edge (2 -> 1) under an ablation alpha.
        states = [
            WeightedState(np.array([0]), np.array([1.0]), speeds),
            WeightedState(np.array([2, 2]), np.array([1.0, 1.0]), speeds),
        ]
        batch = BatchWeightedState.from_states(states)
        protocol = SelfishWeightedProtocol(alpha=0.01)
        streams = CounterStreams(1, 2)
        streams.begin_round(0)
        counter = protocol.execute_round_batch(batch.copy(), graph, streams, None)
        spawned = protocol.execute_round_batch(
            batch.copy(), graph, spawn_rngs(1, 2), None
        )
        np.testing.assert_array_equal(counter.saturated, spawned.saturated)
        assert not counter.saturated[0]  # the isolated replica is clean

    def test_isolated_centre_star_matches_law(self):
        """star_graph leaves no isolated nodes, but a degree-0 guard
        path still exists: tasks on a zero-degree node never migrate."""
        # Build a graph with an isolated node by using a star and a
        # detached extra vertex via counts placed on it.
        graph = star_graph(4)
        n = graph.num_vertices
        weights = np.full(10, 0.5)
        rng = np.random.default_rng(1)
        states = [
            WeightedState(rng.integers(0, n, size=10), weights, uniform_speeds(n))
            for _ in range(4)
        ]
        batch = BatchWeightedState.from_states(states)
        streams = CounterStreams(2, 4)
        protocol = SelfishWeightedProtocol()
        for round_index in range(20):
            streams.begin_round(round_index)
            protocol.execute_round_batch(batch, graph, streams, None)
        np.testing.assert_allclose(
            batch.total_task_weight, np.full(4, 5.0), atol=0
        )


class TestCounterRouting:
    def test_scalar_engine_rejects_counter(self):
        graph, factory = _weighted_cell()
        with pytest.raises(ValidationError):
            measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=2,
                max_rounds=10,
                seed=1,
                engine="scalar",
                rng_policy="counter",
            )

    def test_unknown_policy_rejected(self):
        graph, factory = _weighted_cell()
        with pytest.raises(ValidationError):
            measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=2,
                max_rounds=10,
                seed=1,
                rng_policy="philox",
            )

    def test_counter_forces_batch_engine(self):
        graph, factory = _weighted_cell()
        measurement = measure_convergence_rounds(
            graph=graph,
            protocol=SelfishWeightedProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=3,
            max_rounds=50_000,
            seed=1,
            engine="auto",
            rng_policy="counter",
        )
        assert measurement.engine == "batch"

    def test_counter_requires_stackable_states(self):
        """Mixed speed vectors cannot stack, so counter must raise
        rather than silently fall back to the scalar loop."""
        n = 6
        graph = cycle_graph(n)
        m = 12
        weights = np.full(m, 0.5)

        def factory(rng: np.random.Generator) -> WeightedState:
            speeds = rng.uniform(1.0, 2.0, size=n)  # differs per replica
            return WeightedState(
                place_weighted_random(m, n, rng), weights, speeds
            )

        with pytest.raises(ValidationError):
            measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=3,
                max_rounds=10,
                seed=1,
                rng_policy="counter",
            )

    def test_ablation_alpha_weighted_counter_runs(self):
        """The weighted clip is shared per task/edge, so the counter
        kernel accepts ablation alphas exactly like the spawned batch."""
        graph, factory = _weighted_cell()
        measurement = measure_convergence_rounds(
            graph=graph,
            protocol=SelfishWeightedProtocol(alpha=1.0),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=4,
            max_rounds=50_000,
            seed=3,
            rng_policy="counter",
        )
        assert measurement.engine == "batch"


class TestPolicyMatrix:
    """Pipeline smoke under the CLI-selected policy (CI runs both)."""

    def test_weighted_measurement_cell(self, cli_rng_policy):
        measurement = run_cell(
            CellSpec(
                "weighted", "ring", 8, m_factor=8.0, repetitions=3,
                seed=20120716, rng_policy=cli_rng_policy,
            )
        )
        assert measurement.num_converged == measurement.num_repetitions

    def test_scenario_recovery_cell(self, cli_rng_policy):
        cell = run_cell(
            CellSpec(
                "scenario-recovery", "torus", 9, m_factor=8.0, repetitions=10,
                seed=20120716, params=(("horizon", 120), ("tasks", "uniform")),
                rng_policy=cli_rng_policy,
            )
        )
        assert cell.engine == "batch"
        assert cell.num_recovered == cell.num_replicas


def _reference_block(key: np.ndarray, start_word: int, count: int) -> np.ndarray:
    """``count`` uniforms at absolute word ``start_word`` through numpy's
    ``Generator.random``: whole 4-word counter blocks are skipped with
    ``advance``, the sub-block remainder is drawn and dropped."""
    bit_generator = np.random.Philox(key=key)
    bit_generator.advance(start_word // 4)
    generator = np.random.Generator(bit_generator)
    generator.random(start_word % 4)
    return generator.random(count)


class TestReferenceFill:
    """The counter layout's one Philox fill, pinned bit for bit against
    ``np.random.Generator(np.random.Philox(key=key)).random``."""

    KEY = np.array([0x9E3779B97F4A7C15, 0x0123456789ABCDEF], dtype=np.uint64)

    @pytest.mark.parametrize("start_word", [0, 1, 2, 3, 4, 9, 22, 31])
    @pytest.mark.parametrize("count", [0, 1, 37, 4097])
    def test_matches_generator_from_stream_start(self, start_word, count):
        # Independent of advance(): draw from word 0 and slice.
        expected = np.random.Generator(np.random.Philox(key=self.KEY)).random(
            start_word + count
        )[start_word:]
        got = philox_uniforms(self.KEY, start_word, count)
        assert got.dtype == np.float64 and got.shape == (count,)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("start_word", [2**32 + r for r in range(4)])
    @pytest.mark.parametrize("count", [0, 1, 1001])
    def test_matches_generator_beyond_2_pow_32(self, start_word, count):
        np.testing.assert_array_equal(
            philox_uniforms(self.KEY, start_word, count),
            _reference_block(self.KEY, start_word, count),
        )

    def test_long_fill_matches_generator(self):
        # Longer than one raw-conversion chunk, odd, unaligned start.
        count = 2 * 32768 + 5
        np.testing.assert_array_equal(
            philox_uniforms(self.KEY, 7, count),
            _reference_block(self.KEY, 7, count),
        )


class TestCounterGoldens:
    """Counter-policy measurements pinned bit for bit.

    The golden tuples were captured from the measurement pipeline at
    these seeds under the counter layout; any change to a kernel's draw
    order or arithmetic shows here first.
    """

    WEIGHTED_GOLDEN = (37.0, 58.0, 37.0, 38.0, 30.0, 52.0)
    UNIFORM_GOLDEN = (15.0, 15.0, 13.0, 12.0)
    PERTASK_GOLDEN = (41.0, 70.0, 46.0, 89.0)

    def test_weighted_counter_measurement(self):
        measurement = run_cell(
            CellSpec("weighted", "ring", 8, 8.0, 6, 123, rng_policy="counter")
        )
        assert tuple(measurement.repetition_rounds) == self.WEIGHTED_GOLDEN

    def test_uniform_counter_measurement(self):
        measurement = run_cell(
            CellSpec("approx", "ring", 8, 2.0, 4, 77, rng_policy="counter")
        )
        assert tuple(measurement.repetition_rounds) == self.UNIFORM_GOLDEN

    def test_pertask_variant_counter_measurement(self):
        measurement = run_cell(
            CellSpec(
                "weighted-variant",
                "ring",
                12,
                0.0,
                4,
                9,
                params=(
                    ("churn_window", 10),
                    ("m", 60),
                    ("max_rounds", 5000),
                    ("variant", "per-task"),
                ),
                rng_policy="counter",
            )
        )
        assert tuple(measurement.repetition_rounds) == self.PERTASK_GOLDEN
        assert measurement.churn_per_round == pytest.approx(0.7)


def _count_philox_builds(monkeypatch) -> list:
    """Wrap ``np.random.Philox`` so each generator built is recorded."""
    built: list = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return built


def _full_span_gather(seed, num_replicas, round_index, label, rows, width):
    """The reference for any row set: one dense fill of the covering
    span from a fresh layout, gathered at ``rows``."""
    streams = CounterStreams(seed, num_replicas)
    streams.begin_round(round_index)
    low, high = int(rows.min()), int(rows.max())
    dense = streams.site_uniforms(label, np.arange(low, high + 1), width)
    return dense[rows - low]


class TestSparseRowFill:
    """Regression pins for sparse ``site_uniforms`` row sets.

    Retired replicas leave gaps in the active-row set. The fill draws
    the whole covering span with one Philox generator and gathers the
    requested rows, so the words of a gap are drawn and discarded; only
    a gap whose skipped words cost more than building and positioning a
    second generator (``_SPLIT_GAP_WORDS``) splits the span. Words are
    addressed absolutely per row, so either way every returned bit is
    identical to the full-span gather.
    """

    SPARSE_SUM = 11.735004296001582
    SPARSE_COLUMN = (
        0.892313776356578,
        0.17343290593792093,
        0.49751473435806737,
        0.20769237074300784,
        0.391304185325254,
    )
    WINDOWED_SUM = 5.363869821983516
    WINDOWED_HEAD = (
        0.0982179468029648,
        0.5750730201607134,
        0.13388089831970584,
        0.5273813589649956,
    )

    def test_sparse_rows_pinned(self):
        streams = CounterStreams(4242, 10)
        streams.begin_round(3)
        block = streams.site_uniforms(
            "weighted-migrate", np.array([0, 1, 4, 7, 8]), 5
        )
        assert block.shape == (5, 5)
        assert float(block.sum()) == self.SPARSE_SUM
        np.testing.assert_array_equal(block[:, 0], np.array(self.SPARSE_COLUMN))

    def test_windowed_sparse_rows_pinned(self):
        streams = CounterStreams(4242, 6, replica_offset=4, total_replicas=12)
        streams.begin_round(0)
        block = streams.site_uniforms("site-x", np.array([0, 2, 3, 5]), 3)
        assert float(block.sum()) == self.WINDOWED_SUM
        np.testing.assert_array_equal(
            block.ravel()[:4], np.array(self.WINDOWED_HEAD)
        )

    def test_sparse_equals_full_span_gather(self):
        """Run splitting is invisible: gathering from the dense block
        of the covering span gives the identical bits, for sorted,
        unsorted and duplicated row sets."""
        width = 7
        for rows in (
            np.array([2, 3, 9, 10, 11, 30]),
            np.array([5]),
            np.array([11, 2, 2, 30, 9]),
        ):
            streams = CounterStreams(99, 32)
            streams.begin_round(4)
            sparse = streams.site_uniforms("site-a", rows, width)
            dense_streams = CounterStreams(99, 32)
            dense_streams.begin_round(4)
            low, high = int(rows.min()), int(rows.max())
            dense = dense_streams.site_uniforms(
                "site-a", np.arange(low, high + 1), width
            )
            np.testing.assert_array_equal(sparse, dense[rows - low])

    @pytest.mark.parametrize("offset, generators", [(-1, 1), (1, 2)])
    def test_split_threshold(self, monkeypatch, offset, generators):
        """A gap one row below the threshold is drawn through; one row
        above it gets a second generator. Both give the same bits."""
        width = 512
        gap = _SPLIT_GAP_WORDS // width + offset
        rows = np.array([0, 1, 2 + gap, 3 + gap])
        expected = _full_span_gather(31, 16, 2, "site-g", rows, width)
        built = _count_philox_builds(monkeypatch)
        streams = CounterStreams(31, 16)
        streams.begin_round(2)
        block = streams.site_uniforms("site-g", rows, width)
        assert len(built) == generators
        np.testing.assert_array_equal(block, expected)

    def test_windowed_layout_with_retired_holes(self, monkeypatch):
        """A shard with retired holes returns the monolithic layout's
        rows for its global indices, from one generator."""
        offset, rows = 30, np.array([0, 2, 3, 7, 8, 19])
        expected = _full_span_gather(88, 64, 6, "weighted-migrate", rows + offset, 40)
        built = _count_philox_builds(monkeypatch)
        window = CounterStreams(88, 20, replica_offset=offset, total_replicas=64)
        window.begin_round(6)
        block = window.site_uniforms("weighted-migrate", rows, 40)
        assert len(built) == 1
        np.testing.assert_array_equal(block, expected)

    def test_retirement_shaped_rows_build_at_most_two_generators(
        self, monkeypatch
    ):
        """40 of 64 replicas still active in 15 runs at width 512: the
        shape a convergence run leaves behind. Run-by-run filling built
        15 generators here."""
        runs = (3, 2, 4, 3, 2, 3, 2, 3, 3, 2, 3, 2, 3, 3, 2)
        gaps = (2, 1, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2)
        rows, start = [], 1
        for length, gap in zip(runs, gaps + (0,)):
            rows.extend(range(start, start + length))
            start += length + gap
        rows = np.array(rows)
        assert rows.size == 40 and rows.max() < 64
        assert np.count_nonzero(np.diff(rows) > 1) + 1 == 15
        expected = _full_span_gather(5, 64, 11, "weighted-migrate", rows, 512)
        built = _count_philox_builds(monkeypatch)
        streams = CounterStreams(5, 64)
        streams.begin_round(11)
        block = streams.site_uniforms("weighted-migrate", rows, 512)
        assert len(built) <= 2
        np.testing.assert_array_equal(block, expected)
