"""Tests for the batched weighted-protocol engine (PR 2 tentpole).

The weighted kernels have a contract *stronger* than the uniform
engine's law-level equivalence: per replica they consume randomness in
exactly the scalar kernel's order (one uniform per task for the
neighbour choice, one per task-with-neighbour for the migration
Bernoulli), so batch and scalar runs from identical generator states are
pathwise bit-identical. This file asserts

(a) that pathwise identity, per round and end-to-end, for all three
    weighted protocol variants (flow rule, pseudo-code rule, per-task
    threshold baseline);
(b) the shared equivalence battery (KS agreement at 200 repetitions on
    two graph families, conservation, spawned-stream determinism) via
    ``tests/equivalence.py``;
(c) batched stopping-rule agreement and ``engine="auto"`` routing for
    weighted states.
"""

from __future__ import annotations

import numpy as np
import pytest

from equivalence import (
    assert_batch_conserves,
    assert_engines_agree,
    assert_prefix_stability,
    assert_same_seed_determinism,
    run_both_engines,
)
from repro.analysis.convergence import measure_convergence_rounds
from repro.core.batch import BatchSimulator, run_protocol_batch
from repro.core.protocols import (
    PerTaskThresholdProtocol,
    SelfishWeightedProtocol,
)
from repro.core.simulator import Simulator
from repro.core.stopping import (
    AnyStop,
    EpsilonNashStop,
    NashStop,
    NeverStop,
    PotentialThresholdStop,
    WeightedExactNashStop,
)
from repro.errors import ProtocolError
from repro.graphs.generators import cycle_graph, torus_graph
from repro.graphs.graph import Graph
from repro.model.batch import BatchUniformState, BatchWeightedState
from repro.model.placement import place_weighted_random
from repro.model.state import WeightedState
from repro.utils.rng import make_rng, spawn_rngs

ALL_WEIGHTED_PROTOCOLS = [
    pytest.param(lambda: SelfishWeightedProtocol(rule="flow"), id="flow"),
    pytest.param(
        lambda: SelfishWeightedProtocol(rule="pseudocode"), id="pseudocode"
    ),
    pytest.param(lambda: PerTaskThresholdProtocol(), id="per-task"),
]


@pytest.fixture
def torus9():
    return torus_graph(3)


@pytest.fixture
def ring8():
    return cycle_graph(8)


def weighted_factory(n, m, speeds=None, low=0.2, high=1.0):
    speeds_array = np.ones(n) if speeds is None else np.asarray(speeds, float)

    def factory(rng):
        weights = rng.uniform(low, high, size=m)
        locations = place_weighted_random(m, n, rng)
        return WeightedState(locations, weights, speeds_array)

    return factory


def make_ensemble(graph, replicas, m, seed, speeds=None):
    """Replica stack + its generators, factory-built like the pipeline.

    Task counts vary per replica (m, m-1, m-2, ...) so the padded layout
    and the active-task mask are genuinely exercised.
    """
    rngs = spawn_rngs(seed, replicas)
    n = graph.num_vertices
    states = []
    for index, rng in enumerate(rngs):
        tasks = max(1, m - index)
        states.append(weighted_factory(n, tasks, speeds=speeds)(rng))
    return BatchWeightedState.from_states(states), rngs


class TestPathwiseIdentity:
    """Batch rounds are bit-identical to scalar rounds, same streams."""

    @pytest.mark.parametrize("make_protocol", ALL_WEIGHTED_PROTOCOLS)
    def test_rounds_bitwise_equal(self, torus9, make_protocol):
        mixed_speeds = np.array(
            [1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 1.0, 2.0]
        )
        batch, _ = make_ensemble(torus9, 4, 30, seed=3, speeds=mixed_speeds)
        scalars = [batch.replica(r) for r in range(4)]
        seeds = [101, 202, 303, 404]
        batch_rngs = [make_rng(s) for s in seeds]
        scalar_rngs = [make_rng(s) for s in seeds]
        batch_protocol = make_protocol()
        scalar_protocol = make_protocol()
        for _ in range(25):
            summary = batch_protocol.execute_round_batch(
                batch, torus9, batch_rngs, None
            )
            for r, (state, rng) in enumerate(zip(scalars, scalar_rngs)):
                scalar_summary = scalar_protocol.execute_round(
                    state, torus9, rng
                )
                assert scalar_summary.tasks_moved == summary.tasks_moved[r]
                assert scalar_summary.weight_moved == pytest.approx(
                    summary.weight_moved[r], abs=1e-12
                )
                assert scalar_summary.saturated == bool(summary.saturated[r])
        for r, state in enumerate(scalars):
            replica = batch.replica(r)
            np.testing.assert_array_equal(replica.task_nodes, state.task_nodes)
            np.testing.assert_array_equal(
                batch.node_weights[r], state.node_weights
            )

    @pytest.mark.parametrize("alpha", [None, 0.3], ids=["default-alpha", "alpha0.3"])
    @pytest.mark.parametrize(
        "make_protocol",
        [
            pytest.param(lambda a: SelfishWeightedProtocol(a, "flow"), id="flow"),
            pytest.param(
                lambda a: SelfishWeightedProtocol(a, "pseudocode"), id="pseudocode"
            ),
            pytest.param(lambda a: PerTaskThresholdProtocol(a), id="per-task"),
        ],
    )
    def test_stack_with_holes_bitwise_equal(self, make_protocol, alpha):
        """The live-task-list path of the spawned kernel, against the
        scalar kernel: holes mid-row, an empty and a full replica, and
        tasks on an isolated node (so ``valid`` is not all true)."""
        graph = Graph(10, torus_graph(3).edges, name="torus9+isolated")
        speeds = np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
        rngs = spawn_rngs(17, 5)
        states = [
            WeightedState(
                rng.integers(0, 10, size=m), rng.uniform(0.2, 1.0, size=m), speeds
            )
            for rng, m in zip(rngs, (28, 24, 20, 6, 30))
        ]
        batch = BatchWeightedState.from_states(states)
        batch.remove_tasks([0, 0, 0, 1, 1, 2, 2], [2, 3, 15, 0, 11, 7, 19])
        batch.remove_tasks(np.full(6, 3), np.arange(6))
        assert batch.task_mask[4].all() and not batch.task_mask[3].any()
        assert np.any(batch.task_nodes[batch.task_mask] == 9)
        scalars = [batch.replica(r) for r in range(5)]
        batch_rngs = spawn_rngs(29, 5)
        scalar_rngs = spawn_rngs(29, 5)
        batch_protocol = make_protocol(alpha)
        scalar_protocol = make_protocol(alpha)
        any_saturated = False
        for _ in range(10):
            summary = batch_protocol.execute_round_batch(batch, graph, batch_rngs)
            for r, (state, rng) in enumerate(zip(scalars, scalar_rngs)):
                expected = scalar_protocol.execute_round(state, graph, rng)
                assert summary.tasks_moved[r] == expected.tasks_moved
                assert summary.weight_moved[r] == pytest.approx(
                    expected.weight_moved, abs=1e-12
                )
                assert bool(summary.saturated[r]) == expected.saturated
                np.testing.assert_array_equal(
                    batch.replica(r).task_nodes, state.task_nodes
                )
            any_saturated |= bool(summary.saturated.any())
        assert any_saturated == (alpha is not None)

    def test_end_to_end_stop_rounds_identical(self, ring8):
        """Same seed -> the two engines return the *same* stop rounds.

        (KS agreement below is the distribution-level check; for the
        weighted kernels the pathwise contract makes the engines agree
        sample-by-sample, not just in law.)
        """
        common = dict(
            graph=ring8,
            protocol=SelfishWeightedProtocol(),
            state_factory=weighted_factory(8, 24),
            stopping=NashStop(),
            repetitions=40,
            max_rounds=20_000,
            seed=17,
        )
        batch, scalar = run_both_engines(**common)
        assert batch.all_converged and scalar.all_converged
        np.testing.assert_array_equal(batch.rounds, scalar.rounds)


@pytest.mark.slow
class TestDistributionalEquivalence:
    """Acceptance: KS p > 0.01 at 200 repetitions on two graph families."""

    def test_ks_agreement_ring(self, ring8):
        assert_engines_agree(
            graph=ring8,
            protocol=SelfishWeightedProtocol(),
            state_factory=weighted_factory(8, 24),
            stopping=NashStop(),
            repetitions=200,
            max_rounds=50_000,
            seed=41,
        )

    def test_ks_agreement_torus(self, torus9):
        assert_engines_agree(
            graph=torus9,
            protocol=SelfishWeightedProtocol(),
            state_factory=weighted_factory(9, 27),
            stopping=NashStop(),
            repetitions=200,
            max_rounds=50_000,
            seed=43,
        )


class TestDeterminism:
    def test_same_seed_same_results(self, torus9):
        def run():
            batch, rngs = make_ensemble(torus9, 6, 24, seed=11)
            simulator = BatchSimulator(torus9, SelfishWeightedProtocol())
            result = simulator.run(
                batch, stopping=NashStop(), max_rounds=20_000, rngs=rngs
            )
            return result.stop_rounds.copy(), batch.task_nodes.copy()

        assert_same_seed_determinism(run)

    def test_replicas_reproducible_in_isolation(self, torus9):
        protocol = SelfishWeightedProtocol()

        def run(replicas):
            batch, rngs = make_ensemble(torus9, replicas, 24, seed=5)
            simulator = BatchSimulator(torus9, protocol)
            result = simulator.run(
                batch, stopping=NashStop(), max_rounds=20_000, rngs=rngs
            )
            # Pad task axes to a common width for prefix comparison.
            nodes = np.full((replicas, 24), -1, dtype=np.int64)
            nodes[:, : batch.max_tasks] = batch.task_nodes
            return result.stop_rounds, nodes

        assert_prefix_stability(run, 3, 8)


class TestConservation:
    @pytest.mark.parametrize("make_protocol", ALL_WEIGHTED_PROTOCOLS)
    def test_weight_conserved_every_round(self, torus9, make_protocol):
        batch, rngs = make_ensemble(torus9, 6, 30, seed=2)
        assert_batch_conserves(
            batch, make_protocol(), torus9, rngs, rounds=40, retired=[1, 4]
        )

    def test_moved_weight_reported(self, torus9):
        """From an extreme start the first round must move weight."""
        n = torus9.num_vertices
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.5, 1.0, size=(3, 60))
        nodes = np.zeros((3, 60), dtype=np.int64)
        batch = BatchWeightedState(nodes, weights, np.ones(n))
        summary = SelfishWeightedProtocol().execute_round_batch(
            batch, torus9, spawn_rngs(0, 3), None
        )
        assert np.all(summary.tasks_moved > 0)
        assert np.all(summary.weight_moved > 0)
        # Weight per move lies in the drawn weight range.
        assert np.all(
            summary.weight_moved <= summary.tasks_moved.astype(float)
        )


class TestBatchedStoppingRules:
    """satisfied_batch must agree with scalar satisfied per replica."""

    @pytest.mark.parametrize(
        "rule",
        [
            NashStop(),
            EpsilonNashStop(0.2),
            WeightedExactNashStop(),
            PotentialThresholdStop(40.0, "psi0"),
            PotentialThresholdStop(40.0, "psi1"),
            NeverStop(),
            AnyStop([NashStop(), WeightedExactNashStop()]),
        ],
        ids=["nash", "eps-nash", "weighted-exact", "psi0", "psi1", "never", "any"],
    )
    def test_matches_scalar(self, torus9, rule):
        # A mix of spread-out (likely equilibrium) and concentrated rows.
        batch, _ = make_ensemble(torus9, 8, 20, seed=4)
        nearly_balanced = batch.replica(0)
        rows = np.arange(batch.num_replicas)
        batched = rule.satisfied_batch(batch, torus9, rows)
        scalar = np.array(
            [rule.satisfied(batch.replica(r), torus9) for r in rows]
        )
        np.testing.assert_array_equal(batched, scalar)
        assert nearly_balanced.num_tasks == 20  # fixture sanity

    def test_weighted_exact_nash_empty_nodes_vacuous(self, torus9):
        """Nodes without tasks impose no per-task condition."""
        n = torus9.num_vertices
        nodes = np.full((2, 4), 0, dtype=np.int64)
        weights = np.full((2, 4), 0.5)
        batch = BatchWeightedState(nodes, weights, np.ones(n))
        rule = WeightedExactNashStop()
        rows = np.arange(2)
        batched = rule.satisfied_batch(batch, torus9, rows)
        scalar = np.array(
            [rule.satisfied(batch.replica(r), torus9) for r in rows]
        )
        np.testing.assert_array_equal(batched, scalar)


class TestEngineRouting:
    def test_auto_uses_batch_for_weighted(self, torus9):
        measurement = measure_convergence_rounds(
            graph=torus9,
            protocol=SelfishWeightedProtocol(),
            state_factory=weighted_factory(9, 27),
            stopping=NashStop(),
            repetitions=5,
            max_rounds=20_000,
            seed=6,
        )
        assert measurement.engine == "batch"
        assert measurement.all_converged

    def test_auto_batches_weighted_even_with_ablation_alpha(self, torus9):
        """Weighted kernels clip per task exactly like the scalar kernel,
        so ablation alphas do not force the scalar fallback."""
        measurement = measure_convergence_rounds(
            graph=torus9,
            protocol=SelfishWeightedProtocol(alpha=0.5),
            state_factory=weighted_factory(9, 27),
            stopping=NashStop(),
            repetitions=3,
            max_rounds=20_000,
            seed=7,
        )
        assert measurement.engine == "batch"

    def test_ablation_alpha_engines_still_identical(self, ring8):
        """Pathwise identity holds in the clipped regime too."""
        common = dict(
            graph=ring8,
            protocol=SelfishWeightedProtocol(alpha=1.0),
            state_factory=weighted_factory(8, 24),
            stopping=NashStop(),
            repetitions=20,
            max_rounds=20_000,
            seed=23,
        )
        batch, scalar = run_both_engines(**common)
        np.testing.assert_array_equal(batch.rounds, scalar.rounds)

    @pytest.mark.parametrize("make_protocol", ALL_WEIGHTED_PROTOCOLS)
    def test_batch_state_class_is_weighted(self, make_protocol):
        assert make_protocol().batch_state_class() is BatchWeightedState


class TestKernelContract:
    def test_rejects_uniform_stack(self, torus9):
        n = torus9.num_vertices
        uniform = BatchUniformState(
            np.full((2, n), 3, dtype=np.int64), np.ones(n)
        )
        with pytest.raises(ProtocolError):
            SelfishWeightedProtocol().execute_round_batch(
                uniform, torus9, spawn_rngs(0, 2), None
            )

    def test_rejects_wrong_rng_count(self, torus9):
        batch, _ = make_ensemble(torus9, 4, 12, seed=0)
        with pytest.raises(ProtocolError):
            SelfishWeightedProtocol().execute_round_batch(
                batch, torus9, spawn_rngs(0, 3), None
            )

    def test_rejects_node_mismatch(self, torus9):
        batch, _ = make_ensemble(cycle_graph(5), 2, 10, seed=0)
        with pytest.raises(ProtocolError):
            SelfishWeightedProtocol().execute_round_batch(
                batch, torus9, spawn_rngs(0, 2), None
            )

    def test_run_protocol_batch_weighted(self, torus9):
        batch, _ = make_ensemble(torus9, 3, 18, seed=8)
        result = run_protocol_batch(
            torus9,
            SelfishWeightedProtocol(),
            batch,
            NashStop(),
            max_rounds=20_000,
            seed=9,
        )
        assert result.all_converged
        assert np.all(result.stop_rounds >= 0)
