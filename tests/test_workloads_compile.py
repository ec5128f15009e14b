"""Compiled-trace replay: determinism and the byte-identity matrix.

The trace compiler's contract is that a compiled schedule consumes zero
replica-stream randomness, so a replay is byte-identical across

* engines (scalar vs batch, for weighted task systems),
* both RNG policies (same ``num_tasks`` trajectory; same full state
  per policy),
* worker/shard windows vs the monolithic ensemble,
* a trace that went through save/load vs the in-memory original.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ModelError, ValidationError
from repro.graphs import complete_graph, torus_graph
from repro.model import (
    BatchUniformState,
    BatchWeightedState,
    UniformState,
    WeightedState,
    two_class_weights,
)
from repro.scenarios import (
    AdversarialArrival,
    ScenarioRunner,
    TraceArrival,
    TraceDeparture,
    TraceRelocation,
)
from repro.scenarios.runner import merge_replica_results
from repro.workloads import build_workload, compile_trace, load_trace, save_trace
from repro.workloads.compiler import compile_event
from repro.workloads.trace import TraceEvent, task_timeline


def make_runner(trace, tasks="weighted"):
    from repro.experiments.scenario_cells import _scenario_setup

    graph = torus_graph(3)
    assert trace.num_nodes == graph.num_vertices
    protocol, target, factory = _scenario_setup(graph, tasks, trace.initial_tasks)
    runner = ScenarioRunner(
        graph, protocol, compile_trace(trace), target=target
    )
    return runner, factory


def result_arrays(result):
    return {
        "psi0": result.psi0,
        "num_tasks": result.num_tasks,
        "total_weight": result.total_weight,
        "max_load_difference": result.max_load_difference,
        "nash_violation": result.nash_violation,
    }


def assert_byte_identical(first, second):
    """Exact equality on every observable except ``total_weight``.

    ``total_weight`` is a float reduction over the weighted stack's
    padded slot axis, whose width can differ between shard windows and
    the monolithic stack (compaction triggers on the stack-wide
    maximum), so its pairwise-summation grouping — not its value — is
    width-dependent. The repo-wide convention (tests/equivalence.py)
    compares it at ``atol=1e-9``; everything else is byte-exact.
    """
    for name, values in result_arrays(first).items():
        if name == "total_weight":
            np.testing.assert_allclose(
                values, result_arrays(second)[name], atol=1e-9, err_msg=name
            )
        else:
            np.testing.assert_array_equal(
                values, result_arrays(second)[name], err_msg=name
            )


@pytest.fixture(scope="module")
def trace():
    return build_workload(
        "mmpp-flash", num_nodes=9, horizon=30, seed=11, initial_tasks=60
    )


class TestCompiler:
    def test_compiled_schedule_is_deterministic(self, trace):
        schedule = compile_trace(trace)
        assert schedule.is_deterministic
        assert len(schedule.entries) == trace.num_events

    def test_compile_is_reproducible(self, trace):
        assert compile_trace(trace).entries == compile_trace(trace).entries

    def test_arrival_targets_pass_through_uncopied(self, trace):
        arrivals = [e for e in trace.events if e.kind == "arrival"]
        assert arrivals
        for event in arrivals:
            compiled = compile_event(event)
            assert compiled.targets is event.targets
            assert compiled == TraceArrival(tuple(event.targets.tolist()), event.weight)

    def test_compiled_arrival_equality_hash_and_pickle(self):
        event = TraceArrival(targets=(4, 0, 4), weight=0.5)
        assert hash(event) == hash(TraceArrival(np.array([4, 0, 4]), 0.5))
        assert event != TraceArrival(targets=(4, 0, 4), weight=1.0)
        assert event != TraceArrival(targets=(4, 0), weight=0.5)
        copy = pickle.loads(pickle.dumps(event))
        assert copy == event and not copy.targets.flags.writeable

    def test_event_kinds_map_to_deterministic_events(self):
        cases = {
            TraceEvent(round_index=0, kind="arrival", targets=(1, 2)): TraceArrival,
            TraceEvent(round_index=0, kind="departure", count=2): TraceDeparture,
            TraceEvent(
                round_index=0, kind="relocation", node=1, fraction=0.5
            ): TraceRelocation,
            TraceEvent(round_index=0, kind="adversarial", count=3): AdversarialArrival,
        }
        for trace_event, expected in cases.items():
            compiled = compile_event(trace_event)
            assert isinstance(compiled, expected)
            assert compiled.deterministic

    def test_compile_validates(self):
        bad = build_workload(
            "mmpp", num_nodes=4, horizon=10, seed=1, initial_tasks=10
        )
        object.__setattr__(bad, "initial_tasks", 0)  # break departure safety
        with pytest.raises(ValidationError):
            compile_trace(bad)


class TestSaveLoadReplayIdentity:
    def test_loaded_trace_replays_byte_identical(self, trace, tmp_path):
        """generate -> save -> load -> compile -> run == generate -> compile -> run."""
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        for policy in ("spawned", "counter"):
            runner, factory = make_runner(trace)
            direct = runner.run_ensemble(
                factory, 4, trace.horizon, seed=5, engine="batch",
                rng_policy=policy,
            )
            runner_loaded, factory_loaded = make_runner(loaded)
            replayed = runner_loaded.run_ensemble(
                factory_loaded, 4, trace.horizon, seed=5, engine="batch",
                rng_policy=policy,
            )
            assert_byte_identical(direct, replayed)


class TestReplayIdentityMatrix:
    @pytest.mark.parametrize("policy", ["spawned", "counter"])
    def test_sharded_equals_monolithic(self, trace, policy):
        """Replica windows merge byte-identically under both policies.

        Counter-policy windows are only legal because the compiled
        schedule is deterministic and the weighted kernel is
        counter-shardable — exactly the relaxation this layer adds.
        """
        runner, factory = make_runner(trace)
        monolithic = runner.run_ensemble(
            factory, 6, trace.horizon, seed=9, engine="batch",
            rng_policy=policy,
        )
        shards = []
        for offset, count in ((0, 2), (2, 2), (4, 2)):
            shard_runner, shard_factory = make_runner(trace)
            shards.append(
                shard_runner.run_ensemble(
                    shard_factory, 6, trace.horizon, seed=9, engine="batch",
                    rng_policy=policy, replica_offset=offset,
                    replica_count=count,
                )
            )
        merged = merge_replica_results(shards)
        assert_byte_identical(monolithic, merged)

    def test_scalar_equals_batch_spawned(self, trace):
        """Weighted kernels are pathwise identical across engines."""
        runner, factory = make_runner(trace)
        batch = runner.run_ensemble(
            factory, 3, trace.horizon, seed=4, engine="batch"
        )
        runner_s, factory_s = make_runner(trace)
        scalar = runner_s.run_ensemble(
            factory_s, 3, trace.horizon, seed=4, engine="scalar"
        )
        assert_byte_identical(batch, scalar)

    def test_num_tasks_identical_across_policies(self, trace):
        """Deterministic events fix the task trajectory for *both*
        policies — kernels differ pathwise, the workload does not."""
        results = {}
        for policy in ("spawned", "counter"):
            runner, factory = make_runner(trace)
            results[policy] = runner.run_ensemble(
                factory, 3, trace.horizon, seed=4, engine="batch",
                rng_policy=policy,
            )
        np.testing.assert_array_equal(
            results["spawned"].num_tasks, results["counter"].num_tasks
        )

    def test_trajectory_matches_trace_timeline(self, trace):
        runner, factory = make_runner(trace)
        result = runner.run_ensemble(
            factory, 3, trace.horizon, seed=4, engine="batch"
        )
        expected = task_timeline(trace)
        observed = result.num_tasks
        np.testing.assert_array_equal(
            observed, np.broadcast_to(expected[:, None], observed.shape)
        )

    def test_uniform_counter_window_refused(self, trace):
        """The relaxation is weighted-only: the uniform kernel's
        whole-stack multinomial site cannot shard."""
        runner, factory = make_runner(trace, tasks="uniform")
        with pytest.raises(ValidationError, match="counter"):
            runner.run_ensemble(
                factory, 4, trace.horizon, seed=4, engine="batch",
                rng_policy="counter", replica_offset=0, replica_count=2,
            )


def uniform_pair(counts):
    counts = np.asarray(counts, dtype=np.int64)
    speeds = np.ones(counts.size, dtype=np.float64)
    scalar = UniformState(counts.copy(), speeds)
    batch = BatchUniformState(
        np.stack([counts.copy(), counts.copy()]), speeds
    )
    return scalar, batch


def weighted_pair(task_nodes, num_nodes):
    task_nodes = np.asarray(task_nodes, dtype=np.int64)
    weights = two_class_weights(task_nodes.size, heavy_fraction=0.25,
                                heavy=1.0, light=0.1)
    speeds = np.ones(num_nodes, dtype=np.float64)
    scalar = WeightedState(task_nodes.copy(), weights, speeds)
    batch = BatchWeightedState.from_states(
        [
            WeightedState(task_nodes.copy(), weights, speeds),
            WeightedState(task_nodes.copy(), weights, speeds),
        ]
    )
    return scalar, batch


class TestDeterministicEventSemantics:
    """Unit-level scalar/batch agreement for each compiled event."""

    graph = complete_graph(4)

    def test_trace_arrival_places_exact_targets(self):
        scalar, batch = uniform_pair([1, 0, 2, 0])
        event = TraceArrival(targets=(0, 0, 3))
        outcome = event.apply(scalar, self.graph, None)
        assert outcome.tasks_added == 3
        np.testing.assert_array_equal(scalar.counts, [3, 0, 2, 1])
        batch_outcome = event.apply_batch(batch, self.graph, None)
        np.testing.assert_array_equal(batch_outcome.tasks_added, [3, 3])
        np.testing.assert_array_equal(
            batch.counts, np.stack([scalar.counts, scalar.counts])
        )

    def test_trace_departure_scan_is_deterministic(self):
        scalar, batch = uniform_pair([3, 0, 2, 1])
        event = TraceDeparture(count=4)
        outcome = event.apply(scalar, self.graph, None)
        assert outcome.tasks_removed == 4
        batch_outcome = event.apply_batch(batch, self.graph, None)
        np.testing.assert_array_equal(batch_outcome.tasks_removed, [4, 4])
        np.testing.assert_array_equal(
            batch.counts, np.stack([scalar.counts, scalar.counts])
        )
        assert scalar.num_tasks == 2

    def test_trace_relocation_floor_quota(self):
        scalar, batch = uniform_pair([4, 5, 0, 1])
        event = TraceRelocation(node=2, fraction=0.5)
        before = scalar.num_tasks
        event.apply(scalar, self.graph, None)
        assert scalar.num_tasks == before  # conserving
        # floor(0.5 * [4, 5, _, 1]) = [2, 2, _, 0] moved to node 2
        np.testing.assert_array_equal(scalar.counts, [2, 3, 4, 1])
        event.apply_batch(batch, self.graph, None)
        np.testing.assert_array_equal(
            batch.counts, np.stack([scalar.counts, scalar.counts])
        )

    def test_adversarial_targets_argmax_per_replica(self):
        scalar, _ = uniform_pair([1, 5, 2, 0])
        # Replica 1's hottest node differs from replica 0's.
        batch = BatchUniformState(
            np.array([[1, 5, 2, 0], [6, 1, 2, 0]], dtype=np.int64),
            np.ones(4, dtype=np.float64),
        )
        event = AdversarialArrival(count=2)
        event.apply(scalar, self.graph, None)
        np.testing.assert_array_equal(scalar.counts, [1, 7, 2, 0])
        event.apply_batch(batch, self.graph, None)
        np.testing.assert_array_equal(batch.counts[0], [1, 7, 2, 0])
        np.testing.assert_array_equal(batch.counts[1], [8, 1, 2, 0])

    def test_weighted_departure_takes_lowest_slots(self):
        scalar, batch = weighted_pair([0, 1, 1, 2], num_nodes=4)
        event = TraceDeparture(count=2)
        event.apply(scalar, self.graph, None)
        batch_outcome = event.apply_batch(batch, self.graph, None)
        np.testing.assert_array_equal(batch_outcome.tasks_removed, [2, 2])
        np.testing.assert_array_equal(scalar.num_tasks, 2)
        np.testing.assert_array_equal(batch.num_tasks, [2, 2])
        np.testing.assert_array_equal(
            batch.loads[0], batch.loads[1]
        )
        np.testing.assert_array_equal(scalar.loads, batch.loads[0])


TRACE_EVENTS = [
    TraceArrival(targets=(4, 0, 4, 2)),
    TraceDeparture(count=9, start_node=3),
    TraceRelocation(node=1, fraction=0.3),
    AdversarialArrival(count=3),
]
TRACE_EVENT_IDS = ["arrival", "departure", "relocation", "adversarial"]


class TestTrustedWrite:
    """Compiled trace events write a uniform stack through the trusted
    ``_shift_counts``; the rows and deltas it trusts are proved first."""

    graph = complete_graph(5)

    def test_out_of_range_target_raises_after_a_larger_graph(self):
        event = TraceArrival(targets=(0, 5, 5))
        event.apply_batch(BatchUniformState(np.ones((2, 8)), np.ones(8)), None, None)
        small = BatchUniformState(np.ones((2, 4)), np.ones(4))
        with pytest.raises(ModelError, match="out of range"):
            event.apply_batch(small, None, None)
        np.testing.assert_array_equal(small.counts, np.ones((2, 4)))
        with pytest.raises(ModelError, match="out of range"):
            event.apply(UniformState(np.ones(4, dtype=np.int64), np.ones(4)), None, None)
        _, weighted = weighted_pair([0, 1, 2, 3], num_nodes=4)
        with pytest.raises(ModelError, match="out of range"):
            event.apply_batch(weighted, None, None)

    @pytest.mark.parametrize("event", TRACE_EVENTS, ids=TRACE_EVENT_IDS)
    def test_subset_application_equals_public_adjust_counts(self, event):
        counts = np.random.default_rng(5).integers(0, 6, (4, 5))
        trusted = BatchUniformState(counts, np.ones(5))
        checked = trusted.copy()
        rows = [3, 1]
        event.apply_batch(trusted, self.graph, None, rows)
        deltas = []
        for row in rows:
            state = checked.replica(row)
            event.apply(state, self.graph, None)
            deltas.append(state.counts - counts[row])
        checked.adjust_counts(rows, np.array(deltas))
        np.testing.assert_array_equal(trusted.counts, checked.counts)
        np.testing.assert_array_equal(trusted.counts[[0, 2]], counts[[0, 2]])

    def test_trusted_write_keeps_the_non_negativity_check(self):
        batch = BatchUniformState(np.array([[1, 2, 3], [4, 5, 6]]), np.ones(3))
        with pytest.raises(ModelError, match="negative"):
            batch._shift_counts(np.array([1, 0]), np.array([-2, 0]))
        np.testing.assert_array_equal(batch.counts, [[1, 2, 3], [4, 5, 6]])
        batch._shift_counts(np.array([1]), np.array([-4, 1]))
        np.testing.assert_array_equal(batch.counts, [[1, 2, 3], [0, 6, 6]])

    @pytest.mark.parametrize("kind", ["uniform", "weighted"])
    @pytest.mark.parametrize("event", TRACE_EVENTS, ids=TRACE_EVENT_IDS)
    def test_duplicate_replicas_are_refused(self, event, kind):
        if kind == "uniform":
            batch = BatchUniformState(np.full((3, 5), 4), np.ones(5))
        else:
            batch = BatchWeightedState.from_states(
                [WeightedState(np.arange(10) % 5, np.full(10, 0.5), np.ones(5))] * 3
            )
        before = batch.copy()
        with pytest.raises(ModelError, match="duplicate replica"):
            event.apply_batch(batch, self.graph, None, replicas=[0, 2, 0])
        np.testing.assert_array_equal(batch.loads, before.loads)
