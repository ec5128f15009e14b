"""Tests for the parallel sweep executor."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import ConvergenceMeasurement
from repro.errors import ValidationError
from repro.experiments._common import (
    WEIGHTED_SWEEP_QUICK,
    FamilyMeasurement,
    VariantMeasurement,
    _build_variant_cell,
)
from repro.experiments.executor import (
    CELL_KINDS,
    CellSpec,
    execute_cells,
    execute_cells_report,
    group_by_family,
    run_cell,
    run_cell_shard,
    sweep_specs,
)
from repro.experiments.registry import (
    ExperimentResult,
    _REGISTRY,
    register_experiment,
    run_experiment,
)


WEIGHTED_SPECS = sweep_specs(
    "weighted", WEIGHTED_SWEEP_QUICK, m_factor=8.0, repetitions=2, seed=5
)


class TestSweepSpecs:
    def test_family_major_order(self):
        expected = [
            (family, n)
            for family, sizes in WEIGHTED_SWEEP_QUICK.items()
            for n in sizes
        ]
        assert [(s.family, s.n) for s in WEIGHTED_SPECS] == expected

    def test_shared_scalars(self):
        for spec in WEIGHTED_SPECS:
            assert spec.kind == "weighted"
            assert spec.m_factor == 8.0
            assert spec.repetitions == 2
            assert spec.seed == 5
            assert spec.params == ()

    def test_params_sorted_and_hashable(self):
        [spec] = sweep_specs(
            "weighted-variant",
            {"ring": [8]},
            m_factor=2.0,
            repetitions=1,
            seed=1,
            variant="flow",
            engine="auto",
        )
        assert spec.params == (("engine", "auto"), ("variant", "flow"))
        hash(spec)  # specs must stay usable as dict keys / picklable


class TestRunCell:
    def test_known_kinds_cover_all_measurements(self):
        assert set(CELL_KINDS) == {
            "approx",
            "exact",
            "weighted",
            "weighted-variant",
            "scenario-recovery",
            "shock-recovery",
            "churn-band",
            "topology-resilience",
            "workload-replay",
            "workload-adversarial",
        }

    def test_runs_weighted_cell(self):
        cell = run_cell(WEIGHTED_SPECS[0])
        assert isinstance(cell, FamilyMeasurement)
        assert cell.family == WEIGHTED_SPECS[0].family
        assert cell.num_repetitions == 2

    def test_variant_cell_forwards_params(self):
        [spec] = sweep_specs(
            "weighted-variant",
            {"ring": [8]},
            m_factor=10.0,
            repetitions=2,
            seed=3,
            variant="per-task",
            max_rounds=5_000,
        )
        cell = run_cell(spec)
        assert isinstance(cell, VariantMeasurement)
        assert cell.variant == "per-task"
        built = _build_variant_cell(
            "ring", 8, 10.0, seed=3, variant="per-task", max_rounds=5_000
        )
        direct = built.summarize(built.ensemble(repetitions=2))
        assert cell.label == direct.label == "[6]-style per-task"
        assert cell.engine == direct.engine
        assert cell.num_converged == direct.num_converged
        np.testing.assert_array_equal(cell.median_rounds, direct.median_rounds)

    def test_unknown_kind_rejected(self):
        spec = CellSpec("bogus", "ring", 8, 1.0, 1, 1)
        with pytest.raises(ValidationError, match="unknown measurement kind"):
            run_cell(spec)

    @pytest.mark.parametrize(
        "kind, param, value",
        [
            ("exact", "max_budget", "x"),
            ("weighted", "max_budget", "x"),
            ("weighted", "max_budget", -1),
            ("approx", "budget_factor", -1.0),
            ("approx", "budget_factor", "x"),
            ("weighted-variant", "churn_window", 0),
            ("weighted-variant", "churn_window", "x"),
            ("weighted-variant", "churn_window", -2),
        ],
    )
    def test_static_param_values_checked_by_name(self, kind, param, value):
        spec = CellSpec(kind, "ring", 8, 2.0, 2, 1, params=((param, value),))
        with pytest.raises(ValidationError, match=f"{param} must be"):
            run_cell(spec)


class TestExecuteCells:
    def test_serial_matches_pool(self):
        serial = execute_cells(WEIGHTED_SPECS, workers=None)
        pooled = execute_cells(WEIGHTED_SPECS, workers=2)
        assert serial == pooled

    def test_workers_one_is_serial_reference(self):
        assert execute_cells(WEIGHTED_SPECS, workers=1) == execute_cells(
            WEIGHTED_SPECS, workers=None
        )

    def test_order_preserved(self):
        cells = execute_cells(WEIGHTED_SPECS, workers=2)
        assert [(c.family, c.n) for c in cells] == [
            (s.family, s.n) for s in WEIGHTED_SPECS
        ]

    def test_empty_spec_list(self):
        assert execute_cells([], workers=4) == []

    def test_invalid_workers(self):
        for workers in (0, "2", 2.5, True):
            with pytest.raises(ValidationError, match="workers must be"):
                execute_cells(WEIGHTED_SPECS, workers=workers)

    def test_unknown_kind_rejected_before_fanout(self):
        bad = CellSpec("bogus", "ring", 8, 1.0, 1, 1)
        with pytest.raises(ValidationError, match="unknown measurement kind"):
            execute_cells([bad], workers=4)


class TestFailures:
    def test_pooled_failure_cancels_queued_cells_and_names_the_cell(self):
        bad = CellSpec("weighted", "no-such-family", 16, 4.0, 200, 7)
        good = [CellSpec("weighted", "ring", 16, 4.0, 200, 7 + k) for k in range(6)]
        with pytest.raises(ValidationError, match="unknown graph family") as info:
            execute_cells_report([bad, *good], workers=2)
        assert info.value.__notes__ == [
            "in cell (weighted, no-such-family, 16), replicas [0, 200)"
        ]

    @pytest.mark.parametrize(
        "malformed, message",
        [
            (CellSpec("weighted", "ring", 8, 4.0, 2, -3), "seed must be >= 0"),
            (
                CellSpec("approx", "ring", 8, float("nan"), 2, 1),
                "m_factor must be a non-negative finite number",
            ),
            (
                CellSpec("weighted", "ring", 8, 4.0, 2, 1, params=(("bogus", 1),)),
                r"does not take params \['bogus'\]",
            ),
            (
                CellSpec("approx", "ring", 8, 4.0, 2, 1, params=(("seed", 2),)),
                r"does not take params \['seed'\]",
            ),
            (
                CellSpec(
                    "weighted", "ring", 8, 4.0, 2, 1, params=(("replica_count", 1),)
                ),
                r"does not take params \['replica_count'\]",
            ),
        ],
        ids=[
            "negative-seed",
            "nan-m-factor",
            "unknown-param",
            "spec-field-param",
            "window-param",
        ],
    )
    def test_malformed_spec_rejected_before_any_cell_runs(
        self, monkeypatch, malformed, message
    ):
        from repro.experiments import executor

        ran = []
        monkeypatch.setattr(executor, "_run_task", lambda *task: ran.append(task))
        good = CellSpec("weighted", "ring", 8, 4.0, 2, 1)
        with pytest.raises(ValidationError, match=message):
            execute_cells_report([good, malformed], workers=1)
        assert ran == []


# Arbitrary field values: bools, ints, every float including nan and
# the infinities, short strings, null and short lists.
_ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)


def _mostly(valid):
    """``valid`` three draws in four, any value otherwise."""
    return st.sampled_from((valid, valid, valid, _ANY)).flatmap(lambda s: s)


_PARAM_NAMES = st.sampled_from(
    ["engine", "horizon", "tasks", "variant", "workload", "seed", "replica_count"]
) | st.text(max_size=3)
_FIELDS = {
    "kind": st.sampled_from(sorted(CELL_KINDS)),
    "family": st.just("ring"),
    "n": st.integers(1, 16),
    "m_factor": st.floats(0.0, 10.0),
    "repetitions": st.integers(1, 8),
    "seed": st.integers(0, 100),
    "params": st.lists(st.tuples(_PARAM_NAMES, _ANY), max_size=2).map(tuple),
    "rng_policy": st.sampled_from(["spawned", "counter"]),
    "shard_size": st.none() | st.integers(1, 8),
    "target_ci": st.none() | st.floats(0.1, 5.0),
}


_VALID_SPEC = {"kind": "weighted", "family": "ring", "n": 8, "m_factor": 1.0}
_VALID_SPEC |= {"repetitions": 4, "seed": 1}


class TestSpecFuzz:
    @settings(max_examples=300, deadline=None)
    @given(fields=st.fixed_dictionaries({k: _mostly(v) for k, v in _FIELDS.items()}))
    @example(fields={"kind": ["x"]})
    @example(fields={"kind": "weighted", "shard_size": "2"})
    @example(fields={"kind": "weighted", "target_ci": "x"})
    @example(fields={"kind": "weighted", "repetitions": "4", "shard_size": 2})
    def test_check_passes_or_names_the_kind_or_the_field(self, fields):
        from repro.experiments.executor import _check_spec

        spec = CellSpec(**{**_VALID_SPEC, **fields})
        try:
            _check_spec(spec)
        except ValidationError as error:
            text = str(error)
            assert repr(spec.kind) in text or any(
                f"{field} must" in text for field in _FIELDS
            ), text


class TestGroupByFamily:
    def test_groups_preserve_order(self):
        results = [f"{s.family}:{s.n}" for s in WEIGHTED_SPECS]
        grouped = group_by_family(WEIGHTED_SPECS, results)
        assert list(grouped) == list(WEIGHTED_SWEEP_QUICK)
        for family, sizes in WEIGHTED_SWEEP_QUICK.items():
            assert grouped[family] == [f"{family}:{n}" for n in sizes]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="results"):
            group_by_family(WEIGHTED_SPECS, ["only-one"])


class TestRegistryWorkersPassThrough:
    def test_legacy_runner_without_workers_keyword(self):
        """A plain (quick, seed) runner still works under workers=N."""
        experiment_id = "_test-legacy-no-workers"
        calls = []

        @register_experiment(experiment_id)
        def legacy(quick, seed):
            calls.append((quick, seed))
            return ExperimentResult(experiment_id=experiment_id, title="t")

        try:
            result = run_experiment(experiment_id, quick=True, workers=4)
            assert result.experiment_id == experiment_id
            assert calls == [(True, 20120716)]
        finally:
            _REGISTRY.pop(experiment_id, None)

    def test_workers_forwarded_to_aware_runner(self):
        experiment_id = "_test-workers-aware"
        seen = {}

        @register_experiment(experiment_id)
        def aware(quick, seed, workers=None):
            seen["workers"] = workers
            return ExperimentResult(experiment_id=experiment_id, title="t")

        try:
            run_experiment(experiment_id, workers=3)
            assert seen["workers"] == 3
            run_experiment(experiment_id)
            assert seen["workers"] is None
        finally:
            _REGISTRY.pop(experiment_id, None)

    def test_sweep_experiment_identical_at_any_worker_count(self):
        serial = run_experiment("table1-weighted", quick=True, seed=99)
        pooled = run_experiment("table1-weighted", quick=True, seed=99, workers=2)
        assert serial.passed == pooled.passed
        # Measurement data is identical at any worker count; the
        # run_meta record is the one field that (by design) describes
        # the invocation itself.
        serial_data = dict(serial.data)
        pooled_data = dict(pooled.data)
        assert serial_data.pop("run_meta")["workers_effective"] == 1
        assert pooled_data.pop("run_meta")["workers_effective"] == 2
        assert serial_data == pooled_data
        assert serial.series == pooled.series
        rendered = [table.render() for table in serial.tables]
        assert rendered == [table.render() for table in pooled.tables]

    def test_run_meta_records_rng_policy(self):
        result = run_experiment(
            "table1-weighted", quick=True, seed=99, rng_policy="counter"
        )
        meta = result.data["run_meta"]
        assert meta["rng_policy_requested"] == "counter"
        assert meta["rng_policy_effective"] == "counter"

    def test_legacy_runner_warns_on_counter_request(self):
        experiment_id = "_test-legacy-no-rng"

        @register_experiment(experiment_id)
        def legacy(quick, seed):
            return ExperimentResult(experiment_id=experiment_id, title="t")

        try:
            with pytest.warns(RuntimeWarning, match="rng_policy"):
                result = run_experiment(experiment_id, rng_policy="counter")
            meta = result.data["run_meta"]
            assert meta["rng_policy_requested"] == "counter"
            assert meta["rng_policy_effective"] == "spawned"
        finally:
            _REGISTRY.pop(experiment_id, None)


class TestRngPolicySpecs:
    def test_default_policy_is_spawned(self):
        for spec in WEIGHTED_SPECS:
            assert spec.rng_policy == "spawned"

    def test_sweep_specs_thread_policy(self):
        specs = sweep_specs(
            "weighted",
            WEIGHTED_SWEEP_QUICK,
            m_factor=8.0,
            repetitions=2,
            seed=5,
            rng_policy="counter",
        )
        assert all(spec.rng_policy == "counter" for spec in specs)

    def test_counter_cell_matches_spawned_cell_shape(self):
        """A counter cell returns the same measurement type with the
        same configuration fields (only the sample paths differ)."""
        spec = CellSpec(
            kind="weighted",
            family="ring",
            n=8,
            m_factor=2.0,
            repetitions=2,
            seed=5,
            rng_policy="counter",
        )
        counter = run_cell(spec)
        spawned = run_cell(
            CellSpec(
                kind="weighted",
                family="ring",
                n=8,
                m_factor=2.0,
                repetitions=2,
                seed=5,
            )
        )
        assert isinstance(counter, FamilyMeasurement)
        assert (counter.family, counter.n, counter.m) == (
            spawned.family,
            spawned.n,
            spawned.m,
        )
        assert counter.num_converged == counter.num_repetitions


class TestCounterSubprocessDeterminism:
    def test_pickled_counter_cell_reproduces_across_processes(self):
        """The counter layout's keys derive from plain integers (no
        per-process entropy, no object identity), so the *same pickled
        CellSpec* run in a fresh interpreter must reproduce this
        process's result byte-for-byte (compared as pickles) — the
        property that makes counter cells safe to fan over the process
        pool."""
        import os
        import pickle
        import subprocess
        import sys

        import repro

        spec = CellSpec(
            kind="weighted",
            family="ring",
            n=8,
            m_factor=2.0,
            repetitions=3,
            seed=77,
            rng_policy="counter",
        )
        local_result = run_cell(spec)

        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import pickle, sys\n"
            "from repro.experiments.executor import run_cell\n"
            "spec = pickle.loads(sys.stdin.buffer.read())\n"
            "sys.stdout.buffer.write(pickle.dumps(run_cell(spec), protocol=4))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(spec, protocol=4),
            capture_output=True,
            env=env,
            check=True,
        )
        assert completed.stdout == pickle.dumps(local_result, protocol=4)
        assert pickle.loads(completed.stdout) == local_result


def _pickled(value):
    import pickle

    return pickle.dumps(value, protocol=4)


#: One small 4-replica spec per scenario and workload kind.
_SCENARIO_SPECS = [
    CellSpec("scenario-recovery", "ring", 8, 2.0, 4, 9),
    CellSpec("shock-recovery", "ring", 6, 1.0, 4, 9, params=(("num_shocks", 1),)),
    CellSpec(
        "churn-band", "ring", 8, 1.0, 4, 9, params=(("horizon", 40), ("warmup", 10))
    ),
    CellSpec("topology-resilience", "ring", 8, 2.0, 4, 9),
    CellSpec(
        "workload-replay",
        "torus",
        9,
        4.0,
        4,
        9,
        params=(("horizon", 30), ("tasks", "weighted"), ("workload", "diurnal")),
    ),
    CellSpec("workload-adversarial", "torus", 9, 6.0, 4, 9, params=(("horizon", 30),)),
]


class TestShardedExecution:
    """Replica-sharded cells: byte-identical merge at any shard plan."""

    @pytest.mark.parametrize(
        "kind, rng_policy",
        [
            pytest.param("approx", "spawned", id="approx-spawned"),
            pytest.param("exact", "spawned", id="exact-spawned"),
            pytest.param("weighted", "spawned", id="spawned"),
            pytest.param("weighted", "counter", id="counter"),
        ],
    )
    def test_sharded_family_cell_matches_monolithic(self, kind, rng_policy):
        spec = CellSpec(kind, "ring", 8, 2.0, 7, 123, rng_policy=rng_policy)
        monolithic = run_cell(spec)
        for shard_size in (1, 2, 3, 5):
            sharded = execute_cells(
                [replace(spec, shard_size=shard_size)], workers=2
            )[0]
            assert _pickled(sharded) == _pickled(monolithic)

    @pytest.mark.parametrize(
        "spec",
        [
            CellSpec("approx", "ring", 8, 2.0, 4, 9),
            CellSpec("exact", "ring", 6, 4.0, 4, 9),
            CellSpec("weighted", "ring", 8, 2.0, 4, 9),
            CellSpec(
                "weighted-variant", "ring", 8, 2.0, 4, 9,
                params=(("max_rounds", 10_000),),
            ),
            *_SCENARIO_SPECS,
        ],
        ids=lambda spec: spec.kind,
    )
    def test_shard_returns_the_raw_ensemble_result(self, spec):
        """Every kind's shard is its raw windowed ensemble result: one
        partial shape per engine family, merged by the cell."""
        from repro.scenarios import ScenarioResult

        scenario = spec in _SCENARIO_SPECS
        partial = run_cell_shard(spec, 1, 2)
        assert type(partial) is (
            ScenarioResult if scenario else ConvergenceMeasurement
        )
        assert (
            partial.num_replicas if scenario else partial.num_repetitions
        ) == 2

    @pytest.mark.parametrize("rng_policy", ["spawned", "counter"])
    def test_sharded_variant_cell_matches_monolithic(self, rng_policy):
        params = (("max_rounds", 10_000), ("variant", "flow"))
        monolithic = run_cell(
            CellSpec(
                "weighted-variant",
                "ring",
                8,
                2.0,
                5,
                31,
                params=params,
                rng_policy=rng_policy,
            )
        )
        sharded = execute_cells(
            [
                CellSpec(
                    "weighted-variant",
                    "ring",
                    8,
                    2.0,
                    5,
                    31,
                    params=params,
                    rng_policy=rng_policy,
                    shard_size=2,
                )
            ],
            workers=2,
        )[0]
        assert _pickled(sharded) == _pickled(monolithic)
        # The churn probe runs in the variant's summary: the parent
        # replays spawned child 0 once, after merging plain windows.
        assert sharded.probe_converged == monolithic.probe_converged

    @pytest.mark.parametrize(
        "engine", [(), (("engine", "batch"),)], ids=["default", "engine"]
    )
    @pytest.mark.parametrize("spec", _SCENARIO_SPECS, ids=lambda spec: spec.kind)
    def test_sharded_scenario_cell_matches_monolithic(self, spec, engine):
        """Every scenario and workload kind merges its shards into the
        monolithic result, also when the spec names the engine (which
        goes to the ensemble run, never to the cell builder)."""
        spec = replace(spec, params=spec.params + engine)
        monolithic = run_cell(spec)
        sharded = execute_cells([replace(spec, shard_size=2)], workers=2)[0]
        assert _pickled(sharded) == _pickled(monolithic)

    def test_sharded_sweep_serial_matches_pool(self):
        specs = sweep_specs(
            "weighted",
            WEIGHTED_SWEEP_QUICK,
            m_factor=8.0,
            repetitions=4,
            seed=5,
            shard_size=2,
        )
        serial = execute_cells(specs, workers=None)
        pooled = execute_cells(specs, workers=3)
        # Per-cell pickles: pickling the whole list at once lets the
        # memo encode accidental object sharing between cells, which
        # differs between in-process and round-tripped results even
        # when every cell is value- and byte-identical on its own.
        assert [_pickled(c) for c in serial] == [_pickled(c) for c in pooled]
        assert [(c.family, c.n) for c in pooled] == [
            (s.family, s.n) for s in specs
        ]

    def test_counter_unshardable_kinds_refused(self):
        for kind in ("approx", "scenario-recovery"):
            spec = CellSpec(
                kind, "ring", 8, 2.0, 6, 1, rng_policy="counter", shard_size=2
            )
            with pytest.raises(ValidationError, match="cannot shard"):
                run_cell(spec)
            with pytest.raises(ValidationError, match="cannot shard"):
                execute_cells([spec], workers=2)

    def test_counter_shard_size_without_split_is_harmless(self):
        """shard_size >= repetitions never splits, so an unshardable
        counter kind with it still runs (monolithically)."""
        cell = run_cell(
            CellSpec(
                "approx",
                "ring",
                8,
                2.0,
                3,
                1,
                rng_policy="counter",
                shard_size=10,
            )
        )
        assert cell.num_repetitions == 3

    def test_invalid_shard_size_rejected(self):
        with pytest.raises(ValidationError, match="shard_size"):
            run_cell(CellSpec("weighted", "ring", 8, 2.0, 3, 1, shard_size=0))

    def test_pickled_sharded_counter_cell_reproduces_across_processes(self):
        """The sharded-counter analogue of the monolithic subprocess
        test: a pickled sharded spec in a fresh interpreter reproduces
        this process's *monolithic* result byte-for-byte."""
        import os
        import pickle
        import subprocess
        import sys

        import repro

        monolithic = run_cell(
            CellSpec(
                "weighted", "ring", 8, 2.0, 7, 77, rng_policy="counter"
            )
        )
        sharded_spec = CellSpec(
            "weighted",
            "ring",
            8,
            2.0,
            7,
            77,
            rng_policy="counter",
            shard_size=3,
        )

        env = dict(os.environ)
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import pickle, sys\n"
            "from repro.experiments.executor import execute_cells\n"
            "spec = pickle.loads(sys.stdin.buffer.read())\n"
            "[cell] = execute_cells([spec], workers=2)\n"
            "sys.stdout.buffer.write(pickle.dumps(cell, protocol=4))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(sharded_spec, protocol=4),
            capture_output=True,
            env=env,
            check=True,
        )
        assert completed.stdout == pickle.dumps(monolithic, protocol=4)


class TestAdaptiveSizing:
    """target_ci: wave-based adaptive ensemble sizing."""

    SPEC = CellSpec(
        "weighted", "ring", 16, 4.0, 64, 7, shard_size=8, target_ci=5.0
    )

    def test_stops_before_cap_with_fewer_replicas(self):
        from repro.experiments.executor import execute_cells_report

        report = execute_cells_report([self.SPEC], workers=None)
        timing = report.timings[0]
        assert timing.adaptive_stop == "target"
        assert timing.ci_half_width <= self.SPEC.target_ci
        assert timing.repetitions_effective < timing.repetitions_requested
        assert (
            report.results[0].num_repetitions == timing.repetitions_effective
        )

    def test_deterministic_across_worker_counts(self):
        from repro.experiments.executor import execute_cells_report

        specs = [
            self.SPEC,
            CellSpec(
                "weighted",
                "hypercube",
                16,
                4.0,
                64,
                7,
                shard_size=8,
                target_ci=5.0,
            ),
        ]
        serial = execute_cells_report(specs, workers=None)
        pooled = execute_cells_report(specs, workers=2)
        assert [_pickled(c) for c in serial.results] == [
            _pickled(c) for c in pooled.results
        ]
        assert [t.repetitions_effective for t in serial.timings] == [
            t.repetitions_effective for t in pooled.timings
        ]
        # run_cell is the single-process reference for adaptive specs
        # too.
        assert _pickled(run_cell(self.SPEC)) == _pickled(serial.results[0])

    @pytest.mark.parametrize("kind, target_ci", [("approx", 0.7), ("exact", 6.0)])
    def test_uniform_kinds_deterministic_across_worker_counts(
        self, kind, target_ci
    ):
        specs = [
            CellSpec(
                kind, family, n, 4.0, 24, 7, shard_size=4, target_ci=target_ci
            )
            for family, n in (("ring", 8), ("torus", 9))
        ]
        serial = execute_cells_report(specs, workers=1)
        pooled = execute_cells_report(specs, workers=2)
        assert [_pickled(c) for c in serial.results] == [
            _pickled(c) for c in pooled.results
        ]
        stops = [(t.adaptive_stop, t.repetitions_effective) for t in serial.timings]
        assert stops == [
            (t.adaptive_stop, t.repetitions_effective) for t in pooled.timings
        ]
        # At least one cell stops on the target after several waves.
        assert any(stop == "target" and 4 < count < 24 for stop, count in stops)

    def test_unreachable_target_falls_to_cap(self):
        from repro.experiments.executor import execute_cells_report

        spec = CellSpec(
            "weighted", "ring", 8, 2.0, 6, 7, shard_size=2, target_ci=1e-9
        )
        report = execute_cells_report([spec], workers=None)
        timing = report.timings[0]
        assert timing.adaptive_stop == "cap"
        assert timing.repetitions_effective == 6
        # The capped run measures the same ensemble as the fixed-R run.
        fixed = run_cell(CellSpec("weighted", "ring", 8, 2.0, 6, 7))
        assert _pickled(report.results[0]) == _pickled(fixed)

    def test_cap_below_minimum_sample_warns_once_per_text(self):
        from repro.experiments.executor import execute_cells_report

        specs = [
            CellSpec("exact", family, 6, 4.0, 3, 3, target_ci=5.0)
            for family in ("ring", "path")
        ]
        expected = "replica cap of 3 is below the 4 converged samples"
        with pytest.warns(RuntimeWarning, match=expected) as caught:
            report = execute_cells_report(specs, workers=None)
        assert len({str(w.message) for w in caught}) == 1
        assert [t.adaptive_stop for t in report.timings] == ["cap", "cap"]

    @pytest.mark.parametrize("cap", [4, 6])
    def test_cap_at_minimum_sample_is_silent(self, cap):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_cell(CellSpec("exact", "ring", 6, 4.0, cap, 3, target_ci=5.0))

    def test_all_nan_waves_fall_to_cap_with_nan_half_width(self):
        """No replica ever converges (max_budget=1), so every CI
        evaluation sees an all-NaN sample: the controller must run to
        the cap and report a NaN half-width, never stop 'target'."""
        from repro.experiments.executor import execute_cells_report

        spec = CellSpec(
            "weighted",
            "ring",
            8,
            2.0,
            6,
            7,
            params=(("max_budget", 1),),
            shard_size=2,
            target_ci=100.0,
        )
        report = execute_cells_report([spec], workers=None)
        timing = report.timings[0]
        cell = report.results[0]
        assert cell.num_converged == 0
        assert timing.adaptive_stop == "cap"
        assert timing.repetitions_effective == 6
        assert np.isnan(timing.ci_half_width)
        assert np.isnan(cell.median_rounds)

    @pytest.mark.parametrize(
        "spec, tasks",
        [
            (SPEC, 4),
            (replace(SPEC, target_ci=None), 8),
            (replace(SPEC, shard_size=None, target_ci=None), 1),
        ],
        ids=["adaptive", "sharded", "monolithic"],
    )
    def test_serial_job_builds_its_cell_once(self, monkeypatch, spec, tasks):
        """Every wave or shard of a serial job and its merge run on one
        built cell: one graph and one lambda_2 per cell."""
        from repro.experiments import _common

        connectivity = _common.algebraic_connectivity
        calls = []

        def counted(graph):
            calls.append(graph)
            return connectivity(graph)

        monkeypatch.setattr(_common, "algebraic_connectivity", counted)
        report = execute_cells_report([spec], workers=None)
        assert len(report.timings[0].shards) == tasks
        assert len(calls) == 1

    def test_non_family_kind_rejected(self):
        for kind in ("weighted-variant", "scenario-recovery"):
            with pytest.raises(ValidationError, match="adaptive sizing"):
                run_cell(
                    CellSpec(kind, "ring", 8, 2.0, 6, 1, target_ci=1.0)
                )

    def test_invalid_target_rejected(self):
        with pytest.raises(ValidationError, match="target_ci"):
            run_cell(CellSpec("weighted", "ring", 8, 2.0, 6, 1, target_ci=0.0))


class TestExecutionReport:
    def test_timings_shape_and_json(self):
        import json

        from repro.experiments.executor import execute_cells_report

        specs = [
            CellSpec("weighted", "ring", 8, 2.0, 4, 5, shard_size=2),
            CellSpec("weighted", "torus", 9, 2.0, 4, 5),
        ]
        report = execute_cells_report(specs, workers=None)
        assert len(report.timings) == len(specs)
        sharded, monolithic = report.timings
        assert [
            (s.replica_offset, s.replica_count) for s in sharded.shards
        ] == [(0, 2), (2, 2)]
        assert [
            (s.replica_offset, s.replica_count) for s in monolithic.shards
        ] == [(0, 4)]
        for timing in report.timings:
            assert timing.seconds > 0.0
            assert timing.repetitions_requested == 4
            assert timing.repetitions_effective == 4
            assert timing.adaptive_stop is None
        payload = json.loads(json.dumps(report.timings_json()))
        assert payload[0]["family"] == "ring"
        assert payload[0]["shards"][1]["replica_offset"] == 2

    def test_execute_cells_returns_bare_results(self):
        from repro.experiments.executor import execute_cells_report

        specs = [CellSpec("weighted", "ring", 8, 2.0, 2, 5)]
        assert _pickled(execute_cells(specs, workers=None)) == _pickled(
            list(execute_cells_report(specs, workers=None).results)
        )


class TestRunMetaSharding:
    def test_run_meta_records_sharding_and_cell_timings(self):
        result = run_experiment(
            "table1-weighted", quick=True, seed=99, workers=2, shard_size=2
        )
        meta = result.data["run_meta"]
        assert meta["shard_size_requested"] == 2
        assert meta["shard_size_effective"] == 2
        assert meta["target_ci_requested"] is None
        timings = meta["cell_timings"]
        assert timings, "sweep experiments must record per-cell timings"
        for cell in timings:
            assert cell["repetitions_requested"] == 3
            assert cell["repetitions_effective"] == 3
            assert cell["seconds"] > 0.0
            # quick sweeps have 3 repetitions -> two shards of (2, 1)
            assert [
                (s["replica_offset"], s["replica_count"])
                for s in cell["shards"]
            ] == [(0, 2), (2, 1)]

    def test_run_meta_records_adaptive_effective_repetitions(self):
        result = run_experiment(
            "table1-weighted", quick=True, seed=99, target_ci=500.0
        )
        meta = result.data["run_meta"]
        assert meta["target_ci_effective"] == 500.0
        for cell in meta["cell_timings"]:
            assert cell["adaptive_stop"] in ("target", "cap")
            assert (
                cell["repetitions_effective"] <= cell["repetitions_requested"]
            )

    def test_legacy_runner_warns_on_shard_size(self):
        experiment_id = "_test-legacy-no-shard"

        @register_experiment(experiment_id)
        def legacy(quick, seed):
            return ExperimentResult(experiment_id=experiment_id, title="t")

        try:
            with pytest.warns(RuntimeWarning, match="shard_size"):
                result = run_experiment(experiment_id, shard_size=4)
            meta = result.data["run_meta"]
            assert meta["shard_size_requested"] == 4
            assert meta["shard_size_effective"] is None
        finally:
            _REGISTRY.pop(experiment_id, None)
