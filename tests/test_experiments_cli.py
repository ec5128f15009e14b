"""End-to-end tests for the ``python -m repro.experiments`` CLI.

Covers the exit-code contract (0 pass / 1 fail / 2 usage or unknown id),
artifact writing (``--json`` / ``--csv`` / ``--markdown``), the
experiment-namespaced CSV filenames, and ``--workers`` determinism
(byte-identical JSON at any worker count).
"""

from __future__ import annotations

import json

import pytest

import repro.experiments.__main__ as cli
from repro.experiments.registry import ExperimentResult
from repro.utils.tables import Table


def make_result(experiment_id, passed=True, series_name=None):
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=f"stub {experiment_id}",
        passed=passed,
        data={"value": 1},
    )
    table = Table(headers=["k"], title="stub table")
    table.add_row([1])
    result.tables = [table]
    if series_name is not None:
        result.series[series_name] = {"x": [1, 2], "y": [3.0, 4.0]}
    return result


@pytest.fixture
def stub_cli(monkeypatch):
    """Replace the CLI's registry hooks with cheap deterministic stubs."""
    results = {
        "stub-pass": make_result("stub-pass", series_name="curve"),
        "stub-fail": make_result("stub-fail", passed=False, series_name="curve"),
    }

    def fake_run(
        experiment_id,
        quick=True,
        seed=0,
        workers=None,
        rng_policy="spawned",
        shard_size=None,
        target_ci=None,
        trace=None,
        workload=None,
    ):
        from repro.experiments.registry import run_experiment

        if experiment_id not in results:
            return run_experiment(
                experiment_id,
                quick=quick,
                seed=seed,
                workers=workers,
                rng_policy=rng_policy,
                shard_size=shard_size,
                target_ci=target_ci,
                trace=trace,
                workload=workload,
            )
        return results[experiment_id]

    monkeypatch.setattr(cli, "available_experiments", lambda: sorted(results))
    monkeypatch.setattr(cli, "run_experiment", fake_run)
    return results


class TestExitCodes:
    def test_list_exits_zero(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1-weighted" in out
        assert "table1-exact" in out

    def test_unknown_id_exits_two_with_stderr_message(self, capsys):
        code = cli.main(["run", "no-such-experiment"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown experiment" in captured.err
        assert "available" in captured.err
        assert "table1-weighted" in captured.err
        assert "Traceback" not in captured.err

    def test_run_pass_exits_zero(self, stub_cli, capsys):
        assert cli.main(["run", "stub-pass"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_fail_exits_one(self, stub_cli, capsys):
        assert cli.main(["run", "stub-fail"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_all_runs_every_registered_id(self, stub_cli, capsys):
        assert cli.main(["all"]) == 1  # stub-fail drags the verdict down
        out = capsys.readouterr().out
        assert "stub-pass" in out
        assert "stub-fail" in out

    def test_workers_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "table1-weighted", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestArtifacts:
    def test_json_markdown_csv(self, stub_cli, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        markdown_path = tmp_path / "report.md"
        csv_dir = tmp_path / "series"
        code = cli.main(
            [
                "run",
                "stub-pass",
                "--json",
                str(json_path),
                "--markdown",
                str(markdown_path),
                "--csv",
                str(csv_dir),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload == {"stub-pass": {"passed": True, "value": 1}}
        assert "### `stub-pass`" in markdown_path.read_text()
        csv_file = csv_dir / "stub-pass__curve.csv"
        assert csv_file.exists()
        assert csv_file.read_text().splitlines()[0] == "x,y"

    def test_csv_files_namespaced_per_experiment(self, stub_cli, tmp_path, capsys):
        """Two experiments sharing a series name must not collide."""
        csv_dir = tmp_path / "series"
        code = cli.main(["all", "--csv", str(csv_dir)])
        capsys.readouterr()
        assert code == 1
        names = sorted(path.name for path in csv_dir.glob("*.csv"))
        assert names == ["stub-fail__curve.csv", "stub-pass__curve.csv"]
        # Both series survived intact (no overwrite).
        for name in names:
            assert (csv_dir / name).read_text().splitlines() == [
                "x,y",
                "1,3.0",
                "2,4.0",
            ]

    def test_markdown_appends(self, stub_cli, tmp_path, capsys):
        markdown_path = tmp_path / "report.md"
        markdown_path.write_text("# Existing\n")
        assert cli.main(["run", "stub-pass", "--markdown", str(markdown_path)]) == 0
        capsys.readouterr()
        text = markdown_path.read_text()
        assert text.startswith("# Existing")
        assert "### `stub-pass`" in text


class TestWorkersDeterminism:
    def test_weighted_sweep_json_identical_across_workers(
        self, tmp_path, capsys
    ):
        """--workers {1,2} produce identical measurement artifacts.

        The ``run_meta`` record is the one field that (by design)
        differs: it self-describes the invocation's effective worker
        count and rng policy, so a fallen-back ``--workers`` is visible
        in the artifact itself.
        """
        payloads = {}
        for workers in ("1", "2"):
            json_path = tmp_path / f"workers{workers}.json"
            code = cli.main(
                [
                    "run",
                    "table1-weighted",
                    "--workers",
                    workers,
                    "--json",
                    str(json_path),
                ]
            )
            assert code == 0
            payloads[workers] = json.loads(json_path.read_text())
        capsys.readouterr()
        meta_one = payloads["1"]["table1-weighted"].pop("run_meta")
        meta_two = payloads["2"]["table1-weighted"].pop("run_meta")
        assert payloads["1"] == payloads["2"]
        assert meta_one["workers_effective"] == 1
        assert meta_two["workers_effective"] == 2
        assert meta_one["rng_policy_effective"] == "spawned"
        payload = payloads["1"]
        assert payload["table1-weighted"]["passed"] is True
        assert set(payload["table1-weighted"]["fits"]) == {"ring", "torus"}


class TestRngFlag:
    def test_rng_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "table1-weighted", "--rng", "philox"])
        assert excinfo.value.code == 2
        assert "--rng" in capsys.readouterr().err

    def test_rng_counter_threads_to_artifact(self, tmp_path, capsys):
        """--rng counter runs end-to-end and self-describes in run_meta."""
        json_path = tmp_path / "counter.json"
        code = cli.main(
            [
                "run",
                "robustness",
                "--rng",
                "counter",
                "--json",
                str(json_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(json_path.read_text())
        meta = payload["robustness"]["run_meta"]
        assert meta["rng_policy_requested"] == "counter"
        assert meta["rng_policy_effective"] == "counter"

    def test_rng_counter_deterministic_artifacts(self, tmp_path, capsys):
        """Two --rng counter invocations produce identical measurements.

        ``run_meta`` is stripped before comparing: it carries the
        per-cell wall-clock record, the one artifact field that
        legitimately differs between otherwise identical runs.
        """
        outputs = []
        for tag in ("a", "b"):
            json_path = tmp_path / f"counter-{tag}.json"
            code = cli.main(
                [
                    "run",
                    "table1-weighted",
                    "--rng",
                    "counter",
                    "--json",
                    str(json_path),
                ]
            )
            assert code in (0, 1)  # quick-fit verdict is noise-sensitive
            payload = json.loads(json_path.read_text())
            payload["table1-weighted"].pop("run_meta")
            outputs.append(payload)
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestTopLevelEntryPoint:
    def test_list_prints_ids_one_per_line(self, capsys):
        import repro.__main__ as top

        assert top.main(["--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "workloads-traffic" in lines
        assert "table1-weighted" in lines
        assert lines == sorted(lines)
        assert all("\t" not in line and " " not in line for line in lines)

    def test_no_arguments_prints_help_and_exits_zero(self, capsys):
        import repro.__main__ as top

        assert top.main([]) == 0
        out = capsys.readouterr().out
        assert "usage: python -m repro" in out
        assert "--list" in out


class TestSeedValidation:
    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "table1-weighted", "--seed", "-3"])
        assert excinfo.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_non_integer_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "table1-weighted", "--seed", "not-a-number"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


class TestOutputPaths:
    @pytest.mark.parametrize("flag", ["--json", "--markdown"])
    def test_output_into_missing_directory_is_usage_error(
        self, flag, monkeypatch, tmp_path, capsys
    ):
        """The directory is checked before the experiment runs, so a
        typo costs no run and shows no traceback."""
        ran = []
        monkeypatch.setattr(
            cli, "run_experiment", lambda *args, **kwargs: ran.append(args)
        )
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["run", "table1-approx", flag, str(tmp_path / "missing" / "out")]
            )
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err
        assert ran == []


class TestWorkloadFlags:
    def test_missing_trace_file_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                [
                    "run",
                    "workloads-traffic",
                    "--trace",
                    str(tmp_path / "nope.jsonl"),
                ]
            )
        assert excinfo.value.code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_workload_exits_two(self, capsys):
        code = cli.main(
            ["run", "workloads-traffic", "--workload", "tidal-wave"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown workload" in captured.err

    def test_trace_replay_runs_and_passes(self, tmp_path, capsys):
        from repro.workloads import build_workload, save_trace

        trace_path = tmp_path / "small.jsonl"
        save_trace(
            build_workload(
                "mmpp", num_nodes=6, horizon=15, seed=3, initial_tasks=24
            ),
            trace_path,
        )
        code = cli.main(
            ["run", "workloads-traffic", "--trace", str(trace_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "file" in out  # the loaded-trace cell reports workload=file

    @pytest.mark.parametrize("shard_size", [None, 2])
    def test_serial_trace_run_loads_and_validates_once(
        self, tmp_path, monkeypatch, shard_size
    ):
        import repro.workloads
        from repro.experiments import workload_cells, workloads_exp
        from repro.experiments.registry import run_experiment
        from repro.workloads import build_workload, save_trace
        from repro.workloads import trace as trace_module

        trace_path = tmp_path / "small.jsonl"
        save_trace(
            build_workload("mmpp", num_nodes=6, horizon=15, seed=3, initial_tasks=24),
            trace_path,
        )
        calls = {"load_trace": 0, "_validate": 0}

        def counting(function):
            def counted(*args, **kwargs):
                calls[function.__name__] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(trace_module, "_validate", counting(trace_module._validate))
        load = counting(trace_module.load_trace)
        for module in (repro.workloads, trace_module, workload_cells, workloads_exp):
            if hasattr(module, "load_trace"):
                monkeypatch.setattr(module, "load_trace", load)
        result = run_experiment(
            "workloads-traffic", trace=str(trace_path), shard_size=shard_size
        )
        assert result.passed
        assert calls == {"load_trace": 1, "_validate": 1}

    def test_malformed_trace_field_exits_two(self, tmp_path, capsys):
        from repro.workloads import TRACE_FORMAT, TRACE_VERSION

        path = tmp_path / "bad.jsonl"
        header = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "num_nodes": 4,
            "horizon": 10,
            "seed": 0,
            "initial_tasks": 5,
        }
        for event in (
            {"round": 1, "kind": "departure", "count": "abc"},
            {"round": 1, "kind": "arrival", "targets": [-1, 2]},
            {"round": 1, "kind": "arrival", "targets": [True, 1]},
        ):
            path.write_text(json.dumps(header) + "\n" + json.dumps(event) + "\n")
            code = cli.main(["run", "workloads-traffic", "--trace", str(path)])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: trace line 1: ")
            assert "Traceback" not in err
