"""Trace-driven traffic experiment (extension experiment).

``workloads-traffic`` replays compiled workload traces — MMPP bursts,
diurnal cycles, flash crowds, and the adversarial hot-node generator
from :mod:`repro.workloads` — over scenario ensembles and checks the
replay invariant: because compiled trace events are deterministic
(zero replica-stream randomness) and validated traces never clamp a
departure, every replica's recorded per-round task count must equal
the trace's :func:`~repro.workloads.task_timeline` *exactly*, on both
engines, under both RNG policies, at any worker count or shard size.

Two CLI hooks narrow the grid to a single cell:

* ``--trace FILE`` replays a saved trace file (the cell's graph is the
  ``complete`` family at the trace's node count; the trace dictates
  initial placement size and horizon);
* ``--workload NAME`` runs one cell of the named generator from the
  catalog (:func:`~repro.workloads.available_workloads`).
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.experiments.executor import CellSpec, execute_cells_report
from repro.experiments.registry import ExperimentResult, register_experiment
from repro.experiments.workload_cells import WorkloadMeasurement
from repro.utils.tables import Table, format_float
from repro.workloads import available_workloads, load_trace_header

__all__ = ["run_workloads_traffic"]

#: (kind, family, size, tasks, m_factor, workload, horizon) grid rows.
#: One uniform and one weighted replay cell plus one adversarial cell in
#: quick mode; the full grid adds the remaining generators and a larger
#: fat-tree size.
WORKLOAD_GRID_QUICK: list[tuple[str, str, int, str, float, str, int]] = [
    ("workload-replay", "fat-tree", 20, "uniform", 6.0, "mmpp-flash", 60),
    ("workload-replay", "torus", 9, "weighted", 4.0, "diurnal", 60),
    ("workload-adversarial", "torus", 9, "uniform", 6.0, "adversarial", 60),
]
WORKLOAD_GRID_FULL: list[tuple[str, str, int, str, float, str, int]] = [
    ("workload-replay", "fat-tree", 20, "uniform", 6.0, "mmpp-flash", 120),
    ("workload-replay", "fat-tree", 45, "uniform", 6.0, "mmpp", 120),
    ("workload-replay", "torus", 9, "weighted", 4.0, "diurnal", 120),
    ("workload-replay", "torus", 16, "weighted", 4.0, "flash-crowd", 120),
    ("workload-replay", "leaf-spine", 12, "uniform", 6.0, "diurnal", 120),
    ("workload-adversarial", "torus", 9, "uniform", 6.0, "adversarial", 120),
    ("workload-adversarial", "hypercube", 16, "weighted", 4.0, "adversarial", 120),
]


def _grid_specs(
    quick: bool,
    seed: int,
    repetitions: int,
    rng_policy: str,
    shard_size: int | None,
    trace: str | None,
    workload: str | None,
) -> list[CellSpec]:
    if trace is not None and workload is not None:
        raise ValidationError(
            "--trace and --workload are mutually exclusive: a trace file "
            "already fixes the generator"
        )
    if trace is not None:
        # The trace dictates node count, placement size, and horizon;
        # the complete family realizes any vertex count exactly.
        header = load_trace_header(trace)
        rows = [
            (
                "workload-replay",
                "complete",
                header["num_nodes"],
                "uniform",
                1.0,
                "mmpp-flash",
                header["horizon"],
            )
        ]
    elif workload is not None:
        if workload not in available_workloads():
            raise ValidationError(
                f"unknown workload {workload!r}; "
                f"available: {sorted(available_workloads())}"
            )
        kind = (
            "workload-adversarial"
            if workload == "adversarial"
            else "workload-replay"
        )
        rows = [(kind, "torus", 9, "uniform", 6.0, workload, 60)]
    else:
        rows = WORKLOAD_GRID_QUICK if quick else WORKLOAD_GRID_FULL
    specs = []
    for kind, family, n, tasks, m_factor, generator, horizon in rows:
        params: dict[str, object] = {
            "tasks": tasks,
            "workload": generator,
            "horizon": horizon,
        }
        if trace is not None:
            params["trace_path"] = trace
        specs.append(
            CellSpec(
                kind=kind,
                family=family,
                n=n,
                m_factor=m_factor,
                repetitions=repetitions,
                seed=seed,
                rng_policy=rng_policy,
                shard_size=shard_size,
                params=tuple(sorted(params.items())),
            )
        )
    return specs


@register_experiment("workloads-traffic")
def run_workloads_traffic(
    quick: bool = True,
    seed: int = 20120716,
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
    trace: str | None = None,
    workload: str | None = None,
) -> ExperimentResult:
    """Replay generated (or saved) traffic traces and verify conservation.

    ``workers`` fans the cells over processes and ``shard_size`` splits
    each cell's ensemble into replica windows; results are identical at
    any combination. Workload cells are the one scenario kind whose
    weighted-task ensembles shard under ``--rng counter`` too — their
    compiled schedules are deterministic, so no event touches the
    whole-stack counter sites.
    """
    repetitions = 6 if quick else 16
    specs = _grid_specs(
        quick, seed, repetitions, rng_policy, shard_size, trace, workload
    )
    report = execute_cells_report(specs, workers=workers)
    cells: list[WorkloadMeasurement] = list(report.results)  # type: ignore[arg-type]

    table = Table(
        headers=[
            "family",
            "n",
            "tasks",
            "workload",
            "engine",
            "horizon",
            "events",
            "task events",
            "conserved",
            "mean L_Delta",
            "viol settled",
            "p95 Psi_0",
        ],
        title="Trace replay: task conservation and imbalance under traffic",
    )
    all_conserved = True
    for cell in cells:
        all_conserved = all_conserved and cell.conservation_ok
        table.add_row(
            [
                cell.family,
                cell.n,
                cell.tasks,
                cell.workload,
                cell.engine,
                cell.horizon,
                cell.num_events,
                cell.num_task_events,
                "yes" if cell.conservation_ok else "NO",
                format_float(cell.mean_imbalance, 2),
                format_float(cell.violation_settled, 3),
                format_float(cell.psi0_p95, 1),
            ]
        )

    result = ExperimentResult(
        experiment_id="workloads-traffic",
        title="Trace-driven traffic: generator replay with exact conservation",
        tables=[table],
        passed=all_conserved,
        data={
            "cells": [
                {
                    "family": cell.family,
                    "n": cell.n,
                    "m": cell.m,
                    "tasks": cell.tasks,
                    "workload": cell.workload,
                    "engine": cell.engine,
                    "num_replicas": cell.num_replicas,
                    "horizon": cell.horizon,
                    "num_events": cell.num_events,
                    "num_task_events": cell.num_task_events,
                    "final_tasks": cell.final_tasks,
                    "peak_tasks": cell.peak_tasks,
                    "conservation_ok": cell.conservation_ok,
                    "mean_imbalance": cell.mean_imbalance,
                    "violation_settled": cell.violation_settled,
                    "psi0_median": cell.psi0_median,
                    "psi0_p95": cell.psi0_p95,
                }
                for cell in cells
            ],
            "cell_timings": report.timings_json(),
        },
    )
    result.series["workload_traffic"] = {
        "family": [cell.family for cell in cells],
        "n": [cell.n for cell in cells],
        "tasks": [cell.tasks for cell in cells],
        "workload": [cell.workload for cell in cells],
        "num_task_events": [cell.num_task_events for cell in cells],
        "mean_imbalance": [cell.mean_imbalance for cell in cells],
        "violation_settled": [cell.violation_settled for cell in cells],
        "psi0_p95": [cell.psi0_p95 for cell in cells],
    }
    result.notes.append(
        "Every replica's recorded task counts matched the trace timeline "
        "exactly — compiled trace replay is deterministic across engines, "
        "RNG policies, and shard layouts."
        if all_conserved
        else "WARNING: recorded task counts diverged from the trace "
        "timeline; the deterministic replay contract is broken."
    )
    return result
