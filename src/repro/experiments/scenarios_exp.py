"""Dynamic-workload scenario experiment (extension experiment).

The paper's guarantees are for static task sets; the ``scenarios-*``
family measures what operations cares about: how the protocol behaves
*while* the workload misbehaves. Each cell runs an ensemble through the
:mod:`repro.scenarios` runner under stationary Poisson churn plus one
mid-run flash crowd, on uniform and weighted task systems, and checks

1. **recovery** — every replica re-reaches its equilibrium target
   (``Psi_0 <= 4 psi_c`` for uniform tasks, the threshold state for
   weighted tasks) after the shock within the horizon, and
2. **settling** — the rolling Nash-violation fraction returns to (a
   small slack above) its pre-shock band by the end of the horizon.

Cells are independent :class:`~repro.experiments.executor.CellSpec`
entries, so ``--workers N`` fans them over a process pool with
bit-identical results at any worker count.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.executor import CellSpec, execute_cells_report
from repro.experiments.registry import ExperimentResult, register_experiment
from repro.experiments.scenario_cells import ScenarioCellMeasurement
from repro.utils.tables import Table, format_float

__all__ = ["run_scenarios_churn_shock"]

#: (family, size, tasks, m_factor, churn_rate, shock_fraction, horizon)
#: grid rows. Uniform cells use heavier task loads (the Psi_0 target
#: needs headroom above psi_c for the shock to be visible); weighted
#: cells follow the m = O(n) regime of the weighted convergence
#: experiments and get longer horizons — on poorly expanding rings the
#: threshold state under churn takes O(100) rounds to re-reach.
SCENARIO_GRID_QUICK: list[tuple[str, int, str, float, float, float, int]] = [
    ("torus", 9, "uniform", 16.0, 1.0, 0.8, 180),
    ("torus", 16, "uniform", 16.0, 1.0, 0.8, 180),
    ("ring", 8, "weighted", 8.0, 1.0, 0.5, 300),
    ("ring", 12, "weighted", 8.0, 0.5, 0.5, 300),
]
SCENARIO_GRID_FULL: list[tuple[str, int, str, float, float, float, int]] = [
    ("torus", 9, "uniform", 16.0, 1.0, 0.8, 180),
    ("torus", 16, "uniform", 16.0, 1.0, 0.8, 180),
    ("torus", 25, "uniform", 16.0, 2.0, 0.8, 180),
    ("hypercube", 16, "uniform", 16.0, 2.0, 0.8, 180),
    ("ring", 8, "weighted", 8.0, 1.0, 0.5, 300),
    ("ring", 12, "weighted", 8.0, 0.5, 0.5, 300),
    ("ring", 16, "weighted", 8.0, 0.5, 0.5, 400),
    ("torus", 9, "weighted", 8.0, 1.0, 0.5, 300),
]

SHOCK_ROUND = 60

#: Absolute slack allowed between the final rolling Nash-violation
#: window and the pre-shock band for the "settled" verdict (the band
#: itself fluctuates under churn).
SETTLE_SLACK = 0.05


def _specs(
    quick: bool,
    seed: int,
    repetitions: int,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
) -> list[CellSpec]:
    grid = SCENARIO_GRID_QUICK if quick else SCENARIO_GRID_FULL
    return [
        CellSpec(
            kind="scenario-recovery",
            family=family,
            n=n,
            m_factor=m_factor,
            repetitions=repetitions,
            seed=seed,
            rng_policy=rng_policy,
            shard_size=shard_size,
            params=tuple(
                sorted(
                    {
                        "tasks": tasks,
                        "churn_rate": churn_rate,
                        "shock_fraction": shock_fraction,
                        "shock_round": SHOCK_ROUND,
                        "horizon": horizon,
                    }.items()
                )
            ),
        )
        for family, n, tasks, m_factor, churn_rate, shock_fraction, horizon in grid
    ]


@register_experiment("scenarios-churn-shock")
def run_scenarios_churn_shock(
    quick: bool = True,
    seed: int = 20120716,
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
) -> ExperimentResult:
    """Churn + flash-crowd scenario sweep on both task systems.

    ``workers`` fans the cells over processes; every cell derives its
    own stream from ``(seed, family, n, tag)``, so results are identical
    at any worker count. ``shard_size`` additionally splits each cell's
    replica ensemble into window sub-tasks (spawned policy only — the
    counter policy's event draws consume whole-stack blocks, so
    counter + shard_size raises). ``rng_policy`` selects the
    per-replica stream layout inside each cell (``"counter"``
    vectorizes the churn draws).
    """
    repetitions = 25 if quick else 50
    specs = _specs(quick, seed, repetitions, rng_policy, shard_size)
    report = execute_cells_report(specs, workers=workers)
    cells: list[ScenarioCellMeasurement] = list(report.results)  # type: ignore[arg-type]

    table = Table(
        headers=[
            "family",
            "n",
            "m",
            "tasks",
            "engine",
            "recovered",
            "median rec",
            "max rec",
            "viol pre",
            "viol peak",
            "viol settled",
            "p95 Psi_0",
        ],
        title=(
            f"Recovery from a flash crowd at round {SHOCK_ROUND} under "
            "Poisson churn"
        ),
    )
    all_recovered = True
    all_settled = True
    for cell in cells:
        recovered = cell.num_recovered == cell.num_replicas
        settled = (
            cell.violation_settled <= cell.violation_preshock + SETTLE_SLACK
        )
        all_recovered = all_recovered and recovered
        all_settled = all_settled and settled
        table.add_row(
            [
                cell.family,
                cell.n,
                cell.m,
                cell.tasks,
                cell.engine,
                f"{cell.num_recovered}/{cell.num_replicas}",
                format_float(cell.median_recovery, 1),
                format_float(cell.max_recovery, 0),
                format_float(cell.violation_preshock, 3),
                format_float(cell.violation_peak, 3),
                format_float(cell.violation_settled, 3),
                format_float(cell.psi0_p95, 1),
            ]
        )

    result = ExperimentResult(
        experiment_id="scenarios-churn-shock",
        title="Dynamic workloads: churn + flash-crowd recovery on both engines",
        tables=[table],
        passed=all_recovered and all_settled,
        data={
            "cells": [
                {
                    "family": cell.family,
                    "n": cell.n,
                    "m": cell.m,
                    "tasks": cell.tasks,
                    "engine": cell.engine,
                    "num_recovered": cell.num_recovered,
                    "num_replicas": cell.num_replicas,
                    "median_recovery": cell.median_recovery,
                    "max_recovery": cell.max_recovery,
                    "mean_imbalance": cell.mean_imbalance,
                    "violation_preshock": cell.violation_preshock,
                    "violation_peak": cell.violation_peak,
                    "violation_settled": cell.violation_settled,
                    "psi0_median": cell.psi0_median,
                    "psi0_p95": cell.psi0_p95,
                }
                for cell in cells
            ],
            "cell_timings": report.timings_json(),
        },
    )
    result.series["scenario_recovery"] = {
        "family": [cell.family for cell in cells],
        "n": [cell.n for cell in cells],
        "tasks": [cell.tasks for cell in cells],
        "median_recovery": [cell.median_recovery for cell in cells],
        "max_recovery": [cell.max_recovery for cell in cells],
        "violation_preshock": [cell.violation_preshock for cell in cells],
        "violation_peak": [cell.violation_peak for cell in cells],
        "violation_settled": [cell.violation_settled for cell in cells],
    }
    result.notes.append(
        "Every replica re-reached its equilibrium target after the shock "
        "— the memoryless protocol restarts its guarantee under live churn."
        if all_recovered
        else "WARNING: some replica did not recover from the shock within "
        "the horizon."
    )
    result.notes.append(
        "The rolling Nash-violation fraction returns to its pre-shock "
        "band — perturbations are transients, not regime changes."
        if all_settled
        else "WARNING: the Nash-violation fraction did not return to its "
        "pre-shock band."
    )
    median_recoveries = [
        cell.median_recovery
        for cell in cells
        if not np.isnan(cell.median_recovery)
    ]
    if median_recoveries:
        result.notes.append(
            f"Median post-shock recovery across cells: "
            f"{min(median_recoveries):.0f}-{max(median_recoveries):.0f} rounds."
        )
    return result
