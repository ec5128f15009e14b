"""Dynamic-topology experiment: failure / partition / recovery sweeps.

The paper's bounds are driven by the graph factor ``Delta / lambda_2``
(Theorem 1.3), so the most interesting dynamic axis is the network
itself. Each cell runs an ensemble through a fixed topology schedule —
a random edge-failure burst, then a network partition, then a wholesale
recovery — on the datacenter / random families added for this
experiment (fat-tree, leaf-spine, expander, power-law), and checks

1. **tracking** — the per-round spectral trace records the degradation:
   the gap ratio worsens after the edge failures and is reported as
   ``inf`` (never an exception) through the disconnected partition
   window;
2. **restoration** — after recovery the trace returns *exactly* to the
   baseline (the restored graph is structurally equal to the original);
3. **re-convergence** — every replica re-reaches its equilibrium target
   after the recovery within the horizon.

Cells are independent :class:`~repro.experiments.executor.CellSpec`
entries of kind ``"topology-resilience"``, so ``--workers N`` fans them
over a process pool with bit-identical results at any worker count, and
``--shard-size`` splits replica ensembles under the spawned policy
(topology events are replica-stable, so shard windows see the same
graph sequence).
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.executor import CellSpec, execute_cells_report
from repro.experiments.registry import ExperimentResult, register_experiment
from repro.experiments.scenario_cells import TopologyResilienceMeasurement
from repro.utils.tables import Table, format_float

__all__ = ["run_topology_failures"]

#: (family, size, tasks, m_factor, fail_fraction, horizon) grid rows.
#: Uniform cells use the m = O(n) regime; the weighted full-grid cell
#: gets a longer horizon (the threshold state takes longer to re-reach
#: than the Psi_0 region).
#: Fat-tree edge switches have degree k/2, so high failure fractions
#: disconnect them outright; 0.25 keeps fat_tree(k=4) connected while
#: roughly tripling the gap ratio — the interesting degraded-but-alive
#: regime. The denser families tolerate 0.3.
TOPOLOGY_GRID_QUICK: list[tuple[str, int, str, float, float, int]] = [
    ("fat-tree", 20, "uniform", 8.0, 0.25, 140),
    ("leaf-spine", 20, "uniform", 8.0, 0.3, 140),
    ("expander", 20, "uniform", 8.0, 0.3, 140),
]
TOPOLOGY_GRID_FULL: list[tuple[str, int, str, float, float, int]] = [
    ("fat-tree", 20, "uniform", 8.0, 0.25, 140),
    ("fat-tree", 45, "uniform", 8.0, 0.25, 140),
    ("leaf-spine", 20, "uniform", 8.0, 0.3, 140),
    ("leaf-spine", 32, "uniform", 8.0, 0.3, 140),
    ("expander", 20, "uniform", 8.0, 0.3, 140),
    ("expander", 32, "uniform", 8.0, 0.3, 140),
    ("power-law", 24, "uniform", 8.0, 0.2, 140),
    ("fat-tree", 20, "weighted", 4.0, 0.25, 240),
]

#: Topology schedule (shared by all cells): edge failures, then a
#: partition of the first n // 2 vertices, then base-graph restoration.
FAIL_ROUND = 20
PARTITION_ROUND = 45
RECOVER_ROUND = 70


def _specs(
    quick: bool,
    seed: int,
    repetitions: int,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
) -> list[CellSpec]:
    grid = TOPOLOGY_GRID_QUICK if quick else TOPOLOGY_GRID_FULL
    return [
        CellSpec(
            kind="topology-resilience",
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
                        "fail_fraction": fail_fraction,
                        "fail_round": FAIL_ROUND,
                        "partition_round": PARTITION_ROUND,
                        "recover_round": RECOVER_ROUND,
                        "horizon": horizon,
                    }.items()
                )
            ),
        )
        for family, n, tasks, m_factor, fail_fraction, horizon in grid
    ]


@register_experiment("topology-failures")
def run_topology_failures(
    quick: bool = True,
    seed: int = 20120716,
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
) -> ExperimentResult:
    """Failure → partition → recovery sweep over the datacenter families.

    ``workers`` fans the cells over processes; every cell derives its
    own stream from ``(seed, family, n, tag)``, so results are identical
    at any worker count. The topology events themselves consume no
    replica-stream randomness — both engines and both ``rng_policy``
    values see the identical graph sequence.
    """
    repetitions = 10 if quick else 25
    specs = _specs(quick, seed, repetitions, rng_policy, shard_size)
    report = execute_cells_report(specs, workers=workers)
    cells: list[TopologyResilienceMeasurement] = list(report.results)  # type: ignore[arg-type]

    table = Table(
        headers=[
            "family",
            "n",
            "m",
            "tasks",
            "engine",
            "gap base",
            "gap degraded",
            "gap partitioned",
            "disc rounds",
            "restored",
            "recovered",
            "median rec",
        ],
        title=(
            f"Graph factor Delta/lambda_2 through edge failures (round "
            f"{FAIL_ROUND}), a partition (round {PARTITION_ROUND}) and "
            f"recovery (round {RECOVER_ROUND})"
        ),
    )
    all_recovered = True
    all_tracked = True
    all_restored = True
    for cell in cells:
        recovered = cell.num_recovered == cell.num_replicas
        # The partition window is rows [partition_round + 1,
        # recover_round] (record fires before the round's events apply),
        # so at least recover - partition rows must be disconnected;
        # the random edge-failure burst may disconnect additional rows.
        tracked = (
            math.isinf(cell.gap_partitioned)
            and cell.disconnected_rounds
            >= cell.recover_round - cell.partition_round
            and cell.gap_degraded >= cell.gap_baseline
        )
        all_recovered = all_recovered and recovered
        all_tracked = all_tracked and tracked
        all_restored = all_restored and cell.gap_restored
        table.add_row(
            [
                cell.family,
                cell.n,
                cell.m,
                cell.tasks,
                cell.engine,
                format_float(cell.gap_baseline, 2),
                format_float(cell.gap_degraded, 2),
                "inf" if math.isinf(cell.gap_partitioned) else "FINITE!",
                cell.disconnected_rounds,
                "yes" if cell.gap_restored else "NO",
                f"{cell.num_recovered}/{cell.num_replicas}",
                format_float(cell.median_recovery, 1),
            ]
        )

    result = ExperimentResult(
        experiment_id="topology-failures",
        title=(
            "Dynamic topology: live spectral-gap tracking through "
            "failure/partition/recovery cycles"
        ),
        tables=[table],
        passed=all_recovered and all_tracked and all_restored,
        data={
            "cells": [
                {
                    "family": cell.family,
                    "n": cell.n,
                    "m": cell.m,
                    "tasks": cell.tasks,
                    "engine": cell.engine,
                    "num_replicas": cell.num_replicas,
                    "gap_baseline": cell.gap_baseline,
                    "gap_degraded": cell.gap_degraded,
                    "gap_partitioned": cell.gap_partitioned,
                    "gap_restored": cell.gap_restored,
                    "disconnected_rounds": cell.disconnected_rounds,
                    "num_recovered": cell.num_recovered,
                    "median_recovery": cell.median_recovery,
                    "max_recovery": cell.max_recovery,
                }
                for cell in cells
            ],
            "cell_timings": report.timings_json(),
        },
    )
    result.series["topology_gap"] = {
        "family": [
            cell.family for cell in cells for _ in cell.gap_series
        ],
        "n": [cell.n for cell in cells for _ in cell.gap_series],
        "round": [
            index
            for cell in cells
            for index in range(len(cell.gap_series))
        ],
        "gap_ratio": [
            value for cell in cells for value in cell.gap_series
        ],
    }
    result.notes.append(
        "The spectral trace reports the partition window as gap_ratio = inf "
        "(lambda_2 = 0) instead of raising — live tracking survives "
        "disconnection."
        if all_tracked
        else "WARNING: some cell's spectral trace did not report the "
        "expected degradation/disconnection pattern."
    )
    result.notes.append(
        "After recovery the gap ratio returns exactly to baseline: the "
        "restored graph is structurally equal to the original, so memoized "
        "spectral and protocol caches are reused."
        if all_restored
        else "WARNING: some cell's gap ratio did not return to baseline "
        "after recovery."
    )
    result.notes.append(
        "Every replica re-reached its equilibrium target after the "
        "recovery — convergence restarts once the network heals."
        if all_recovered
        else "WARNING: some replica did not re-reach its target after "
        "recovery within the horizon."
    )
    median_recoveries = [
        cell.median_recovery
        for cell in cells
        if not np.isnan(cell.median_recovery)
    ]
    if median_recoveries:
        result.notes.append(
            f"Median post-recovery re-convergence across cells: "
            f"{min(median_recoveries):.0f}-{max(median_recoveries):.0f} rounds."
        )
    return result
