"""Self-stabilization under shocks and churn (extension experiment).

The protocol is memoryless: its migration probabilities depend only on
the current loads, so Theorem 1.1's convergence guarantee re-applies
from *any* state. This experiment demonstrates the resulting
self-stabilization — a property the paper's framework implies but does
not evaluate:

1. **Shock recovery** — run to the balanced region, then relocate half
   of all tasks onto one node; the recovery time after every shock must
   stay below the Theorem 1.1 bound (which covers worst-case starts).
2. **Stationary churn** — with Poisson task arrivals/departures each
   round, the potential reaches and then *stays* in a band around the
   balanced region instead of diverging.

Both parts are declarative :mod:`repro.scenarios` schedules measured by
the executor cells in :mod:`repro.experiments.scenario_cells`
(``"shock-recovery"`` and ``"churn-band"``), so the repetitions batch
through the replica-stack engine and ``--workers`` fans the two parts
over processes — results are identical at any worker count.
"""

from __future__ import annotations

from repro.experiments.executor import CellSpec, execute_cells_report
from repro.experiments.registry import ExperimentResult, register_experiment
from repro.experiments.scenario_cells import (
    ChurnBandMeasurement,
    ShockRecoveryMeasurement,
)
from repro.utils.tables import Table, format_float

__all__ = ["run_robustness"]


@register_experiment("robustness")
def run_robustness(
    quick: bool = True,
    seed: int = 20120716,
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
) -> ExperimentResult:
    """Run the self-stabilization experiment.

    ``workers`` fans the shock and churn parts over processes; each part
    derives its own stream from ``(seed, family, n, tag)``, so results
    are identical at any worker count. ``shard_size`` additionally
    splits each part's replica ensemble into window sub-tasks (spawned
    policy only). ``rng_policy`` selects the per-replica stream layout
    inside each part.
    """
    repetitions = 3 if quick else 5
    specs = [
        CellSpec(
            kind="shock-recovery",
            family="torus",
            n=9 if quick else 16,
            m_factor=8.0,
            repetitions=repetitions,
            seed=seed,
            params=(("num_shocks", 3 if quick else 6),),
            rng_policy=rng_policy,
            shard_size=shard_size,
        ),
        CellSpec(
            kind="churn-band",
            family="torus",
            n=9,
            m_factor=8.0,
            repetitions=repetitions,
            seed=seed,
            params=(("horizon", 400 if quick else 2000),),
            rng_policy=rng_policy,
            shard_size=shard_size,
        ),
    ]
    shock: ShockRecoveryMeasurement
    churn: ChurnBandMeasurement
    report = execute_cells_report(specs, workers=workers)
    shock, churn = report.results  # type: ignore[assignment]

    shock_table = Table(
        headers=[
            "event",
            "Psi_0 after event",
            "recovery rounds (median)",
            "worst replica",
            "bound",
        ],
        title=(
            f"Shock recovery on torus(n={shock.n}), m={shock.m}: half the "
            f"tasks to node 0 ({shock.num_replicas} replicas, "
            f"{shock.engine} engine)"
        ),
    )
    shock_table.add_row(
        [
            "initial convergence",
            "-",
            shock.initial_rounds,
            "-",
            format_float(shock.bound_rounds, 0),
        ]
    )
    for index in range(shock.num_shocks):
        shock_table.add_row(
            [
                f"shock {index + 1}",
                format_float(shock.psi0_after_shocks[index], 0),
                shock.recovery_medians[index],
                shock.recovery_maxima[index],
                format_float(shock.bound_rounds, 0),
            ]
        )

    churn_table = Table(
        headers=["churn rate", "rounds", "median Psi_0", "p95 Psi_0", "4 psi_c"],
        title=(
            f"Stationary churn on torus(n={churn.n}): "
            f"Poisson({churn.churn_rate}) in/out per round "
            f"({churn.num_replicas} replicas, {churn.engine} engine)"
        ),
    )
    churn_table.add_row(
        [
            format_float(churn.churn_rate, 1),
            churn.horizon - churn.warmup,
            format_float(churn.median_psi0, 0),
            format_float(churn.p95_psi0, 0),
            format_float(4.0 * churn.psi_c, 0),
        ]
    )

    result = ExperimentResult(
        experiment_id="robustness",
        title="Self-stabilization: shock recovery and stationary churn",
        tables=[shock_table, churn_table],
        passed=shock.within_bound and churn.stationary,
        data={
            "shock": {
                "recovery_rounds": list(shock.recovery_medians),
                "recovery_maxima": list(shock.recovery_maxima),
                "initial_rounds": shock.initial_rounds,
                "bound": shock.bound_rounds,
                "engine": shock.engine,
            },
            "churn": {
                "median_psi0": churn.median_psi0,
                "p95_psi0": churn.p95_psi0,
                "psi_c": churn.psi_c,
                "engine": churn.engine,
            },
            "cell_timings": report.timings_json(),
        },
        series={
            "churn-psi0-band": {
                "round": list(range(1, churn.horizon + 1)),
                "psi0": list(churn.psi0_series),
            }
        },
    )
    result.notes.append(
        "Every shock recovery finished below the Theorem 1.1 bound — the "
        "memoryless protocol restarts its guarantee from any state."
        if shock.within_bound
        else "WARNING: a shock recovery exceeded the bound."
    )
    result.notes.append(
        "Under stationary churn the potential stays in a narrow band "
        "around the balanced region."
        if churn.stationary
        else "WARNING: the potential drifted under churn."
    )
    return result
