"""Algorithm 2 probability rules vs the [6] per-task condition.

Section 4's key design decision: a task's migration decision ignores its
own weight (condition ``l_i - l_j > 1/s_j``), so per edge either all
tasks want to move or none — the property the analysis leans on. The
baseline keeps [6]'s per-task condition ``l_i - l_j > w_l/s_j``.

The experiment compares three protocols on a heavy/light task mix:

* Algorithm 2, flow rule (Definition 4.1 — the analysis form);
* Algorithm 2, literal pseudo-code rule (differs for non-uniform speeds);
* the per-task-threshold baseline ([6]-style).

Measured: rounds to the threshold state (``l_i - l_j <= 1/s_j`` on all
edges, Algorithm 2's convergence target) over independent repetitions,
plus the residual churn afterwards (a scalar probe replaying repetition
0). Each variant is one executor
:class:`~repro.experiments.executor.CellSpec` (kind
``"weighted-variant"``, implemented by
:func:`repro.experiments._common.measure_variant_threshold_time`), so
the three cells — measurement and churn probe alike — fan out over
processes under ``--workers`` while each cell still batches its
repetitions as one padded
:class:`~repro.model.batch.BatchWeightedState` replica stack. The
per-task baseline's lighter tasks keep migrating after the threshold
state is reached (their own condition is stricter), which is exactly the
behaviour the paper's modification removes.
"""

from __future__ import annotations

from repro.experiments._common import WEIGHTED_VARIANT_LABELS
from repro.experiments.executor import CellSpec, execute_cells_report
from repro.experiments.registry import ExperimentResult, register_experiment
from repro.utils.tables import Table, format_float

__all__ = ["run_weighted_variants"]

#: Variant order of the ablation (also the report's row order).
_VARIANTS = ("flow", "pseudocode", "per-task")


@register_experiment("weighted-variants")
def run_weighted_variants(
    quick: bool = True,
    seed: int = 20120716,
    engine: str = "auto",
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
) -> ExperimentResult:
    """Run the weighted-protocol ablation.

    ``engine`` selects the measurement engine for the rounds-to-threshold
    statistic (``"auto"`` batches the repetitions; ``"scalar"`` forces
    the sequential reference — identical results either way, the
    weighted kernels are pathwise equivalent). ``workers`` fans the
    per-variant measurement cells over processes, ``shard_size``
    additionally splits each variant's ensemble into replica-window
    sub-tasks (both rng policies — the variant kind's draw site is
    replica-addressed); each cell derives its seed from the variant
    label, so results are identical at any (workers, shard_size).
    """
    family_name = "ring"
    target_n = 8 if quick else 16
    m = 1500 if quick else 6000
    budget = 30_000 if quick else 200_000
    repetitions = 3 if quick else 5

    specs = [
        CellSpec(
            kind="weighted-variant",
            family=family_name,
            n=target_n,
            m_factor=m / target_n,
            repetitions=repetitions,
            seed=seed,
            params=(
                ("engine", engine),
                ("m", m),
                ("max_rounds", budget),
                ("variant", variant),
            ),
            rng_policy=rng_policy,
            shard_size=shard_size,
        )
        for variant in _VARIANTS
    ]
    report = execute_cells_report(specs, workers=workers)
    measurements = list(report.results)

    table = Table(
        headers=[
            "protocol",
            "median rounds to threshold state",
            "churn/round after",
            "still threshold-NE after churn",
        ],
        title=(
            f"Weighted variants on ring(n={target_n}), two-class speeds, "
            f"m={m} heavy/light tasks, {repetitions} repetitions"
        ),
    )
    rows = {}
    converged_all = True
    engine_used = None
    for measurement in measurements:
        engine_used = measurement.engine
        converged_all = converged_all and (
            measurement.num_converged == measurement.num_repetitions
            and measurement.probe_converged
        )
        table.add_row(
            [
                measurement.label,
                measurement.median_rounds,
                format_float(measurement.churn_per_round, 3),
                measurement.still_threshold_nash,
            ]
        )
        rows[measurement.label] = {
            "rounds": measurement.median_rounds,
            "churn_per_round": measurement.churn_per_round,
            "still_threshold_nash": measurement.still_threshold_nash,
        }

    # Expected shape: both Algorithm 2 rules converge and then stay quiet
    # (zero churn: no edge satisfies the weight-oblivious condition). The
    # per-task baseline may keep moving light tasks.
    alg2_quiet = (
        rows[WEIGHTED_VARIANT_LABELS["flow"]]["churn_per_round"] == 0.0
        and rows[WEIGHTED_VARIANT_LABELS["pseudocode"]]["churn_per_round"] == 0.0
    )
    result = ExperimentResult(
        experiment_id="weighted-variants",
        title="Section 4 ablation: migration condition and probability rule",
        tables=[table],
        passed=converged_all and alg2_quiet,
        data={
            "rows": rows,
            "engine": engine_used,
            "cell_timings": report.timings_json(),
        },
    )
    result.notes.append(
        f"Rounds-to-threshold measured over {repetitions} repetitions via "
        f"the {engine_used!r} engine."
    )
    result.notes.append(
        "Both Algorithm 2 rules reach the threshold state and stop moving "
        "entirely (all-or-none incentive per edge)."
        if alg2_quiet
        else "WARNING: Algorithm 2 kept migrating after the threshold state."
    )
    per_task_churn = rows[WEIGHTED_VARIANT_LABELS["per-task"]]["churn_per_round"]
    result.notes.append(
        f"The per-task baseline continues migrating light tasks after the "
        f"threshold state ({per_task_churn:.2f} moves/round) — the churn "
        f"the paper's weight-oblivious condition eliminates."
        if per_task_churn > 0
        else "The per-task baseline also became quiet (it reached the "
        "stronger per-task NE)."
    )
    return result
