"""Empirical reproduction of the paper's Table 1.

Table 1 compares asymptotic convergence bounds (this paper vs [6]) for
complete graphs, rings/paths, meshes/tori and hypercubes, for both
eps-approximate and exact Nash equilibria. The paper proves *upper
bounds*; the reproduction measures actual convergence rounds over a size
sweep, fits the scaling exponent in ``n``, and checks:

1. the measured exponent does not exceed this paper's bound exponent
   (plus slack for polylog factors and finite sizes), and
2. this paper's bound evaluated with its concrete constants upper-bounds
   every measured cell — i.e. the paper's rows are *valid* and *tighter*
   than [6]'s rows (whose exponents exceed ours by construction).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import fit_power_law
from repro.experiments._common import (
    APPROX_SWEEP_FULL,
    APPROX_SWEEP_QUICK,
    EXACT_SWEEP_FULL,
    EXACT_SWEEP_QUICK,
    WEIGHTED_SWEEP_FULL,
    WEIGHTED_SWEEP_QUICK,
    FamilyMeasurement,
)
from repro.experiments.executor import (
    execute_cells_report,
    group_by_family,
    sweep_specs,
)
from repro.experiments.registry import ExperimentResult, register_experiment
from repro.graphs.families import get_family
from repro.theory.table1 import TABLE1_ROWS
from repro.utils.tables import Table, format_float

__all__ = ["run_table1_approx", "run_table1_exact", "run_table1_weighted"]

#: Slack allowed between the measured exponent and the *effective*
#: exponent of the paper's bound over the same size sweep. Absorbs
#: repetition noise and finite-size effects.
EXPONENT_SLACK = 0.45


def _row_for(family: str):
    for row in TABLE1_ROWS:
        if row.family == family:
            return row
    raise KeyError(family)


def _sweep_table(
    measurements: dict[str, list[FamilyMeasurement]], title: str
) -> Table:
    table = Table(
        headers=["family", "n", "m", "lambda2", "median T", "bound", "T/bound", "conv"],
        title=title,
    )
    for family, cells in measurements.items():
        for cell in cells:
            ratio = (
                cell.median_rounds / cell.bound_rounds
                if cell.bound_rounds > 0 and not np.isnan(cell.median_rounds)
                else float("nan")
            )
            table.add_row(
                [
                    family,
                    cell.n,
                    cell.m,
                    format_float(cell.lambda2, 4),
                    cell.median_rounds,
                    format_float(cell.bound_rounds, 0),
                    format_float(ratio, 4),
                    f"{cell.num_converged}/{cell.num_repetitions}",
                ]
            )
    return table


def _fit_table(
    measurements: dict[str, list[FamilyMeasurement]],
    bound_kind: str,
    title: str,
    this_column_key: str = "",
    prior_column_key: str = "",
) -> tuple[Table, bool, dict]:
    """Fit measured times and the paper's bound over the same sweep.

    The paper's bounds have polylog factors, so a plain power-law fit of
    the *bound itself* over the sweep gives its effective exponent at
    these sizes; the measured exponent must not exceed it (plus slack).
    ``bound_kind`` selects the bound column: "approx" or "exact" use the
    Table 1 asymptotic strings (selected by the two column keys, which
    are required for those kinds) and the family bound formulas,
    "weighted" uses the Theorem 1.3 bound evaluated per cell (Table 1
    has no weighted column — the weighted sweep is its natural
    extension, and the keys are unused).
    """
    if bound_kind != "weighted" and not (this_column_key and prior_column_key):
        raise ValueError(
            f"bound_kind {bound_kind!r} requires this_column_key and "
            "prior_column_key naming Table1Row fields"
        )
    table = Table(
        headers=[
            "family",
            "bound (this paper)",
            "bound ([6])",
            "measured exponent",
            "bound effective exponent",
            "within bound",
        ],
        title=title,
    )
    all_ok = True
    fits: dict = {}
    for family_name, cells in measurements.items():
        if bound_kind == "weighted":
            this_text = "ln(m/n) Delta/lambda2 s_max^2/s_min (Thm 1.3)"
            prior_text = "n/a (no weighted-speeds row)"
        else:
            row = _row_for(family_name)
            this_text = getattr(row, this_column_key)
            prior_text = getattr(row, prior_column_key)
        family = get_family(family_name)
        usable = [c for c in cells if not np.isnan(c.median_rounds)]
        sizes = np.array([c.n for c in usable], dtype=np.float64)
        times = np.array([max(c.median_rounds, 0.5) for c in usable])
        if sizes.shape[0] >= 2 and np.unique(sizes).shape[0] >= 2:
            if bound_kind == "approx":
                bound_values = np.array(
                    [family.approx_bound_this(c.n, c.m) for c in usable]
                )
            elif bound_kind == "weighted":
                bound_values = np.array([c.bound_rounds for c in usable])
            else:
                bound_values = np.array(
                    [family.exact_bound_this(c.n) for c in usable]
                )
            fit = fit_power_law(sizes, times)
            bound_fit = fit_power_law(sizes, bound_values)
            ok = fit.exponent <= bound_fit.exponent + EXPONENT_SLACK
            measured = fit.exponent
            effective = bound_fit.exponent
            fits[family_name] = {
                "exponent": fit.exponent,
                "r_squared": fit.r_squared,
                "bound_effective_exponent": effective,
                "ok": ok,
            }
        else:
            ok = False
            measured = float("nan")
            effective = float("nan")
            fits[family_name] = {"exponent": None, "ok": False}
        all_ok = all_ok and ok
        table.add_row(
            [
                family_name,
                this_text,
                prior_text,
                format_float(measured, 3),
                format_float(effective, 3),
                ok,
            ]
        )
    return table, all_ok, fits


@register_experiment("table1-approx")
def run_table1_approx(
    quick: bool = True,
    seed: int = 20120716,
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
    target_ci: float | None = None,
) -> ExperimentResult:
    """Table 1, eps-approximate NE columns.

    Measures the first round with ``Psi_0 <= 4 psi_c`` (the Theorem 1.1
    target; an eps-approximate NE once ``m`` clears the Lemma 3.17
    threshold — checked separately in ``thm11``). ``workers`` fans the
    (family, size) cells over processes, ``shard_size`` additionally
    splits each cell's ensemble into replica-window pool tasks; results
    are identical at any (workers, shard_size). ``target_ci`` switches
    to adaptive ensemble sizing (see
    :mod:`repro.experiments.executor`).
    """
    sweep = APPROX_SWEEP_QUICK if quick else APPROX_SWEEP_FULL
    repetitions = 3 if quick else 5
    specs = sweep_specs(
        "approx",
        sweep,
        m_factor=8.0,
        repetitions=repetitions,
        seed=seed,
        rng_policy=rng_policy,
        shard_size=shard_size,
        target_ci=target_ci,
    )
    report = execute_cells_report(specs, workers=workers)
    measurements: dict[str, list[FamilyMeasurement]] = group_by_family(
        specs, list(report.results)
    )

    sweep_table = _sweep_table(
        measurements, "Measured rounds to Psi_0 <= 4 psi_c (uniform speeds, m = 8 n^2)"
    )
    fit_table, all_ok, fits = _fit_table(
        measurements,
        bound_kind="approx",
        this_column_key="approx_this",
        prior_column_key="approx_prior",
        title="Scaling fits vs Table 1 (eps-approximate NE columns)",
    )

    bounded = all(
        cell.median_rounds <= cell.bound_rounds
        for cells in measurements.values()
        for cell in cells
        if not np.isnan(cell.median_rounds)
    )
    converged = all(
        cell.num_converged == cell.num_repetitions
        for cells in measurements.values()
        for cell in cells
    )
    result = ExperimentResult(
        experiment_id="table1-approx",
        title="Table 1 (eps-approximate NE): measured convergence vs bounds",
        tables=[sweep_table, fit_table],
        passed=all_ok and bounded and converged,
        data={"fits": fits, "cell_timings": report.timings_json()},
    )
    result.notes.append(
        "Every measured cell lies below the Theorem 1.1 bound with its "
        "explicit constants." if bounded else
        "WARNING: some cell exceeded the Theorem 1.1 bound."
    )
    result.notes.append(
        "Measured scaling exponents respect this paper's Table 1 rows; "
        "[6]'s rows are looser by construction (higher exponents)."
        if all_ok
        else "WARNING: a fitted exponent exceeded the bound exponent + slack."
    )
    return result


@register_experiment("table1-exact")
def run_table1_exact(
    quick: bool = True,
    seed: int = 20120716,
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
    target_ci: float | None = None,
) -> ExperimentResult:
    """Table 1, exact NE columns.

    Measures the first round in an exact Nash equilibrium (uniform tasks,
    uniform speeds, ``m = 8 n``, adversarial all-on-one start).
    ``workers`` fans the (family, size) cells over processes,
    ``shard_size`` additionally splits each cell's ensemble into
    replica-window pool tasks; results are identical at any (workers,
    shard_size). ``target_ci`` switches to adaptive ensemble sizing.
    """
    sweep = EXACT_SWEEP_QUICK if quick else EXACT_SWEEP_FULL
    repetitions = 3 if quick else 5
    specs = sweep_specs(
        "exact",
        sweep,
        m_factor=8.0,
        repetitions=repetitions,
        seed=seed,
        rng_policy=rng_policy,
        shard_size=shard_size,
        target_ci=target_ci,
    )
    report = execute_cells_report(specs, workers=workers)
    measurements: dict[str, list[FamilyMeasurement]] = group_by_family(
        specs, list(report.results)
    )

    sweep_table = _sweep_table(
        measurements, "Measured rounds to the exact NE (uniform speeds, m = 8 n, adversarial start)"
    )
    fit_table, all_ok, fits = _fit_table(
        measurements,
        bound_kind="exact",
        this_column_key="exact_this",
        prior_column_key="exact_prior",
        title="Scaling fits vs Table 1 (exact NE columns)",
    )

    bounded = all(
        cell.median_rounds <= cell.bound_rounds
        for cells in measurements.values()
        for cell in cells
        if not np.isnan(cell.median_rounds)
    )
    converged = all(
        cell.num_converged == cell.num_repetitions
        for cells in measurements.values()
        for cell in cells
    )
    result = ExperimentResult(
        experiment_id="table1-exact",
        title="Table 1 (exact NE): measured convergence vs bounds",
        tables=[sweep_table, fit_table],
        passed=all_ok and bounded and converged,
        data={"fits": fits, "cell_timings": report.timings_json()},
    )
    result.notes.append(
        "All repetitions reached an exact NE within the Theorem 1.2 budget."
        if converged
        else "WARNING: some repetitions did not reach an exact NE in budget."
    )
    return result


@register_experiment("table1-weighted")
def run_table1_weighted(
    quick: bool = True,
    seed: int = 20120716,
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
    target_ci: float | None = None,
) -> ExperimentResult:
    """Weighted extension of the Table 1 sweep (Theorem 1.3 target).

    The paper's Table 1 covers the uniform-task protocol; this sweep is
    its weighted analogue. Algorithm 2 runs heavy/light two-class tasks
    (``m = 8 n``, all starting on one node) to the threshold state
    ``l_i - l_j <= 1/s_j``, per (family, size) cell, and the measured
    scaling exponent is checked against the effective exponent of the
    Theorem 1.3 bound over the same sizes — mirroring ``table1-exact``.
    ``workers`` fans the cells over processes, ``shard_size``
    additionally splits each cell's ensemble into replica-window pool
    tasks; results are identical at any (workers, shard_size) under
    both rng policies. ``target_ci`` switches to adaptive ensemble
    sizing.
    """
    sweep = WEIGHTED_SWEEP_QUICK if quick else WEIGHTED_SWEEP_FULL
    repetitions = 3 if quick else 5
    specs = sweep_specs(
        "weighted",
        sweep,
        m_factor=8.0,
        repetitions=repetitions,
        seed=seed,
        rng_policy=rng_policy,
        shard_size=shard_size,
        target_ci=target_ci,
    )
    report = execute_cells_report(specs, workers=workers)
    measurements: dict[str, list[FamilyMeasurement]] = group_by_family(
        specs, list(report.results)
    )

    sweep_table = _sweep_table(
        measurements,
        "Measured rounds to the threshold state (two-class weights, "
        "m = 8 n, adversarial start)",
    )
    fit_table, all_ok, fits = _fit_table(
        measurements,
        bound_kind="weighted",
        title="Scaling fits vs the Theorem 1.3 bound (weighted tasks)",
    )

    converged = all(
        cell.num_converged == cell.num_repetitions
        for cells in measurements.values()
        for cell in cells
    )
    # The verdict gates on convergence within the (50x-slack) budget and
    # on the scaling fit. Theorem 1.3 bounds the *expected* rounds to the
    # potential threshold, not the first-hitting time to the threshold
    # state measured here, so a per-cell median <= bound check would
    # assert a claim the theorem does not make; the T/bound column stays
    # informational.
    result = ExperimentResult(
        experiment_id="table1-weighted",
        title="Table 1 extension (weighted tasks): measured convergence vs "
        "Theorem 1.3",
        tables=[sweep_table, fit_table],
        passed=all_ok and converged,
        data={"fits": fits, "cell_timings": report.timings_json()},
    )
    flat = [cell for cells in measurements.values() for cell in cells]
    result.series["weighted_sweep"] = {
        "family": [cell.family for cell in flat],
        "n": [cell.n for cell in flat],
        "m": [cell.m for cell in flat],
        "median_rounds": [cell.median_rounds for cell in flat],
        "bound_rounds": [cell.bound_rounds for cell in flat],
    }
    result.notes.append(
        "Every repetition reached the threshold state within the "
        "Theorem 1.3 budget (bound x 50 slack)."
        if converged
        else "WARNING: a repetition did not reach the threshold state "
        "within the Theorem 1.3 budget."
    )
    result.notes.append(
        "Measured scaling exponents stay within the Theorem 1.3 bound's "
        "effective exponent (plus slack)."
        if all_ok
        else "WARNING: a fitted exponent exceeded the bound exponent + slack."
    )
    return result
