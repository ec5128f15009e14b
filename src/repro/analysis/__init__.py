"""Measurement analysis: scaling fits, statistics, convergence extraction,
and steady-state/recovery metrics for dynamic-workload scenarios."""

from repro.analysis.fitting import (
    PowerLawFit,
    fit_power_law,
    fit_exponential_decay,
    exponent_consistent,
)
from repro.analysis.statistics import (
    SampleSummary,
    summarize,
    bootstrap_ci,
    geometric_mean,
)
from repro.analysis.convergence import (
    ConvergenceMeasurement,
    measure_convergence_rounds,
    merge_convergence_measurements,
)
from repro.analysis.dynamics import (
    recovery_rounds,
    time_averaged_imbalance,
    rolling_violation,
    SteadyStateBand,
    steady_state_band,
)
from repro.analysis.streaming import (
    ObservableSummary,
    RunningMoments,
)

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "fit_exponential_decay",
    "exponent_consistent",
    "SampleSummary",
    "summarize",
    "bootstrap_ci",
    "geometric_mean",
    "ConvergenceMeasurement",
    "measure_convergence_rounds",
    "merge_convergence_measurements",
    "recovery_rounds",
    "time_averaged_imbalance",
    "rolling_violation",
    "SteadyStateBand",
    "steady_state_band",
    "ObservableSummary",
    "RunningMoments",
]
