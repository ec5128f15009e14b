"""Experiment registry and result container."""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ExperimentError
from repro.utils.tables import Table

__all__ = [
    "ExperimentResult",
    "register_experiment",
    "available_experiments",
    "get_experiment",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Registry id.
    title:
        Human-readable title (references the paper artifact).
    tables:
        Rendered result tables.
    notes:
        Free-form observations (measured-vs-paper commentary).
    passed:
        Overall verdict: did the measurements respect the paper's claims?
    data:
        Raw numbers for JSON export.
    series:
        Named data series (figure-style output): series name -> mapping
        of column name to list of values, all columns equal length. The
        CLI's ``--csv`` option writes one CSV per series.
    """

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    passed: bool = True
    data: dict = field(default_factory=dict)
    series: dict[str, dict[str, list]] = field(default_factory=dict)


#: Registered experiments: id -> callable(quick: bool, seed: int) -> result.
_REGISTRY: dict[str, Callable[[bool, int], ExperimentResult]] = {}


def register_experiment(
    experiment_id: str,
) -> Callable[[Callable[[bool, int], ExperimentResult]], Callable[[bool, int], ExperimentResult]]:
    """Class/function decorator registering an experiment runner.

    The wrapped callable must accept ``(quick, seed)`` keyword-compatible
    positionals and return an :class:`ExperimentResult`.
    """

    def decorator(
        func: Callable[[bool, int], ExperimentResult]
    ) -> Callable[[bool, int], ExperimentResult]:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"experiment {experiment_id!r} already registered")
        _REGISTRY[experiment_id] = func
        return func

    return decorator


def _ensure_loaded() -> None:
    """Import all experiment modules so their registrations run."""
    # Imported lazily to avoid import cycles at package import time.
    from repro.experiments import (  # noqa: F401
        baselines,
        decay,
        potential_drop,
        quality,
        robustness,
        scenarios_exp,
        spectral_exp,
        table1,
        theorem11,
        theorem12,
        theorem13,
        topology_exp,
        weighted_variants,
        workloads_exp,
    )


def available_experiments() -> list[str]:
    """Sorted ids of all registered experiments."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_experiment(experiment_id: str) -> Callable[[bool, int], ExperimentResult]:
    """Look up an experiment runner by id."""
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(_REGISTRY)}"
        ) from None


def _accepts_keyword(runner: Callable[..., ExperimentResult], name: str) -> bool:
    """Whether a registered runner takes keyword ``name``."""
    try:
        parameters = inspect.signature(runner).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        return False
    if name in parameters:
        return True
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def run_experiment(
    experiment_id: str,
    quick: bool = True,
    seed: int = 20120716,
    workers: int | None = None,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
    target_ci: float | None = None,
    trace: str | None = None,
    workload: str | None = None,
) -> ExperimentResult:
    """Run an experiment by id.

    Parameters
    ----------
    quick:
        ``True`` (default) uses reduced sweeps suitable for CI;
        ``False`` runs the full sweep sizes.
    seed:
        Base seed; every repetition derives an independent child.
    workers:
        Process count for sweep-style experiments (forwarded only to
        runners that accept a ``workers`` keyword, so plain ``(quick,
        seed)`` callables keep working — a :class:`RuntimeWarning` on
        stderr flags the serial fallback when ``workers >= 2`` was
        requested). ``None`` runs serially; parallel runs produce
        identical results — every cell derives its own seed.
    rng_policy:
        Per-replica stream layout for the experiment's ensembles:
        ``"spawned"`` (default, bit-identical to earlier releases) or
        ``"counter"`` (vectorized Philox blocks, law-level equivalent).
        Forwarded only to runners that accept it; requesting
        ``"counter"`` from one that does not warns and runs spawned.
    shard_size:
        Replicas per executor shard: cells with more repetitions split
        into replica-window sub-tasks the process pool schedules
        independently (results stay byte-identical — see
        :mod:`repro.experiments.executor`). Forwarded only to runners
        that accept it; others warn and run monolithic cells.
    target_ci:
        Adaptive ensemble sizing for sweep experiments: stop each
        family cell's replica waves once the bootstrap CI half-width on
        its mean convergence round drops to this value (the configured
        repetition count becomes a cap). Forwarded only to runners that
        accept it.
    trace:
        Path to a saved workload trace file (``--trace``); forwarded
        only to runners that accept a ``trace`` keyword (the
        ``workloads-traffic`` experiment replays it as its single cell).
        Requesting it elsewhere warns and runs the normal grid.
    workload:
        Name of a workload generator (``--workload``); forwarded only
        to runners that accept it, narrowing the grid to one cell of
        that generator.

    Notes
    -----
    Every result's ``data`` gains a ``run_meta`` record — the requested
    and *effective* worker count, rng policy, and sharding knobs — so
    JSON artifacts are self-describing about how they were produced (a
    requested ``--workers``/``--rng``/``--shard-size`` that fell back
    is visible in the artifact, not just on stderr). Runners that time
    their cells report per-cell wall-clock and effective ensemble sizes
    under ``run_meta["cell_timings"]``.
    """
    from repro.utils.rng import check_rng_policy

    check_rng_policy(rng_policy)
    runner = get_experiment(experiment_id)
    keywords: dict[str, object] = {}
    # Per knob: keyword, value, whether ignoring it warns, and the
    # warning's reason, CLI flag and fallback.
    knobs = (
        ("workers", workers, workers is not None and workers > 1,
         "does not support parallel execution", "--workers", "running serially"),
        ("rng_policy", rng_policy, rng_policy != "spawned",
         "has no rng_policy parameter", "--rng", "using spawned streams"),
        ("shard_size", shard_size, True,
         "has no shard_size parameter", "--shard-size", "running monolithic cells"),
        ("target_ci", target_ci, True,
         "has no target_ci parameter", "--target-ci", "running fixed-size ensembles"),
        ("trace", trace, True,
         "has no trace parameter", "--trace", "running its normal grid"),
        ("workload", workload, True,
         "has no workload parameter", "--workload", "running its normal grid"),
    )
    for name, value, warns, reason, flag, fallback in knobs:
        if value is None:
            continue
        if _accepts_keyword(runner, name):
            keywords[name] = value
        elif warns:
            warnings.warn(
                f"experiment {experiment_id!r} {reason}; ignoring {flag} "
                f"{value} and {fallback}",
                RuntimeWarning,
                stacklevel=2,
            )
    result = runner(quick, seed, **keywords)
    cell_timings = result.data.pop("cell_timings", None)
    result.data["run_meta"] = {
        "workers_requested": workers,
        "workers_effective": keywords.get("workers", 1) or 1,
        "rng_policy_requested": rng_policy,
        "rng_policy_effective": keywords.get("rng_policy", "spawned"),
        "shard_size_requested": shard_size,
        "shard_size_effective": keywords.get("shard_size"),
        "target_ci_requested": target_ci,
        "target_ci_effective": keywords.get("target_ci"),
        "trace": keywords.get("trace"),
        "workload": keywords.get("workload"),
        "seed": seed,
        "quick": quick,
    }
    if cell_timings is not None:
        result.data["run_meta"]["cell_timings"] = cell_timings
    return result
