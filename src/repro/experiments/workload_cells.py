"""Picklable trace-replay measurement cells for the sweep executor.

Two kinds bridge :mod:`repro.workloads` into the executor:

* ``"workload-replay"`` (:func:`_build_workload_cell`) — build a
  generator trace (or load one from disk), compile it to a
  deterministic schedule, replay it over an ensemble, and check exact
  task conservation: the recorded per-round task counts must equal the
  trace's :func:`~repro.workloads.task_timeline` in every replica, on
  every engine, under both RNG policies.
* ``"workload-adversarial"`` (:func:`_build_adversarial_cell`) —
  the adversarial generator: arrivals target each replica's currently
  most-loaded node (placement deferred to application time), measuring
  how much imbalance pressure the protocol absorbs.

Cell construction is deterministic in ``(kind, family, n, m_factor,
seed, params)`` — the trace itself derives from ``derive_seed(seed,
family, n, "trace-<workload>")`` — so a worker process rebuilding the
cell for a replica window agrees with the parent byte-for-byte.
Because compiled trace events consume zero replica-stream randomness,
these are the only scenario kinds whose *counter*-policy ensembles may
shard (weighted task systems only; the uniform kernel's multinomial
site is whole-stack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.dynamics import (
    rolling_violation,
    steady_state_band,
    time_averaged_imbalance,
)
from repro.errors import ValidationError
from repro.experiments.scenario_cells import _ScenarioCell, _scenario_setup
from repro.graphs.families import get_family
from repro.scenarios import ScenarioResult, ScenarioRunner
from repro.utils.rng import derive_seed
from repro.workloads import (
    WorkloadTrace,
    build_workload,
    compile_trace,
    load_trace,
    task_timeline,
)

__all__ = ["WorkloadMeasurement"]


@dataclass(frozen=True)
class WorkloadMeasurement:
    """Trace-replay measurement for one (family, size) cell.

    Attributes
    ----------
    family, n, m, tasks, workload:
        Cell configuration; ``m`` is the initial task count (the trace's
        ``initial_tasks``), ``workload`` the generator name (or
        ``"file"`` for loaded traces).
    engine:
        Which engine ran the replicas (``"batch"`` or ``"scalar"``).
    horizon, num_events, num_task_events:
        Trace shape: rounds, trace events, and individual task-level
        events (arrivals + departures) replayed per replica.
    final_tasks, peak_tasks:
        The trace timeline's endpoint and maximum.
    conservation_ok:
        The replay invariant: every replica's recorded per-round task
        count equals the trace timeline exactly. Compiled events are
        deterministic and validated traces never clamp a departure, so
        any mismatch is an engine bug, not noise.
    mean_imbalance:
        Pooled post-warmup time-averaged ``L_Delta``.
    violation_settled:
        Mean rolling Nash-violation fraction over the final window.
    psi0_median, psi0_p95:
        Post-warmup band of ``Psi_0`` under the replayed traffic.
    """

    family: str
    n: int
    m: int
    tasks: str
    workload: str
    engine: str
    num_replicas: int
    horizon: int
    num_events: int
    num_task_events: int
    final_tasks: int
    peak_tasks: int
    conservation_ok: bool
    mean_imbalance: float
    violation_settled: float
    psi0_median: float
    psi0_p95: float


def _cell_trace(
    family_name: str,
    n: int,
    m: int,
    seed: int,
    workload: str,
    horizon: int,
    trace_path: str | None,
    overrides: dict,
) -> tuple[WorkloadTrace, str]:
    """The cell's trace: generated from the cell's derived seed, or loaded."""
    if trace_path is not None:
        trace = load_trace(trace_path)
        if trace.num_nodes != n:
            raise ValidationError(
                f"trace has {trace.num_nodes} nodes but family "
                f"{family_name!r} realizes n={n}; regenerate the trace "
                f"for this graph size"
            )
        return trace, "file"
    trace = build_workload(
        workload,
        num_nodes=n,
        horizon=horizon,
        seed=derive_seed(seed, family_name, n, f"trace-{workload}"),
        initial_tasks=m,
        **overrides,
    )
    return trace, workload


def _build_workload_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    tasks: str = "uniform",
    workload: str = "mmpp-flash",
    horizon: int = 120,
    trace_path: str | None = None,
    warmup: int = 10,
    violation_window: int = 10,
    **overrides,
) -> _ScenarioCell:
    """Replay a compiled workload trace over an ensemble.

    ``m = ceil(m_factor * n)`` tasks start randomly placed; the trace
    (the ``workload`` generator with ``overrides``, or the
    ``trace_path`` file) compiles to a deterministic schedule, so the
    recorded task counts must track
    :func:`~repro.workloads.task_timeline` exactly — the
    ``conservation_ok`` verdict — across engines, RNG policies, worker
    counts, and replica shards.
    """
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    m = int(math.ceil(m_factor * n))
    trace, workload_name = _cell_trace(
        family_name, n, m, seed, workload, horizon, trace_path, overrides
    )
    # Loaded traces dictate their own initial placement size and length;
    # generated ones were built to match the cell's m and horizon.
    m = trace.initial_tasks
    if m < 1:
        raise ValidationError(
            "workload cells need a non-empty initial placement; "
            f"trace has initial_tasks={m}"
        )
    protocol, target, factory = _scenario_setup(graph, tasks, m)
    # load_trace and every generator hand back a validated trace.
    runner = ScenarioRunner(
        graph, protocol, compile_trace(trace, validate=False), target=target
    )
    expected = task_timeline(trace)

    def summarize(result: ScenarioResult) -> WorkloadMeasurement:
        observed = np.asarray(result.num_tasks)
        conservation_ok = bool(
            np.array_equal(
                observed, np.broadcast_to(expected[:, None], observed.shape)
            )
        )
        rolling = rolling_violation(result.nash_violation, violation_window)
        band = steady_state_band(result.psi0, warmup)
        return WorkloadMeasurement(
            family=family_name,
            n=n,
            m=m,
            tasks=tasks,
            workload=workload_name,
            engine=result.engine,
            num_replicas=result.num_replicas,
            horizon=trace.horizon,
            num_events=trace.num_events,
            num_task_events=trace.num_task_events,
            final_tasks=trace.final_tasks,
            peak_tasks=int(expected.max()),
            conservation_ok=conservation_ok,
            mean_imbalance=float(
                time_averaged_imbalance(
                    result.max_load_difference, warmup
                ).mean()
            ),
            violation_settled=float(rolling[-1].mean()),
            psi0_median=band.median,
            psi0_p95=band.p95,
        )

    return _ScenarioCell(
        runner=runner,
        factory=factory,
        horizon=trace.horizon,
        cell_seed=derive_seed(seed, family_name, n, f"workload-{tasks}"),
        summarize=summarize,
    )


def _build_adversarial_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    workload: str = "adversarial",
    **params,
) -> _ScenarioCell:
    """The replay cell pinned to the adversarial generator.

    The trace pins arrival *counts* per round; each replica resolves the
    target node at application time as its own ``argmax`` load, so the
    pressure adapts per trajectory while the task timeline — and hence
    the conservation verdict — stays deterministic.
    """
    if workload != "adversarial":
        raise ValidationError(
            "workload-adversarial cells always replay the 'adversarial' "
            f"generator, got workload={workload!r}"
        )
    return _build_workload_cell(
        family_name, target_n, m_factor, seed, workload="adversarial", **params
    )
