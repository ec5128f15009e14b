"""Parallel sweep executor: fan independent measurement cells over processes.

The Table-1-style experiments sweep independent (graph family, size)
cells — each cell spawns its own replica ensemble from a seed derived
via :func:`repro.utils.rng.derive_seed`, so cells share no state and no
randomness. This module turns those sweeps into data: a
:class:`CellSpec` names the measurement kind and its parameters, and
:func:`execute_cells` runs a spec list either serially in-process
(``workers=None``) or fanned out over a ``ProcessPoolExecutor``.

Because every cell derives its own seed *inside* its builder —
``(seed, family, n, tag)`` for the sweep kinds, ``(seed, variant
label)`` for the single-cell ``"weighted-variant"`` kind (see
:func:`repro.experiments._common.variant_measure_seed`) — results are
bit-identical at any worker count: parallelism changes wall-clock,
never numbers.

Three nested parallel axes compose here:

1. the batch engine vectorizes the replicas *inside* one shard;
2. ``CellSpec.shard_size`` splits one cell's replica ensemble into
   replica-window shards — each shard draws exactly the streams its
   replicas would draw in a monolithic run (offset-aware spawned
   children; globally replica-addressed counter blocks), so merging
   shard results in replica order is byte-identical to the serial run
   at any ``(workers, shard_size)``;
3. the process pool schedules the flattened (cell, shard) task list
   via a submit/as-completed work queue, so one huge cell no longer
   serializes the sweep.

``CellSpec.target_ci`` additionally switches a family-sweep cell to
*adaptive ensemble sizing*: replicas run in shard-sized waves until the
bootstrap CI half-width on the mean convergence round drops below the
target (NaN rounds from unconverged replicas are excluded — see
:func:`repro.analysis.statistics.bootstrap_half_width`), with
``repetitions`` as the hard cap. Wave boundaries and the CI evaluation
seed are deterministic functions of the spec, so adaptive runs are
reproducible at any worker count too.

:data:`CELL_KINDS` is the one table of measurement kinds. Each
:class:`CellKind` names the kind's cell builder — the four static
kinds' in :mod:`repro.experiments._common`, the scenario kinds' in
:mod:`repro.experiments.scenario_cells` and
:mod:`repro.experiments.workload_cells` — plus whether it sizes
adaptively and when it shards under counter streams. Every kind runs
through one body: build the cell, run its ensemble (or a replica
window of it) on the spec's ``engine`` param and rng policy, merge the
windows and summarize. A shard returns the raw ensemble result (a
:class:`~repro.analysis.convergence.ConvergenceMeasurement` or a
:class:`~repro.scenarios.ScenarioResult`). The serial path builds each
cell once, runs every window on it and merges with it. A pool worker
builds the cell for each task it runs, because a built cell binds
closures, which do not pickle; the parent then builds a split cell once
more to merge and summarize it. Workers are processes, not threads, so
specs and results must be picklable: results are frozen dataclasses of
plain scalars, and a worker process finds the table by importing this
module to unpickle a :class:`CellSpec`.

Sharding restrictions (enforced per spec, only when a split would
actually happen): under ``rng_policy="counter"`` only the weighted
kinds and the weighted-task trace replay kinds shard, as each record's
``counter_shardable`` says. Under the default spawned policy every kind
shards.
"""

from __future__ import annotations

import inspect
import math
import numbers
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from repro.analysis.statistics import bootstrap_half_width
from repro.errors import ValidationError
from repro.experiments._common import (
    _build_approx_cell,
    _build_exact_cell,
    _build_variant_cell,
    _build_weighted_cell,
    _Cell,
)
from repro.experiments.scenario_cells import (
    _build_churn_cell,
    _build_recovery_cell,
    _build_shock_cell,
    _build_topology_cell,
)
from repro.experiments.workload_cells import (
    _build_adversarial_cell,
    _build_workload_cell,
)
from repro.utils.rng import check_rng_policy, derive_seed
from repro.utils.validation import check_integer, check_non_negative

__all__ = [
    "CellSpec",
    "CellKind",
    "CELL_KINDS",
    "ShardTiming",
    "CellTiming",
    "ExecutionReport",
    "run_cell",
    "run_cell_shard",
    "execute_cells",
    "execute_cells_report",
    "sweep_specs",
    "group_by_family",
]

T = TypeVar("T")


@dataclass(frozen=True)
class CellKind:
    """Everything the executor knows about one measurement kind.

    ``build(family_name, target_n, m_factor, seed, **params)`` builds
    the kind's cell (:class:`repro.experiments._common._Cell`): the
    ensemble run, the merge of replica windows and the summary. The
    builder's keywords past those four, plus ``engine`` (which goes to
    the ensemble run, never to the builder), are the params the kind
    takes.

    ``adaptive`` marks the family sweep kinds, whose mean convergence
    round ``target_ci`` can target. ``counter_shardable`` says from a
    spec's params whether the kind's ensembles split into replica
    windows under ``rng_policy="counter"``.
    """

    build: Callable[..., _Cell]
    adaptive: bool = False
    counter_shardable: Callable[[Mapping[str, object]], bool] = (
        lambda params: False
    )


def _weighted_tasks(params: Mapping[str, object]) -> bool:
    return params.get("tasks", "uniform") == "weighted"


#: The measurement kinds. Under counter streams the weighted kinds
#: shard (their one draw site is fixed-width and replica-addressed), and
#: so do the trace replay kinds on weighted tasks: compiled trace events
#: draw nothing, while the uniform kernel's multinomial site is
#: whole-stack. Every other kind draws data-dependent whole-stack blocks
#: that a replica window cannot reproduce.
CELL_KINDS: Mapping[str, CellKind] = MappingProxyType(
    {
        "approx": CellKind(_build_approx_cell, adaptive=True),
        "exact": CellKind(_build_exact_cell, adaptive=True),
        "weighted": CellKind(
            _build_weighted_cell,
            adaptive=True,
            counter_shardable=lambda params: True,
        ),
        "weighted-variant": CellKind(
            _build_variant_cell, counter_shardable=lambda params: True
        ),
        "scenario-recovery": CellKind(_build_recovery_cell),
        "shock-recovery": CellKind(_build_shock_cell),
        "churn-band": CellKind(_build_churn_cell),
        "topology-resilience": CellKind(_build_topology_cell),
        "workload-replay": CellKind(
            _build_workload_cell, counter_shardable=_weighted_tasks
        ),
        "workload-adversarial": CellKind(
            _build_adversarial_cell, counter_shardable=_weighted_tasks
        ),
    }
)

#: Keywords a run fills from the spec fields and the replica window.
_SPEC_FILLED = frozenset(
    {"m_factor", "repetitions", "seed", "rng_policy", "replica_offset", "replica_count"}
)

#: Wave size for adaptive cells that set no explicit ``shard_size``.
_DEFAULT_ADAPTIVE_WAVE = 8

#: Converged samples required before the adaptive CI is evaluated at
#: all (a 2-3 sample bootstrap interval is noise, not evidence).
_MIN_ADAPTIVE_SAMPLE = 4


@dataclass(frozen=True)
class CellSpec:
    """Declarative description of one independent measurement cell.

    Attributes
    ----------
    kind:
        Key into :data:`CELL_KINDS`.
    family, n:
        Graph family name and target size of the cell.
    m_factor:
        Task-count factor (the kind decides whether it scales ``n`` or
        ``n^2``).
    repetitions:
        Independent repetitions inside the cell (batched by the PR 1/2
        engines where possible). Under adaptive sizing (``target_ci``)
        this is the hard cap.
    seed:
        Base seed; the cell builder derives the cell's own stream from
        ``(seed, family, n, tag)``, which is what makes the execution
        order — and the worker count — irrelevant to results.
    params:
        Kind-specific keyword extras as a sorted tuple of ``(name,
        value)`` pairs (tuples keep the spec hashable and picklable).
    rng_policy:
        Per-replica stream layout inside the cell: ``"spawned"``
        (default, bit-identical to all earlier releases) or
        ``"counter"`` (vectorized Philox block draws; law-level
        equivalent and same-seed deterministic — including across
        process boundaries, so counter cells too are byte-identical at
        any worker count).
    shard_size:
        Replicas per shard. ``None`` (default) keeps the cell
        monolithic; a value smaller than ``repetitions`` splits the
        ensemble into replica windows that the pool schedules
        independently, with results merged in replica order —
        byte-identical to the monolithic run. Under adaptive sizing it
        sets the wave size instead.
    target_ci:
        Adaptive ensemble sizing (family sweep kinds only): run
        replicas in shard-sized waves until the bootstrap CI half-width
        on the mean convergence round is at most this value, capped at
        ``repetitions``. ``None`` (default) keeps the fixed repetition
        count.
    """

    kind: str
    family: str
    n: int
    m_factor: float
    repetitions: int
    seed: int
    params: tuple[tuple[str, object], ...] = ()
    rng_policy: str = "spawned"
    shard_size: int | None = None
    target_ci: float | None = None


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock of one shard (replica window) of a cell."""

    replica_offset: int
    replica_count: int
    seconds: float


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock and ensemble-size record for one executed cell.

    ``seconds`` is the summed shard wall-clock (the cell's CPU cost; the
    pool overlaps shards, so elapsed time is lower). Adaptive cells
    report how the wave controller stopped (``"target"`` when the CI
    half-width met ``target_ci``, ``"cap"`` when the replica cap was
    reached first) and the last evaluated half-width.
    """

    kind: str
    family: str
    n: int
    rng_policy: str
    seconds: float
    repetitions_requested: int
    repetitions_effective: int
    shards: tuple[ShardTiming, ...]
    adaptive_stop: str | None = None
    ci_half_width: float | None = None

    def to_json(self) -> dict:
        """Plain-dict form for the experiment artifact's ``run_meta``."""
        return {
            "kind": self.kind,
            "family": self.family,
            "n": self.n,
            "rng_policy": self.rng_policy,
            "seconds": self.seconds,
            "repetitions_requested": self.repetitions_requested,
            "repetitions_effective": self.repetitions_effective,
            "adaptive_stop": self.adaptive_stop,
            "ci_half_width": self.ci_half_width,
            "shards": [
                {
                    "replica_offset": shard.replica_offset,
                    "replica_count": shard.replica_count,
                    "seconds": shard.seconds,
                }
                for shard in self.shards
            ],
        }


@dataclass(frozen=True)
class ExecutionReport:
    """Results plus per-cell/per-shard timings, in spec order."""

    results: tuple[object, ...]
    timings: tuple[CellTiming, ...]

    def timings_json(self) -> list[dict]:
        """The ``run_meta.cell_timings`` artifact payload."""
        return [timing.to_json() for timing in self.timings]


def _kind_for(kind: object) -> CellKind:
    """Resolve a measurement kind, rejecting unknown ones."""
    record = CELL_KINDS.get(kind) if isinstance(kind, str) else None
    if record is None:
        raise ValidationError(
            f"unknown measurement kind {kind!r}; "
            f"available: {sorted(CELL_KINDS)}"
        )
    return record


def _check_params(spec: CellSpec, kind: CellKind) -> None:
    """Refuse params the kind's builder does not take."""
    if not isinstance(spec.params, tuple) or not all(
        isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
        for pair in spec.params
    ):
        raise ValidationError(
            f"kind {spec.kind!r}: params must be a tuple of (name, value) "
            f"pairs, got {spec.params!r}"
        )
    parameters = list(inspect.signature(kind.build).parameters.values())
    # The family and size go in positionally; a spec's params may name
    # neither them nor a keyword the spec fills.
    filled = {parameters[0].name, parameters[1].name, *_SPEC_FILLED}
    accepted = {
        p.name for p in parameters if p.kind is not p.VAR_KEYWORD
    } - filled
    accepted.add("engine")  # goes to the ensemble run, never the builder
    open_ended = any(p.kind is p.VAR_KEYWORD for p in parameters)
    unknown = sorted(
        name
        for name, _ in spec.params
        if name in filled or not (open_ended or name in accepted)
    )
    if unknown:
        raise ValidationError(
            f"kind {spec.kind!r} does not take params {unknown}; "
            f"it takes {sorted(accepted)}"
        )


def _check_spec(spec: CellSpec) -> None:
    """Validate one spec's values and sharding/adaptive plan up front."""
    kind = _kind_for(spec.kind)
    check_integer(spec.n, "n", minimum=1)
    check_integer(spec.repetitions, "repetitions", minimum=1)
    check_integer(spec.seed, "seed", minimum=0)
    check_non_negative(spec.m_factor, "m_factor")
    check_rng_policy(spec.rng_policy)
    if spec.shard_size is not None:
        check_integer(spec.shard_size, "shard_size", minimum=1)
    _check_params(spec, kind)
    if spec.target_ci is not None:
        if not isinstance(spec.target_ci, numbers.Real) or not spec.target_ci > 0:
            raise ValidationError(
                f"target_ci must be positive, got {spec.target_ci!r}"
            )
        if not kind.adaptive:
            adaptive = sorted(name for name, k in CELL_KINDS.items() if k.adaptive)
            raise ValidationError(
                f"adaptive sizing (target_ci) targets the mean convergence "
                f"round of the family sweep kinds {adaptive}; "
                f"kind {spec.kind!r} has no such estimand"
            )
    splits = spec.target_ci is not None or (
        spec.shard_size is not None and spec.shard_size < spec.repetitions
    )
    if (
        splits
        and spec.rng_policy == "counter"
        and not kind.counter_shardable(dict(spec.params))
    ):
        shardable = sorted(
            name for name, k in CELL_KINDS.items() if k.counter_shardable({})
        )
        raise ValidationError(
            f"kind {spec.kind!r} cannot shard under rng_policy='counter': "
            "its draw sites consume data-dependent whole-stack counter "
            "blocks (multinomial / churn-sized), which a replica window "
            "cannot reproduce. Use rng_policy='spawned' for sharded runs "
            f"of this kind, or drop shard_size/target_ci; counter sharding "
            f"is available for {shardable} and for "
            "weighted-task workload replay kinds"
        )


def _build(spec: CellSpec) -> _Cell:
    """Build a spec's cell; ``engine`` is a run param, not a build one."""
    params = {name: value for name, value in spec.params if name != "engine"}
    return CELL_KINDS[spec.kind].build(
        spec.family, spec.n, spec.m_factor, spec.seed, **params
    )


def _run_window(
    spec: CellSpec, cell: _Cell, window: tuple[int, int] | None
) -> object:
    """Run a cell's whole ensemble (``window=None``) or one replica window."""
    offset, count = window or (0, None)
    return cell.ensemble(
        repetitions=spec.repetitions,
        engine=dict(spec.params).get("engine", "auto"),
        rng_policy=spec.rng_policy,
        replica_offset=offset,
        replica_count=count,
    )


def run_cell(spec: CellSpec) -> object:
    """Run one cell in the current process.

    Fixed-R specs run monolithically (the byte-identity reference the
    sharded pool reproduces). Adaptive specs (``target_ci``) run their
    wave loop serially — the same wave boundaries, CI seeds, and stop
    rule as the pooled path, so ``run_cell`` remains the single-process
    reference for every spec.
    """
    _check_spec(spec)
    if spec.target_ci is None:
        return _run_task(spec, None)[0]
    job = _CellJob(spec)
    _drive_job_serial(job)
    return job.result


def run_cell_shard(
    spec: CellSpec, replica_offset: int, replica_count: int
) -> object:
    """Run one replica window of a cell.

    Returns the raw ensemble result for replicas ``[replica_offset,
    replica_offset + replica_count)``: a
    :class:`~repro.analysis.convergence.ConvergenceMeasurement` for the
    static kinds, a :class:`~repro.scenarios.ScenarioResult` for the
    scenario kinds. Partials merge in offset order through the built
    cell's ``merge``.
    """
    return _run_window(spec, _build(spec), (replica_offset, replica_count))


def _shard_windows(spec: CellSpec) -> list[tuple[int, int] | None]:
    """The fixed-R shard plan: ``[None]`` means one monolithic task."""
    size = spec.shard_size
    if size is None or size >= spec.repetitions:
        return [None]
    return [
        (offset, min(size, spec.repetitions - offset))
        for offset in range(0, spec.repetitions, size)
    ]


def _wave_windows(spec: CellSpec) -> list[tuple[int, int]]:
    """The adaptive wave plan, up to the replica cap."""
    size = spec.shard_size or min(spec.repetitions, _DEFAULT_ADAPTIVE_WAVE)
    return [
        (offset, min(size, spec.repetitions - offset))
        for offset in range(0, spec.repetitions, size)
    ]


def _run_task(
    spec: CellSpec, window: tuple[int, int] | None, job: _CellJob | None = None
) -> tuple[object, float]:
    """Task body: one monolithic cell (summarized) or one shard, timed.

    A serial task runs on its ``job``'s cell; a pool task (no ``job``)
    builds its own. An error leaves with a note naming the cell and its
    replica window.
    """
    start = time.perf_counter()
    try:
        cell = _build(spec) if job is None else job.cell()
        payload = _run_window(spec, cell, window)
        if window is None:
            payload = cell.summarize(payload)
    except Exception as error:
        offset, count = window or (0, spec.repetitions)
        note = (
            f"in cell ({spec.kind}, {spec.family}, {spec.n}), "
            f"replicas [{offset}, {offset + count})"
        )
        if hasattr(error, "add_note"):
            error.add_note(note)
        else:  # Python 3.10: the same attribute, not shown in tracebacks
            error.__notes__ = [*getattr(error, "__notes__", ()), note]
        raise
    return payload, time.perf_counter() - start


class _CellJob:
    """Scheduling state for one cell: its task plan, partials, timings.

    Fixed-R jobs emit all their shard tasks up front; adaptive jobs emit
    one wave at a time, deciding after each completion whether the CI
    target is met (``complete`` returns the next wave's task, if any).
    The same object drives both the serial loop and the pooled work
    queue, so the two paths share one wave state machine.

    The job builds its cell at most once (:meth:`cell`), for the serial
    tasks and the merge, and :meth:`finalize` releases it. Pool tasks
    build their own (see the module docstring).
    """

    __slots__ = (
        "spec",
        "_cell",
        "adaptive",
        "windows",
        "partials",
        "seconds",
        "next_wave",
        "received",
        "stop_reason",
        "half_width",
        "result",
        "timing",
    )

    def __init__(self, spec: CellSpec):
        _check_spec(spec)
        self.spec = spec
        self._cell: _Cell | None = None
        self.adaptive = spec.target_ci is not None
        self.stop_reason: str | None = None
        self.half_width = float("nan")
        self.result: object = None
        self.timing: CellTiming | None = None
        self.received = 0
        if self.adaptive:
            if spec.repetitions < _MIN_ADAPTIVE_SAMPLE:
                # One text for every cell of a sweep, so it shows once.
                warnings.warn(
                    f"target_ci cannot stop a cell early: the replica cap "
                    f"of {spec.repetitions} is below the "
                    f"{_MIN_ADAPTIVE_SAMPLE} converged samples the "
                    "adaptive CI needs, so every cell runs to the cap",
                    RuntimeWarning,
                )
            self.windows: list[tuple[int, int] | None] = list(
                _wave_windows(spec)
            )
            self.partials: list[object] = []
            self.seconds: list[float] = []
            self.next_wave = 0
        else:
            self.windows = _shard_windows(spec)
            self.partials = [None] * len(self.windows)
            self.seconds = [0.0] * len(self.windows)
            self.next_wave = len(self.windows)

    def cell(self) -> _Cell:
        """The job's cell, built on first use and kept until finalize."""
        if self._cell is None:
            self._cell = _build(self.spec)
        return self._cell

    @property
    def task_parallelism(self) -> int:
        """How many of this job's tasks can run concurrently."""
        return 1 if self.adaptive else len(self.windows)

    def start_tasks(self) -> list[tuple[int, tuple[int, int] | None]]:
        """Initial ``(slot, window)`` tasks to schedule."""
        if self.adaptive:
            self.next_wave = 1
            return [(0, self.windows[0])]
        return list(enumerate(self.windows))

    def complete(
        self, slot: int, payload: object, seconds: float
    ) -> list[tuple[int, tuple[int, int] | None]]:
        """Record one finished task; return follow-up tasks (adaptive)."""
        self.received += 1
        if not self.adaptive:
            self.partials[slot] = payload
            self.seconds[slot] = seconds
            return []
        # Adaptive waves run one at a time, so completions arrive in
        # wave order.
        self.partials.append(payload)
        self.seconds.append(seconds)
        return self._next_adaptive_tasks()

    def _next_adaptive_tasks(
        self,
    ) -> list[tuple[int, tuple[int, int] | None]]:
        spec = self.spec
        rounds = np.concatenate(
            [
                np.asarray(part.repetition_rounds, dtype=np.float64)
                for part in self.partials
            ]
        )
        # The CI seed is a pure function of (spec, wave index): adaptive
        # runs stop at the same wave no matter where the waves executed.
        self.half_width = bootstrap_half_width(
            rounds,
            seed=derive_seed(
                spec.seed, spec.family, spec.n, "adaptive-ci", len(self.partials)
            ),
            min_count=_MIN_ADAPTIVE_SAMPLE,
        )
        if (
            not math.isnan(self.half_width)
            and self.half_width <= spec.target_ci
        ):
            self.stop_reason = "target"
            return []
        if self.next_wave >= len(self.windows):
            self.stop_reason = "cap"
            return []
        slot = self.next_wave
        self.next_wave += 1
        return [(slot, self.windows[slot])]

    @property
    def done(self) -> bool:
        if self.adaptive:
            return self.stop_reason is not None
        return self.received == len(self.windows)

    def finalize(self) -> None:
        """Merge partials into the cell result, freeze the timing and
        release the cell."""
        spec = self.spec
        if not self.done:
            raise ValidationError(
                f"cell ({spec.kind}, {spec.family}, {spec.n}) "
                "finished incomplete — executor scheduling bug"
            )
        windows = self.windows[: len(self.partials)]
        if windows == [None]:
            # One monolithic task: it already summarized the cell.
            self.result = self.partials[0]
            windows = [(0, spec.repetitions)]
        else:
            # Building a cell is deterministic in the spec, so a cell
            # built in the parent summarizes exactly as a monolithic run.
            cell = self.cell()
            self.result = cell.summarize(cell.merge(self.partials))
        self._cell = None
        shards = tuple(
            ShardTiming(offset, count, elapsed)
            for (offset, count), elapsed in zip(windows, self.seconds)
        )
        self.timing = CellTiming(
            kind=spec.kind,
            family=spec.family,
            n=spec.n,
            rng_policy=spec.rng_policy,
            seconds=float(sum(shard.seconds for shard in shards)),
            repetitions_requested=spec.repetitions,
            repetitions_effective=sum(shard.replica_count for shard in shards),
            shards=shards,
            adaptive_stop=self.stop_reason,
            ci_half_width=self.half_width if self.adaptive else None,
        )


def _drive_job_serial(job: _CellJob) -> None:
    """Run one job's tasks in the current process, then finalize it."""
    tasks = job.start_tasks()
    while tasks:
        slot, window = tasks.pop(0)
        payload, seconds = _run_task(job.spec, window, job)
        tasks.extend(job.complete(slot, payload, seconds))
    job.finalize()


def _execute_pooled(jobs: list[_CellJob], workers: int) -> None:
    """Schedule every job's tasks over a process pool work queue."""
    planned = sum(job.task_parallelism for job in jobs)
    with ProcessPoolExecutor(max_workers=min(workers, planned)) as pool:
        pending: dict = {}
        for index, job in enumerate(jobs):
            for slot, window in job.start_tasks():
                future = pool.submit(_run_task, job.spec, window)
                pending[future] = (index, slot)
        while pending:
            finished, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in finished:
                index, slot = pending.pop(future)
                try:
                    payload, seconds = future.result()
                except Exception:
                    # Leaving the block would first run every queued task.
                    pool.shutdown(cancel_futures=True)
                    raise
                for new_slot, new_window in jobs[index].complete(
                    slot, payload, seconds
                ):
                    follow_up = pool.submit(
                        _run_task, jobs[index].spec, new_window
                    )
                    pending[follow_up] = (index, new_slot)


def execute_cells_report(
    specs: Iterable[CellSpec], workers: int | None = None
) -> ExecutionReport:
    """Execute cells, returning results *and* per-cell timings.

    Parameters
    ----------
    workers:
        ``None`` or ``1`` runs every task serially in this process (the
        reference path — no pool, no pickling; fixed-R cells run
        monolithically). ``N >= 2`` fans the flattened (cell, shard)
        task list over a ``ProcessPoolExecutor`` with at most ``N``
        workers, falling back to the serial path when there are fewer
        than two schedulable tasks. Results are byte-identical either
        way; each cell's randomness is derived from the spec, never
        from process state or task placement.
    """
    cell_specs = list(specs)
    if workers is not None:
        check_integer(workers, "workers", minimum=1)
    jobs = [_CellJob(spec) for spec in cell_specs]
    planned = sum(job.task_parallelism for job in jobs)
    if workers is None or workers == 1 or planned <= 1:
        # One job at a time, so at most one built cell is alive.
        for job in jobs:
            _drive_job_serial(job)
    else:
        _execute_pooled(jobs, workers)
        for job in jobs:
            job.finalize()
    return ExecutionReport(
        results=tuple(job.result for job in jobs),
        timings=tuple(job.timing for job in jobs),
    )


def execute_cells(
    specs: Iterable[CellSpec], workers: int | None = None
) -> list[object]:
    """Execute cells, returning results in spec order.

    The timing-less convenience wrapper around
    :func:`execute_cells_report`; see it for the scheduling and
    byte-identity contract.
    """
    return list(execute_cells_report(specs, workers=workers).results)


def sweep_specs(
    kind: str,
    sweep: Mapping[str, Sequence[int]],
    m_factor: float,
    repetitions: int,
    seed: int,
    rng_policy: str = "spawned",
    shard_size: int | None = None,
    target_ci: float | None = None,
    **params: object,
) -> list[CellSpec]:
    """Expand a ``{family: [sizes]}`` sweep table into a spec list.

    Preserves the sweep table's iteration order (family-major), which is
    the order :func:`execute_cells` returns results in.
    """
    return [
        CellSpec(
            kind=kind,
            family=family,
            n=n,
            m_factor=m_factor,
            repetitions=repetitions,
            seed=seed,
            params=tuple(sorted(params.items())),
            rng_policy=rng_policy,
            shard_size=shard_size,
            target_ci=target_ci,
        )
        for family, sizes in sweep.items()
        for n in sizes
    ]


def group_by_family(
    specs: Sequence[CellSpec], results: Sequence[T]
) -> dict[str, list[T]]:
    """Regroup executor results by graph family, preserving spec order."""
    if len(specs) != len(results):
        raise ValidationError(
            f"got {len(results)} results for {len(specs)} specs"
        )
    grouped: dict[str, list[T]] = {}
    for spec, result in zip(specs, results):
        grouped.setdefault(spec.family, []).append(result)
    return grouped
