"""The scenario runner: dynamic workloads on both simulation engines.

:class:`ScenarioRunner` drives a protocol under a
:class:`~repro.scenarios.schedule.Schedule` of workload events through
either engine — the scalar :class:`~repro.core.simulator.Simulator` or
the batched :class:`~repro.core.batch.BatchSimulator` — through one
round loop on their hooks: the runner records row 0 before the first
round, applies the events due in ``before_round`` and records the next
row in ``after_round``, right after each protocol round. Because the
load is non-quiescent (events keep perturbing the system), nothing
*stops* the run; instead the optional ``target`` stopping rule is
evaluated every round and its per-round verdicts are recorded, from
which :mod:`repro.analysis.dynamics` extracts recovery
times and steady-state bands. A :class:`StreamingRecording` swaps the
full recorder for a bounded-memory one on the same loop.

Both engines produce one result type: every per-round observable is a
``(T + 1, R)`` array (time-major, replica axis second; scalar runs have
``R = 1``), where row ``t`` describes the state after ``t`` protocol
rounds and all events scheduled before them. Event applications are
logged with per-replica magnitudes and the post-event potential.

Engine equivalence mirrors the static measurement pipeline and depends
on the RNG stream layout (``rng_policy``): under the default
``"spawned"`` layout weighted scenario runs are pathwise bit-identical
between engines (events and kernels both consume each replica's spawned
stream in the scalar order) and uniform runs agree in law; under the
``"counter"`` layout (:class:`~repro.utils.rng.CounterStreams`) events
and kernels draw whole-stack Philox blocks per site per round — runs of
either task system then agree with the scalar reference in law and are
same-seed deterministic, but not pathwise comparable (see the README's
reproducibility matrix). :meth:`run_ensemble` routes its engine and
streams through the same plan as
:func:`repro.analysis.convergence.measure_convergence_rounds`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.streaming import ObservableSummary, RunningMoments
from repro.core.batch import BatchSimulator, _plan_ensemble
from repro.core.equilibrium import nash_slack_matrix
from repro.core.potentials import psi0_potential
from repro.core.protocols import Protocol
from repro.core.simulator import Simulator
from repro.core.stopping import StoppingRule
from repro.errors import SimulationError, ValidationError
from repro.graphs.graph import Graph
from repro.model.batch import BatchStateBase, BatchUniformState, BatchWeightedState
from repro.model.state import LoadStateBase, UniformState, WeightedState
from repro.scenarios.events import BatchEventOutcome, Event
from repro.scenarios.schedule import Schedule
from repro.spectral.eigen import algebraic_connectivity
from repro.types import FloatArray, IntArray, SeedLike
from repro.utils.rng import (
    StreamLayout,
    as_stream_layout,
    check_rng_policy,
    make_rng,
    make_streams,
)
from repro.utils.validation import check_integer

__all__ = [
    "EventRecord",
    "EventTotals",
    "ScenarioResult",
    "ScenarioRunner",
    "StreamingRecording",
    "StreamingScenarioResult",
    "merge_replica_results",
    "nash_violation_fraction",
]

#: Compact the padded weighted stack when the task axis exceeds both this
#: width and twice the widest replica (long churn runs would otherwise
#: accumulate unbounded padding). Compaction is observationally neutral.
_COMPACT_MIN_WIDTH = 64


def nash_violation_fraction(
    loads: FloatArray, speeds: FloatArray, graph: Graph, tolerance: float = 1e-9
) -> FloatArray:
    """Fraction of directed edges violating ``l_i - l_j <= 1/s_j``.

    ``loads`` is ``(R, n)`` (one row per replica); returns ``(R,)``. The
    rolling-violation metric is built on this: unlike the boolean Nash
    predicate it degrades gracefully, so it resolves *how far* from
    equilibrium a perturbed system is, not just whether it left it. The
    edge condition is the shared
    :func:`repro.core.equilibrium.nash_slack_matrix`.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 2:
        raise ValidationError(f"loads must be 2-D (replicas, nodes), got {loads.ndim}-D")
    if graph.num_edges == 0:
        return np.zeros(loads.shape[0])
    violating = nash_slack_matrix(loads, speeds, graph) < -tolerance
    return violating.mean(axis=1)


@dataclass(frozen=True)
class EventRecord:
    """One event application across the replica axis.

    All arrays have length ``R`` (scalar runs: 1); rows untouched by the
    event report zeros. ``psi0_after`` is the potential right after this
    event applied — before the round's protocol kernel ran.
    """

    round_index: int
    name: str
    description: str
    tasks_added: IntArray
    tasks_removed: IntArray
    weight_added: FloatArray
    weight_removed: FloatArray
    tasks_relocated: IntArray
    psi0_after: FloatArray


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run (either engine).

    Attributes
    ----------
    final_state:
        The state / replica stack when the horizon completed.
    engine:
        ``"scalar"`` or ``"batch"``.
    rounds_executed:
        The horizon ``T``; every per-round array has ``T + 1`` rows.
    psi0, max_load_difference, nash_violation, total_weight, num_tasks:
        ``(T + 1, R)`` observables; row ``t`` is the state after ``t``
        protocol rounds (and all events scheduled before them).
    target_satisfied:
        ``(T + 1, R)`` boolean verdicts of the runner's ``target`` rule
        (all ``False`` when no target was given).
    events:
        Chronological log of event applications with per-replica
        magnitudes. Topology events log with zero workload magnitudes —
        they relocate nothing; the graph itself changed.
    lambda2, gap_ratio, connected:
        ``(T + 1,)`` per-round topology trace: the algebraic
        connectivity of the graph in force, the paper's graph factor
        ``Delta / lambda_2`` (``inf`` through disconnected windows), and
        the connectivity verdict. One row per round — *not* per replica
        — because topology events are replica-stable: every replica
        sees the same graph.
    """

    final_state: LoadStateBase | BatchStateBase
    engine: str
    rounds_executed: int
    psi0: FloatArray
    max_load_difference: FloatArray
    nash_violation: FloatArray
    total_weight: FloatArray
    num_tasks: IntArray
    target_satisfied: np.ndarray
    events: list[EventRecord]
    lambda2: FloatArray
    gap_ratio: FloatArray
    connected: np.ndarray

    @property
    def num_replicas(self) -> int:
        """Ensemble size ``R`` (1 for scalar runs)."""
        return int(self.psi0.shape[1])

    def events_named(self, name: str) -> list[EventRecord]:
        """The applications of events named ``name``, chronologically."""
        return [record for record in self.events if record.name == name]


#: The per-replica observables of a row, named as the
#: :class:`ScenarioResult` arrays (the streaming recorder folds
#: ``target_satisfied`` as 0/1 so its mean is the satisfaction fraction).
_OBSERVABLES = (
    "psi0",
    "max_load_difference",
    "nash_violation",
    "total_weight",
    "num_tasks",
    "target_satisfied",
)


class _Recorder:
    """Preallocated (T + 1, R) observable arrays filled row by row.

    Shares :class:`_StreamingRecorder`'s interface, so one round loop
    drives both: every row is due and every event application is logged
    chronologically with its post-event potential.
    """

    def __init__(self, horizon: int, num_replicas: int):
        dtypes = {"num_tasks": np.int64, "target_satisfied": bool}
        self._arrays = {
            name: np.zeros((horizon + 1, num_replicas), dtype=dtypes.get(name, float))
            for name in _OBSERVABLES
        }
        self._arrays.update(
            # Topology trace: one row per round, shared across replicas.
            lambda2=np.zeros(horizon + 1),
            gap_ratio=np.zeros(horizon + 1),
            connected=np.zeros(horizon + 1, dtype=bool),
        )
        self._events: list[EventRecord] = []

    def due(self, row: int, horizon: int) -> bool:
        return True

    def log_event(
        self,
        round_index: int,
        event: Event,
        outcome: BatchEventOutcome,
        psi0_after: Callable[[], FloatArray],
    ) -> None:
        self._events.append(
            EventRecord(
                round_index=round_index,
                name=event.name,
                description=event.describe(),
                psi0_after=psi0_after(),
                **vars(outcome),
            )
        )

    def record(
        self,
        row: int,
        values: dict[str, FloatArray],
        lambda2: float,
        gap_ratio: float,
        connected: bool,
    ) -> None:
        for name, value in values.items():
            self._arrays[name][row] = value
        self._arrays["lambda2"][row] = lambda2
        self._arrays["gap_ratio"][row] = gap_ratio
        self._arrays["connected"][row] = connected

    def result(
        self,
        final_state: LoadStateBase | BatchStateBase,
        engine: str,
        rounds_executed: int,
        num_replicas: int,
    ) -> ScenarioResult:
        return ScenarioResult(
            final_state=final_state,
            engine=engine,
            rounds_executed=rounds_executed,
            events=self._events,
            **self._arrays,
        )


def _spectral_entry(
    graph: Graph, memo: dict[Graph, tuple[float, float, bool]]
) -> tuple[float, float, bool]:
    """Memoized ``(lambda_2, Delta/lambda_2, connected)`` for ``graph``.

    The memo is keyed by the graph's *structural* equality, so a
    recovery event restoring the base graph reuses the entry computed at
    round 0 instead of re-running the eigensolver, and long disconnected
    windows cost one solve total. Disconnected graphs report
    ``lambda_2 = 0`` / ``gap_ratio = inf`` (the non-strict spectral
    path) rather than raising.
    """
    entry = memo.get(graph)
    if entry is None:
        lambda2 = algebraic_connectivity(graph, strict=False)
        gap = graph.max_degree / lambda2 if lambda2 > 0.0 else float("inf")
        entry = (lambda2, gap, lambda2 > 0.0)
        memo[graph] = entry
    return entry


@dataclass(frozen=True)
class StreamingRecording:
    """Options for the bounded-memory streaming observable recorder.

    Parameters
    ----------
    thin_every:
        Record every ``thin_every``-th row (rows 0 and ``T`` are always
        kept). 1 records every round.
    chunk_rounds:
        Rows per resident chunk: the recorder buffers at most this many
        recorded rows per observable before folding them into the
        running reducers, so peak memory is ``O(chunk_rounds * R)``
        regardless of the horizon.
    """

    thin_every: int = 1
    chunk_rounds: int = 256

    def __post_init__(self):
        check_integer(self.thin_every, "thin_every", minimum=1)
        check_integer(self.chunk_rounds, "chunk_rounds", minimum=1)


@dataclass(frozen=True)
class EventTotals:
    """Aggregated magnitudes of one event name over a streaming run.

    Streaming runs fold every application of an event into these
    per-replica running totals instead of keeping the chronological
    :class:`EventRecord` log — a million-event trace would otherwise
    hold ``O(num_events * R)`` magnitude arrays, defeating the
    bounded-memory guarantee. All arrays have shape ``(R,)``.
    """

    applications: int
    tasks_added: IntArray
    tasks_removed: IntArray
    weight_added: FloatArray
    weight_removed: FloatArray
    tasks_relocated: IntArray


@dataclass(frozen=True)
class StreamingScenarioResult:
    """Outcome of a streaming-recorded scenario run.

    Instead of the full ``(T + 1, R)`` observable arrays of
    :class:`ScenarioResult`, the recorded rows are folded into
    per-replica :class:`~repro.analysis.streaming.ObservableSummary`
    reducers plus thinned replica-mean series — memory stays
    ``O(chunk_rounds * R + rows_recorded)`` however long the trace.

    Attributes
    ----------
    observables:
        Per-observable :class:`ObservableSummary` (count / mean /
        variance / min / max / last per replica) over the recorded rows.
        ``target_satisfied`` is folded as 0/1, so its mean is each
        replica's satisfaction fraction.
    series:
        Per-observable replica-mean series over the recorded rows
        (shape ``(rows_recorded,)``), aligned with ``recorded_rounds``.
    recorded_rounds:
        The row indices recorded: every ``thin_every``-th row plus rows
        0 and ``T``.
    lambda2, gap_ratio, connected:
        The topology trace at the recorded rows.
    event_totals:
        Per-event-name :class:`EventTotals` — the aggregate of what the
        schedule did, in ``O(names * R)`` memory where the full-mode
        event log would be ``O(num_events * R)``.
    chunks_flushed:
        Chunks folded into the reducers — grows with the horizon.
    peak_resident_chunks:
        Maximum chunks resident at once — one preallocated buffer per
        observable, *independent of the horizon* (the bounded-memory
        guarantee pinned in the tests).
    """

    final_state: LoadStateBase | BatchStateBase
    engine: str
    rounds_executed: int
    num_replicas: int
    thin_every: int
    chunk_rounds: int
    rows_recorded: int
    chunks_flushed: int
    peak_resident_chunks: int
    recorded_rounds: IntArray
    observables: dict[str, ObservableSummary]
    series: dict[str, FloatArray]
    lambda2: FloatArray
    gap_ratio: FloatArray
    connected: np.ndarray
    event_totals: dict[str, EventTotals]


class _StreamingRecorder:
    """Chunked row recorder folding into running per-replica reducers.

    One ``(chunk_rounds, R)`` buffer per observable is allocated once
    and reused: when full it folds into that observable's
    :class:`RunningMoments` and resets, so the number of resident
    chunks never exceeds ``len(_OBSERVABLES)`` no matter the
    horizon. Replica-mean series and the (shared) topology trace are
    ``O(rows_recorded)`` scalars.
    """

    def __init__(self, num_replicas: int, options: StreamingRecording):
        self._options = options
        self._buffers = {
            name: np.zeros((options.chunk_rounds, num_replicas))
            for name in _OBSERVABLES
        }
        self._moments = {
            name: RunningMoments(num_replicas)
            for name in _OBSERVABLES
        }
        self._series: dict[str, list[float]] = {
            name: [] for name in _OBSERVABLES
        }
        self._fill = 0
        self._rounds: list[int] = []
        self._lambda2: list[float] = []
        self._gap_ratio: list[float] = []
        self._connected: list[bool] = []
        self._event_totals: dict[str, list] = {}
        self._num_replicas = num_replicas
        self.chunks_flushed = 0
        self.peak_resident_chunks = len(_OBSERVABLES)

    def due(self, row: int, horizon: int) -> bool:
        """Whether row ``row`` is recorded (thinning keeps 0 and T)."""
        return row % self._options.thin_every == 0 or row == horizon

    def log_event(
        self,
        round_index: int,
        event: Event,
        outcome: BatchEventOutcome,
        psi0_after: Callable[[], FloatArray],
    ) -> None:
        """Accumulate one event application into its name's totals.

        Streaming runs fold event magnitudes into per-name totals
        instead of the chronological :class:`EventRecord` log, whose
        ``O(num_events * R)`` growth is what this recorder exists to
        avoid; so ``psi0_after`` is never evaluated.
        """
        totals = self._event_totals.get(event.name)
        if totals is None:
            # [applications, then the BatchEventOutcome arrays in order]
            zeros = BatchEventOutcome.zeros(self._num_replicas)
            totals = self._event_totals[event.name] = [0, *vars(zeros).values()]
        totals[0] += 1
        totals[1] += outcome.tasks_added
        totals[2] += outcome.tasks_removed
        totals[3] += outcome.weight_added
        totals[4] += outcome.weight_removed
        totals[5] += outcome.tasks_relocated

    def record(
        self,
        row: int,
        values: dict[str, FloatArray],
        lambda2: float,
        gap_ratio: float,
        connected: bool,
    ) -> None:
        for name in _OBSERVABLES:
            self._buffers[name][self._fill] = values[name]
            self._series[name].append(float(values[name].mean()))
        self._fill += 1
        self._rounds.append(row)
        self._lambda2.append(lambda2)
        self._gap_ratio.append(gap_ratio)
        self._connected.append(connected)
        if self._fill == self._options.chunk_rounds:
            self._flush()

    def _flush(self) -> None:
        if self._fill == 0:
            return
        for name in _OBSERVABLES:
            self._moments[name].update(self._buffers[name][: self._fill])
        self.chunks_flushed += 1
        self._fill = 0

    def result(
        self,
        final_state: LoadStateBase | BatchStateBase,
        engine: str,
        rounds_executed: int,
        num_replicas: int,
    ) -> StreamingScenarioResult:
        self._flush()
        return StreamingScenarioResult(
            final_state=final_state,
            engine=engine,
            rounds_executed=rounds_executed,
            num_replicas=num_replicas,
            thin_every=self._options.thin_every,
            chunk_rounds=self._options.chunk_rounds,
            rows_recorded=len(self._rounds),
            chunks_flushed=self.chunks_flushed,
            peak_resident_chunks=self.peak_resident_chunks,
            recorded_rounds=np.asarray(self._rounds, dtype=np.int64),
            observables={
                name: self._moments[name].summary()
                for name in _OBSERVABLES
            },
            series={
                name: np.asarray(self._series[name])
                for name in _OBSERVABLES
            },
            lambda2=np.asarray(self._lambda2),
            gap_ratio=np.asarray(self._gap_ratio),
            connected=np.asarray(self._connected, dtype=bool),
            event_totals={
                name: EventTotals(*totals)
                for name, totals in self._event_totals.items()
            },
        )


class ScenarioRunner:
    """Runs a protocol under a schedule of workload events.

    Parameters
    ----------
    graph:
        The processor network.
    protocol:
        Any :class:`~repro.core.protocols.Protocol`; the batched paths
        additionally need a batched kernel (``supports_batch``).
    schedule:
        The workload dynamics. An empty schedule reduces the runner to a
        fixed-horizon simulation with per-round observables.
    target:
        Optional stopping rule evaluated (but never acted on) every
        round; its verdicts feed the recovery metrics.
    tolerance:
        Slack for the Nash-violation edge predicate.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: Protocol,
        schedule: Schedule | None = None,
        target: StoppingRule | None = None,
        tolerance: float = 1e-9,
    ):
        self._graph = graph
        self._protocol = protocol
        self._schedule = schedule if schedule is not None else Schedule()
        self._target = target
        self._tolerance = tolerance

    @property
    def graph(self) -> Graph:
        """The processor network."""
        return self._graph

    @property
    def protocol(self) -> Protocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def schedule(self) -> Schedule:
        """The workload dynamics."""
        return self._schedule

    # ------------------------------------------------------------------
    # Scalar engine
    # ------------------------------------------------------------------
    def run(
        self,
        state: LoadStateBase,
        rounds: int,
        rng: SeedLike = None,
        recording: StreamingRecording | None = None,
    ) -> ScenarioResult | StreamingScenarioResult:
        """Run the scenario on a scalar state (mutated in place).

        ``rng`` drives *both* the events and the protocol rounds — it is
        the replica's single trajectory stream, exactly as in the
        batched path. Passing ``recording`` switches to the streaming
        recorder (the same rows, thinned and folded into bounded-memory
        reducers) and returns a :class:`StreamingScenarioResult`.
        """
        rounds = check_integer(rounds, "rounds", minimum=0)
        generator = make_rng(rng)
        target = self._target

        def observe(current: LoadStateBase, graph: Graph) -> dict[str, FloatArray]:
            return {
                "psi0": np.array([psi0_potential(current)]),
                "max_load_difference": np.array([current.max_load_difference]),
                "nash_violation": nash_violation_fraction(
                    current.loads[None, :], current.speeds, graph, self._tolerance
                ),
                "total_weight": np.array([_exact_total(current)]),
                "num_tasks": np.array([current.num_tasks]),
                "target_satisfied": np.array(
                    [target is not None and bool(target.satisfied(current, graph))]
                ),
            }

        def apply(event: Event, current: LoadStateBase, graph: Graph):
            return event._apply_one(current, graph, generator)

        return self._run_loop(
            Simulator(self._graph, self._protocol, generator),
            state,
            rounds,
            1,
            recording,
            observe,
            apply,
            lambda current: np.array([psi0_potential(current)]),
        )

    # ------------------------------------------------------------------
    # Batched engine
    # ------------------------------------------------------------------
    def run_batch(
        self,
        batch: BatchStateBase,
        rounds: int,
        rngs: Sequence[np.random.Generator] | StreamLayout | None = None,
        seed: SeedLike = None,
        rng_policy: str = "spawned",
        recording: StreamingRecording | None = None,
    ) -> ScenarioResult | StreamingScenarioResult:
        """Run the scenario on a replica stack (mutated in place).

        ``rngs`` is the per-replica randomness — a generator sequence /
        :class:`~repro.utils.rng.SpawnedStreams` (each stream drives its
        replica's events *and* protocol randomness in the scalar
        consumption order) or a :class:`~repro.utils.rng.CounterStreams`
        layout (events and kernels draw whole-stack blocks). When
        omitted, a layout is built from ``seed`` under ``rng_policy``.

        Passing ``recording`` switches to the streaming recorder: the
        same rows, thinned and folded into bounded-memory per-replica
        reducers. Returns a :class:`StreamingScenarioResult` in that
        mode.
        """
        rounds = check_integer(rounds, "rounds", minimum=0)
        num_replicas = batch.num_replicas
        if rngs is None:
            streams = make_streams(
                check_rng_policy(rng_policy), seed, num_replicas
            )
        else:
            streams = as_stream_layout(rngs)
        target = self._target
        all_rows = np.arange(num_replicas, dtype=np.int64)
        unsatisfied = np.zeros(num_replicas, dtype=bool)

        def observe(current: BatchStateBase, graph: Graph) -> dict[str, FloatArray]:
            return {
                "psi0": current.psi0_potentials(),
                "max_load_difference": current.max_load_difference,
                "nash_violation": nash_violation_fraction(
                    current.loads, current.speeds, graph, self._tolerance
                ),
                "total_weight": _exact_total_batch(current),
                "num_tasks": current.num_tasks,
                "target_satisfied": (
                    unsatisfied
                    if target is None
                    else target.satisfied_batch(current, graph, all_rows)
                ),
            }

        def apply(event: Event, current: BatchStateBase, graph: Graph):
            return event.apply_batch(current, graph, streams, None)

        return self._run_loop(
            BatchSimulator(self._graph, self._protocol, seed),
            batch,
            rounds,
            num_replicas,
            recording,
            observe,
            apply,
            lambda current: current.psi0_potentials(),
            rngs=streams,
        )

    def _run_loop(
        self,
        simulator: Simulator | BatchSimulator,
        state: LoadStateBase | BatchStateBase,
        rounds: int,
        num_replicas: int,
        recording: StreamingRecording | None,
        observe: Callable,
        apply: Callable,
        psi0: Callable,
        **run_options,
    ) -> ScenarioResult | StreamingScenarioResult:
        """The round loop both engines share.

        ``observe(state, graph)`` returns one row of observables,
        ``apply(event, state, graph)`` applies a workload event and
        returns its :class:`~repro.scenarios.events.BatchEventOutcome`,
        and ``psi0(state)`` is the post-event potential an event-log
        entry carries. Row 0 is recorded before the first round and row
        ``t + 1`` in ``after_round(t)``: nothing touches the state
        between ``after_round(t)`` and ``before_round(t + 1)``, so that
        is the state before round ``t + 1``'s events.
        """
        if state.num_nodes != self._graph.num_vertices:
            raise SimulationError(
                f"state has {state.num_nodes} nodes but graph "
                f"{self._graph.name} has {self._graph.num_vertices} vertices"
            )
        if recording is None:
            recorder = _Recorder(rounds, num_replicas)
        else:
            recorder = _StreamingRecorder(num_replicas, recording)
        graph = self._graph
        spectral_memo: dict[Graph, tuple[float, float, bool]] = {}

        def record(row: int, current) -> None:
            lambda2, gap_ratio, connected = _spectral_entry(graph, spectral_memo)
            recorder.record(row, observe(current, graph), lambda2, gap_ratio, connected)

        def before_round(round_index: int, current) -> None:
            nonlocal graph
            for event in self._schedule.events_due(round_index):
                if event.mutates_topology:
                    # Topology events consume no stream randomness and
                    # swap one graph shared by the whole stack, so they
                    # are replica-stable under both stream layouts (and
                    # invariant across spawned replica-shard windows).
                    # They move no tasks and no weight.
                    graph = event.transform_graph(graph, self._graph, round_index)
                    simulator.swap_graph(graph)
                    outcome = BatchEventOutcome.zeros(num_replicas)
                else:
                    outcome = apply(event, current, graph)
                recorder.log_event(
                    round_index, event, outcome, lambda: psi0(current)
                )
            if isinstance(current, BatchWeightedState):
                widest = int(current.num_tasks.max(initial=0))
                if (
                    current.max_tasks > _COMPACT_MIN_WIDTH
                    and current.max_tasks > 2 * widest
                ):
                    current.compact()

        def after_round(round_index: int, current) -> None:
            if recorder.due(round_index + 1, rounds):
                record(round_index + 1, current)

        record(0, state)
        simulator.run(
            state,
            stopping=None,
            max_rounds=rounds,
            before_round=before_round,
            after_round=after_round,
            **run_options,
        )
        engine = "batch" if isinstance(simulator, BatchSimulator) else "scalar"
        return recorder.result(state, engine, rounds, num_replicas)

    # ------------------------------------------------------------------
    # Ensemble convenience (mirrors measure_convergence_rounds routing)
    # ------------------------------------------------------------------
    def run_ensemble(
        self,
        state_factory: Callable[[np.random.Generator], LoadStateBase],
        repetitions: int,
        rounds: int,
        seed: SeedLike = None,
        engine: str = "auto",
        rng_policy: str = "spawned",
        replica_offset: int = 0,
        replica_count: int | None = None,
        recording: StreamingRecording | None = None,
    ) -> ScenarioResult | StreamingScenarioResult:
        """Run ``repetitions`` independent replicas of the scenario.

        ``replica_offset`` / ``replica_count`` select a *window* of the
        ``repetitions``-sized ensemble (``repetitions`` stays the
        monolithic total): each windowed replica receives exactly the
        spawned child stream it would own in the monolithic run, so
        concatenating window results in offset order
        (:func:`merge_replica_results`) reproduces the monolithic
        ensemble byte-for-byte. Windows under ``rng_policy="counter"``
        additionally require a *deterministic* schedule
        (:attr:`~repro.scenarios.schedule.Schedule.is_deterministic` —
        compiled workload traces qualify) and a counter-shardable
        protocol kernel: stochastic events draw whole-stack counter
        blocks whose word consumption depends on replicas outside the
        window, and the uniform kernel's multinomial site does too, so
        only deterministic-event weighted scenarios shard under the
        counter layout. Each counter window then runs a
        :class:`~repro.utils.rng.CounterStreams` window of the
        monolithic layout, making shard merges byte-identical to the
        monolithic counter run.

        ``recording`` switches the run to the bounded-memory streaming
        recorder (batch engine only, monolithic only — a
        :class:`StreamingScenarioResult` has no byte-exact shard merge).

        Under ``rng_policy="spawned"`` repetition ``k`` derives
        everything — initial state, event randomness, migration
        randomness — from spawned child stream ``k``, so the two engines
        see identical per-replica streams. ``rng_policy="counter"``
        keeps the spawned children for the *initial states* (both
        policies run the same ensemble) but draws all round randomness
        as vectorized counter blocks; it requires the batch engine and,
        like an explicit ``engine="batch"``, skips the clipped-law
        guard (uniform ablation-``alpha`` runs sample the batch
        kernel's rescaled clipping law).
        ``engine="auto"`` batches when the protocol and states qualify
        under the same rules as the static measurement pipeline
        (weighted runs always batch when stackable; uniform runs batch
        unless probability clipping would change the law).
        """
        generators, states, stack = _plan_ensemble(
            self._protocol,
            state_factory,
            repetitions,
            seed,
            engine,
            rng_policy,
            replica_offset,
            replica_count,
        )
        windowed = len(generators) != repetitions
        if windowed and rng_policy == "counter":
            if not self._schedule.is_deterministic:
                raise ValidationError(
                    "scenario ensembles with stochastic events cannot "
                    "shard under rng_policy='counter': event draw sites "
                    "consume whole-stack counter blocks (churn-sized, "
                    "data-dependent), so a replica window cannot "
                    "reproduce its monolithic streams; compile the "
                    "workload to deterministic trace events or use "
                    "rng_policy='spawned' for sharded scenario cells"
                )
            if not self._protocol.counter_shardable:
                raise ValidationError(
                    f"protocol {self._protocol.name!r} cannot shard under "
                    "rng_policy='counter': its batched kernel draws "
                    "whole-stack counter blocks (per-replica word "
                    "consumption depends on the full ensemble); use a "
                    "counter-shardable kernel or rng_policy='spawned'"
                )
        if recording is not None and windowed:
            raise ValidationError(
                "streaming recording cannot run on a replica window: "
                "streamed reducer summaries have no byte-exact shard "
                "merge; run the streaming ensemble monolithically"
            )
        if recording is not None and stack is None:
            raise ValidationError(
                "streaming recording requires the batch engine; this "
                "protocol/state combination falls back to scalar replica "
                "runs (use ScenarioRunner.run(recording=...) per replica "
                "instead)"
            )
        if stack is not None:
            batch, streams = stack
            return self.run_batch(batch, rounds, rngs=streams, recording=recording)
        return merge_replica_results(
            [
                self.run(state, rounds, rng=generator)
                for state, generator in zip(states, generators)
            ]
        )


#: The per-replica arrays of an :class:`EventRecord`.
_EVENT_ARRAYS = (
    "tasks_added",
    "tasks_removed",
    "weight_added",
    "weight_removed",
    "tasks_relocated",
    "psi0_after",
)


def _exact_total(state: LoadStateBase) -> float:
    """A state's exactly conserved total (modulo events)."""
    if isinstance(state, WeightedState):
        return float(state.task_weights.sum())
    if isinstance(state, UniformState):
        return float(state.num_tasks)
    return float(state.total_weight)


def _exact_total_batch(batch: BatchStateBase) -> FloatArray:
    """Per-replica exactly conserved totals (modulo events)."""
    if isinstance(batch, BatchWeightedState):
        return batch.total_task_weight
    if isinstance(batch, BatchUniformState):
        return batch.num_tasks.astype(np.float64)
    return batch.total_weight


def merge_replica_results(results: list[ScenarioResult]) -> ScenarioResult:
    """Concatenate results along the replica axis, in list order.

    Used both to fan scalar per-replica runs back into one ensemble
    result and to merge shard (replica-window) results back into the
    monolithic ensemble: because windowed runs draw exactly their
    replicas' monolithic streams, concatenating the windows in offset
    order reproduces the monolithic ``ScenarioResult`` byte-for-byte.
    Event logs must be deterministic in time (same rounds, same names
    across all inputs); the merged result keeps the first input's engine
    tag and final state.
    """
    if not results:
        raise ValidationError("merge_replica_results needs >= 1 result")
    first = results[0]
    if len(results) == 1:
        return first
    merged_events: list[EventRecord] = []
    for position, record in enumerate(first.events):
        siblings = [result.events[position] for result in results]
        if any(
            sibling.round_index != record.round_index
            or sibling.name != record.name
            for sibling in siblings
        ):
            raise SimulationError(
                "scalar replicas produced diverging event logs; schedules "
                "must be deterministic in time"
            )
        merged_events.append(
            dataclasses.replace(
                record,
                **{
                    name: np.concatenate([getattr(s, name) for s in siblings])
                    for name in _EVENT_ARRAYS
                },
            )
        )
    # The topology trace is replica-independent (every replica sees the
    # same graph swaps), so the first input's trace is the ensemble's.
    return dataclasses.replace(
        first,
        events=merged_events,
        **{
            name: np.concatenate([getattr(r, name) for r in results], axis=1)
            for name in _OBSERVABLES
        },
    )
