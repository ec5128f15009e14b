"""The scenario runner: dynamic workloads on both simulation engines.

:class:`ScenarioRunner` drives a protocol under a
:class:`~repro.scenarios.schedule.Schedule` of workload events through
either engine — the scalar :class:`~repro.core.simulator.Simulator` or
the batched :class:`~repro.core.batch.BatchSimulator` — via their
``before_round`` hooks: before each protocol round the runner records
the observables of the current state, then applies the events due that
round. Because the load is non-quiescent (events keep perturbing the
system), nothing *stops* the run; instead the optional ``target``
stopping rule is evaluated every round and its per-round verdicts are
recorded, from which :mod:`repro.analysis.dynamics` extracts recovery
times and steady-state bands.

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
reproducibility matrix). ``engine="auto"`` in :meth:`run_ensemble`
applies the same routing rules as
:func:`repro.analysis.convergence.measure_convergence_rounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.streaming import ObservableSummary, RunningMoments
from repro.core.batch import BatchSimulator
from repro.core.equilibrium import nash_slack_matrix
from repro.core.potentials import psi0_potential
from repro.core.protocols import Protocol
from repro.core.simulator import Simulator
from repro.core.stopping import StoppingRule
from repro.errors import SimulationError, ValidationError
from repro.graphs.graph import Graph
from repro.model.batch import BatchStateBase, BatchUniformState, BatchWeightedState
from repro.model.state import LoadStateBase, UniformState, WeightedState
from repro.scenarios.schedule import Schedule
from repro.spectral.eigen import algebraic_connectivity
from repro.types import FloatArray, IntArray, SeedLike
from repro.utils.rng import (
    CounterStreams,
    StreamLayout,
    as_stream_layout,
    check_rng_policy,
    make_rng,
    make_streams,
    spawn_rngs,
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
        sees the same graph. ``None`` on results from older pipelines.
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
    lambda2: FloatArray | None = None
    gap_ratio: FloatArray | None = None
    connected: np.ndarray | None = None

    @property
    def num_replicas(self) -> int:
        """Ensemble size ``R`` (1 for scalar runs)."""
        return int(self.psi0.shape[1])

    def events_named(self, name: str) -> list[EventRecord]:
        """The applications of events named ``name``, chronologically."""
        return [record for record in self.events if record.name == name]


class _Recorder:
    """Preallocated (T + 1, R) observable arrays filled row by row."""

    def __init__(self, horizon: int, num_replicas: int):
        shape = (horizon + 1, num_replicas)
        self.psi0 = np.zeros(shape)
        self.max_load_difference = np.zeros(shape)
        self.nash_violation = np.zeros(shape)
        self.total_weight = np.zeros(shape)
        self.num_tasks = np.zeros(shape, dtype=np.int64)
        self.target_satisfied = np.zeros(shape, dtype=bool)
        # Topology trace: one row per round, shared across replicas.
        self.lambda2 = np.zeros(horizon + 1)
        self.gap_ratio = np.zeros(horizon + 1)
        self.connected = np.zeros(horizon + 1, dtype=bool)


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


#: Observables the streaming recorder reduces, matching the
#: :class:`ScenarioResult` array names (``target_satisfied`` is folded
#: as 0/1 so its mean is the satisfaction fraction).
_STREAMING_OBSERVABLES = (
    "psi0",
    "max_load_difference",
    "nash_violation",
    "total_weight",
    "num_tasks",
    "target_satisfied",
)


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
    chunks never exceeds ``len(_STREAMING_OBSERVABLES)`` no matter the
    horizon. Replica-mean series and the (shared) topology trace are
    ``O(rows_recorded)`` scalars.
    """

    def __init__(self, num_replicas: int, options: StreamingRecording):
        self._options = options
        self._buffers = {
            name: np.zeros((options.chunk_rounds, num_replicas))
            for name in _STREAMING_OBSERVABLES
        }
        self._moments = {
            name: RunningMoments(num_replicas)
            for name in _STREAMING_OBSERVABLES
        }
        self._series: dict[str, list[float]] = {
            name: [] for name in _STREAMING_OBSERVABLES
        }
        self._fill = 0
        self._rounds: list[int] = []
        self._lambda2: list[float] = []
        self._gap_ratio: list[float] = []
        self._connected: list[bool] = []
        self._event_totals: dict[str, list] = {}
        self._num_replicas = num_replicas
        self.chunks_flushed = 0
        self.peak_resident_chunks = len(_STREAMING_OBSERVABLES)

    def due(self, row: int, horizon: int) -> bool:
        """Whether row ``row`` is recorded (thinning keeps 0 and T)."""
        return row % self._options.thin_every == 0 or row == horizon

    def fold_event(self, name: str, outcome) -> None:
        """Accumulate one event application into its name's totals.

        ``outcome`` is a :class:`~repro.scenarios.events.BatchEventOutcome`
        (arrays over the replica axis), an
        :class:`~repro.scenarios.events.EventOutcome` (scalar run — its
        scalars broadcast to the single replica), or ``None`` (topology
        events: the application counts, the magnitudes are zero).
        """
        totals = self._event_totals.get(name)
        if totals is None:
            totals = [
                0,
                np.zeros(self._num_replicas, dtype=np.int64),
                np.zeros(self._num_replicas, dtype=np.int64),
                np.zeros(self._num_replicas, dtype=np.float64),
                np.zeros(self._num_replicas, dtype=np.float64),
                np.zeros(self._num_replicas, dtype=np.int64),
            ]
            self._event_totals[name] = totals
        totals[0] += 1
        if outcome is None:
            return
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
        for name in _STREAMING_OBSERVABLES:
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
        for name in _STREAMING_OBSERVABLES:
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
                for name in _STREAMING_OBSERVABLES
            },
            series={
                name: np.asarray(self._series[name])
                for name in _STREAMING_OBSERVABLES
            },
            lambda2=np.asarray(self._lambda2),
            gap_ratio=np.asarray(self._gap_ratio),
            connected=np.asarray(self._connected, dtype=bool),
            event_totals={
                name: EventTotals(
                    applications=totals[0],
                    tasks_added=totals[1],
                    tasks_removed=totals[2],
                    weight_added=totals[3],
                    weight_removed=totals[4],
                    tasks_relocated=totals[5],
                )
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
        recorder (identical row semantics — rows are observed between
        rounds, where full-mode records them — thinned and folded into
        bounded-memory reducers) and returns a
        :class:`StreamingScenarioResult`.
        """
        rounds = check_integer(rounds, "rounds", minimum=0)
        generator = make_rng(rng)
        recorder = _Recorder(rounds, 1) if recording is None else None
        events: list[EventRecord] = []
        # The graph currently in force (topology events swap it); a
        # one-slot holder so the closures below track the swaps.
        current_graph: list[Graph] = [self._graph]
        spectral_memo: dict[Graph, tuple[float, float, bool]] = {}
        simulator = Simulator(self._graph, self._protocol, generator)

        def record(round_index: int, current: LoadStateBase) -> None:
            graph = current_graph[0]
            recorder.psi0[round_index, 0] = psi0_potential(current)
            recorder.max_load_difference[round_index, 0] = (
                current.max_load_difference
            )
            recorder.nash_violation[round_index, 0] = nash_violation_fraction(
                current.loads[None, :], current.speeds, graph, self._tolerance
            )[0]
            recorder.total_weight[round_index, 0] = _exact_total(current)
            recorder.num_tasks[round_index, 0] = current.num_tasks
            lambda2, gap_ratio, connected = _spectral_entry(graph, spectral_memo)
            recorder.lambda2[round_index] = lambda2
            recorder.gap_ratio[round_index] = gap_ratio
            recorder.connected[round_index] = connected
            if self._target is not None:
                recorder.target_satisfied[round_index, 0] = self._target.satisfied(
                    current, graph
                )

        # Streaming runs fold event magnitudes into per-name totals
        # instead of the chronological EventRecord log: a long trace's
        # log would grow O(num_events), breaking the flat-memory
        # guarantee the streaming recorder exists for.
        stream = None if recording is None else _StreamingRecorder(1, recording)

        def apply_events(round_index: int, current: LoadStateBase) -> None:
            for event in self._schedule.events_due(round_index):
                if event.mutates_topology:
                    new_graph = event.transform_graph(
                        current_graph[0], self._graph, round_index
                    )
                    current_graph[0] = new_graph
                    simulator.swap_graph(new_graph)
                    if stream is not None:
                        stream.fold_event(event.name, None)
                    else:
                        events.append(
                            _topology_event_record(
                                round_index,
                                event,
                                np.array([psi0_potential(current)]),
                            )
                        )
                    continue
                outcome = event.apply(current, current_graph[0], generator)
                if stream is not None:
                    stream.fold_event(event.name, outcome)
                    continue
                events.append(
                    EventRecord(
                        round_index=round_index,
                        name=event.name,
                        description=event.describe(),
                        tasks_added=np.array([outcome.tasks_added], dtype=np.int64),
                        tasks_removed=np.array(
                            [outcome.tasks_removed], dtype=np.int64
                        ),
                        weight_added=np.array([outcome.weight_added]),
                        weight_removed=np.array([outcome.weight_removed]),
                        tasks_relocated=np.array(
                            [outcome.tasks_relocated], dtype=np.int64
                        ),
                        psi0_after=np.array([psi0_potential(current)]),
                    )
                )

        if recording is None:

            def before_round(round_index: int, current: LoadStateBase) -> None:
                record(round_index, current)
                apply_events(round_index, current)

            simulator.run(
                state, stopping=None, max_rounds=rounds, before_round=before_round
            )
            record(rounds, state)
            return ScenarioResult(
                final_state=state,
                engine="scalar",
                rounds_executed=rounds,
                psi0=recorder.psi0,
                max_load_difference=recorder.max_load_difference,
                nash_violation=recorder.nash_violation,
                total_weight=recorder.total_weight,
                num_tasks=recorder.num_tasks,
                target_satisfied=recorder.target_satisfied,
                events=events,
                lambda2=recorder.lambda2,
                gap_ratio=recorder.gap_ratio,
                connected=recorder.connected,
            )

        def record_stream(row: int, current: LoadStateBase) -> None:
            graph = current_graph[0]
            values = {
                "psi0": np.array([psi0_potential(current)]),
                "max_load_difference": np.array(
                    [current.max_load_difference]
                ),
                "nash_violation": nash_violation_fraction(
                    current.loads[None, :],
                    current.speeds,
                    graph,
                    self._tolerance,
                ),
                "total_weight": np.array([_exact_total(current)]),
                "num_tasks": np.array([float(current.num_tasks)]),
                "target_satisfied": np.array(
                    [
                        float(self._target.satisfied(current, graph))
                        if self._target is not None
                        else 0.0
                    ]
                ),
            }
            lambda2, gap_ratio, connected = _spectral_entry(graph, spectral_memo)
            stream.record(row, values, lambda2, gap_ratio, connected)

        def after_round(round_index: int, current: LoadStateBase) -> None:
            row = round_index + 1
            if stream.due(row, rounds):
                record_stream(row, current)

        record_stream(0, state)
        simulator.run(
            state,
            stopping=None,
            max_rounds=rounds,
            before_round=apply_events,
            after_round=after_round,
        )
        return stream.result(state, "scalar", rounds, 1)

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

        Passing ``recording`` switches to the streaming recorder: rows
        are observed via the batch simulator's ``after_round`` hook (the
        stack is untouched between a round's kernel and the next round's
        events, so a streamed row equals the full-mode row exactly),
        thinned, and folded into bounded-memory per-replica reducers.
        Returns a :class:`StreamingScenarioResult` in that mode.
        """
        rounds = check_integer(rounds, "rounds", minimum=0)
        num_replicas = batch.num_replicas
        if rngs is None:
            streams = make_streams(
                check_rng_policy(rng_policy), seed, num_replicas
            )
        else:
            streams = as_stream_layout(rngs)
        if len(streams) != num_replicas:
            raise SimulationError(
                f"need one generator per replica ({num_replicas}), got {len(streams)}"
            )
        recorder = _Recorder(rounds, num_replicas) if recording is None else None
        events: list[EventRecord] = []
        all_rows = np.arange(num_replicas, dtype=np.int64)
        current_graph: list[Graph] = [self._graph]
        spectral_memo: dict[Graph, tuple[float, float, bool]] = {}
        simulator = BatchSimulator(self._graph, self._protocol, seed)

        def record(round_index: int, current: BatchStateBase) -> None:
            graph = current_graph[0]
            recorder.psi0[round_index] = current.psi0_potentials()
            recorder.max_load_difference[round_index] = (
                current.max_load_difference
            )
            recorder.nash_violation[round_index] = nash_violation_fraction(
                current.loads, current.speeds, graph, self._tolerance
            )
            recorder.total_weight[round_index] = _exact_total_batch(current)
            recorder.num_tasks[round_index] = current.num_tasks
            lambda2, gap_ratio, connected = _spectral_entry(graph, spectral_memo)
            recorder.lambda2[round_index] = lambda2
            recorder.gap_ratio[round_index] = gap_ratio
            recorder.connected[round_index] = connected
            if self._target is not None:
                recorder.target_satisfied[round_index] = (
                    self._target.satisfied_batch(current, graph, all_rows)
                )

        # Streaming runs fold event magnitudes into per-name totals —
        # the chronological EventRecord log holds O(num_events * R)
        # magnitude arrays, which is exactly the growth the streaming
        # recorder exists to avoid.
        stream = (
            None
            if recording is None
            else _StreamingRecorder(num_replicas, recording)
        )

        def apply_events(round_index: int, current: BatchStateBase) -> None:
            for event in self._schedule.events_due(round_index):
                if event.mutates_topology:
                    # Topology events consume no stream randomness and
                    # swap one graph shared by the whole stack, so they
                    # are replica-stable under both stream layouts (and
                    # invariant across spawned replica-shard windows).
                    new_graph = event.transform_graph(
                        current_graph[0], self._graph, round_index
                    )
                    current_graph[0] = new_graph
                    simulator.swap_graph(new_graph)
                    if stream is not None:
                        stream.fold_event(event.name, None)
                    else:
                        events.append(
                            _topology_event_record(
                                round_index, event, current.psi0_potentials()
                            )
                        )
                    continue
                outcome = event.apply_batch(
                    current, current_graph[0], streams, None
                )
                if stream is not None:
                    stream.fold_event(event.name, outcome)
                    continue
                events.append(
                    EventRecord(
                        round_index=round_index,
                        name=event.name,
                        description=event.describe(),
                        tasks_added=outcome.tasks_added,
                        tasks_removed=outcome.tasks_removed,
                        weight_added=outcome.weight_added,
                        weight_removed=outcome.weight_removed,
                        tasks_relocated=outcome.tasks_relocated,
                        psi0_after=current.psi0_potentials(),
                    )
                )
            if isinstance(current, BatchWeightedState):
                widest = int(current.num_tasks.max(initial=0))
                if (
                    current.max_tasks > _COMPACT_MIN_WIDTH
                    and current.max_tasks > 2 * widest
                ):
                    current.compact()

        if recording is None:

            def before_round(round_index: int, current: BatchStateBase) -> None:
                record(round_index, current)
                apply_events(round_index, current)

            simulator.run(
                batch,
                stopping=None,
                max_rounds=rounds,
                rngs=streams,
                before_round=before_round,
            )
            record(rounds, batch)
            return ScenarioResult(
                final_state=batch,
                engine="batch",
                rounds_executed=rounds,
                psi0=recorder.psi0,
                max_load_difference=recorder.max_load_difference,
                nash_violation=recorder.nash_violation,
                total_weight=recorder.total_weight,
                num_tasks=recorder.num_tasks,
                target_satisfied=recorder.target_satisfied,
                events=events,
                lambda2=recorder.lambda2,
                gap_ratio=recorder.gap_ratio,
                connected=recorder.connected,
            )

        def record_stream(row: int, current: BatchStateBase) -> None:
            graph = current_graph[0]
            if self._target is not None:
                satisfied = self._target.satisfied_batch(
                    current, graph, all_rows
                ).astype(np.float64)
            else:
                satisfied = np.zeros(num_replicas)
            values = {
                "psi0": current.psi0_potentials(),
                "max_load_difference": current.max_load_difference,
                "nash_violation": nash_violation_fraction(
                    current.loads, current.speeds, graph, self._tolerance
                ),
                "total_weight": np.asarray(
                    _exact_total_batch(current), dtype=np.float64
                ),
                "num_tasks": current.num_tasks.astype(np.float64),
                "target_satisfied": satisfied,
            }
            lambda2, gap_ratio, connected = _spectral_entry(graph, spectral_memo)
            stream.record(row, values, lambda2, gap_ratio, connected)

        def after_round(round_index: int, current: BatchStateBase) -> None:
            row = round_index + 1
            if stream.due(row, rounds):
                record_stream(row, current)

        record_stream(0, batch)
        simulator.run(
            batch,
            stopping=None,
            max_rounds=rounds,
            rngs=streams,
            before_round=apply_events,
            after_round=after_round,
        )
        return stream.result(batch, "batch", rounds, num_replicas)

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
        from repro.analysis.convergence import (
            _batch_stackable,
            _batch_state_class,
            _same_law_as_scalar,
        )

        if repetitions < 1:
            raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
        if engine not in ("auto", "batch", "scalar"):
            raise ValidationError(
                f"engine must be one of ('auto', 'batch', 'scalar'), got {engine!r}"
            )
        check_rng_policy(rng_policy)
        if rng_policy == "counter" and engine == "scalar":
            raise ValidationError(
                "rng_policy='counter' is a batch-engine stream layout; the "
                "scalar engine always consumes spawned streams"
            )
        if replica_offset < 0:
            raise ValidationError(
                f"replica_offset must be non-negative, got {replica_offset}"
            )
        count = (
            repetitions - replica_offset
            if replica_count is None
            else replica_count
        )
        if count < 1:
            raise ValidationError(f"replica_count must be >= 1, got {count}")
        if replica_offset + count > repetitions:
            raise ValidationError(
                f"replica window [{replica_offset}, {replica_offset + count})"
                f" exceeds repetitions={repetitions}"
            )
        windowed = replica_offset != 0 or count != repetitions
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
            if not getattr(self._protocol, "counter_shardable", False):
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
        generators = spawn_rngs(seed, count, offset=replica_offset)
        states = [state_factory(generator) for generator in generators]
        stackable = _batch_stackable(self._protocol, states)
        if (engine == "batch" or rng_policy == "counter") and not stackable:
            raise ValidationError(
                "engine='batch' (and rng_policy='counter') requires a "
                "batch-capable protocol and stackable states; use "
                "engine='auto' with rng_policy='spawned' to fall back"
            )
        use_batch = (
            engine == "batch"
            or rng_policy == "counter"
            or (
                engine == "auto"
                and stackable
                and (
                    getattr(self._protocol, "batch_matches_clipped_law", False)
                    or _same_law_as_scalar(self._protocol, states)
                )
            )
        )
        if recording is not None and not use_batch:
            raise ValidationError(
                "streaming recording requires the batch engine; this "
                "protocol/state combination falls back to scalar replica "
                "runs (use ScenarioRunner.run(recording=...) per replica "
                "instead)"
            )
        if use_batch:
            batch = _batch_state_class(self._protocol).from_states(states)
            if rng_policy == "counter":
                if windowed:
                    # A window of the monolithic counter layout: site
                    # draws are keyed on global replica indices, so the
                    # window reproduces exactly the monolithic streams
                    # for its replicas (deterministic events consume
                    # none, and the kernel is counter-shardable).
                    window = CounterStreams(
                        seed,
                        count,
                        replica_offset=replica_offset,
                        total_replicas=repetitions,
                    )
                    return self.run_batch(batch, rounds, rngs=window)
                return self.run_batch(
                    batch,
                    rounds,
                    seed=seed,
                    rng_policy="counter",
                    recording=recording,
                )
            return self.run_batch(
                batch, rounds, rngs=generators, recording=recording
            )
        replica_results = [
            self.run(state, rounds, rng=generator)
            for state, generator in zip(states, generators)
        ]
        return merge_replica_results(replica_results)


def _topology_event_record(
    round_index: int, event, psi0_after: FloatArray
) -> EventRecord:
    """Event-log entry for a graph swap: zero workload magnitudes.

    Topology events move no tasks and no weight (the network changed
    under an unchanged task placement), so conservation assertions see
    zero deltas across the swap.
    """
    num_replicas = psi0_after.shape[0]
    zeros_int = np.zeros(num_replicas, dtype=np.int64)
    return EventRecord(
        round_index=round_index,
        name=event.name,
        description=event.describe(),
        tasks_added=zeros_int,
        tasks_removed=zeros_int,
        weight_added=np.zeros(num_replicas),
        weight_removed=np.zeros(num_replicas),
        tasks_relocated=zeros_int,
        psi0_after=np.asarray(psi0_after, dtype=np.float64).copy(),
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
            EventRecord(
                round_index=record.round_index,
                name=record.name,
                description=record.description,
                tasks_added=np.concatenate([s.tasks_added for s in siblings]),
                tasks_removed=np.concatenate([s.tasks_removed for s in siblings]),
                weight_added=np.concatenate([s.weight_added for s in siblings]),
                weight_removed=np.concatenate(
                    [s.weight_removed for s in siblings]
                ),
                tasks_relocated=np.concatenate(
                    [s.tasks_relocated for s in siblings]
                ),
                psi0_after=np.concatenate([s.psi0_after for s in siblings]),
            )
        )
    return ScenarioResult(
        final_state=first.final_state,
        engine=first.engine,
        rounds_executed=first.rounds_executed,
        psi0=np.concatenate([r.psi0 for r in results], axis=1),
        max_load_difference=np.concatenate(
            [r.max_load_difference for r in results], axis=1
        ),
        nash_violation=np.concatenate(
            [r.nash_violation for r in results], axis=1
        ),
        total_weight=np.concatenate([r.total_weight for r in results], axis=1),
        num_tasks=np.concatenate([r.num_tasks for r in results], axis=1),
        target_satisfied=np.concatenate(
            [r.target_satisfied for r in results], axis=1
        ),
        events=merged_events,
        # The topology trace is replica-independent (every replica sees
        # the same graph swaps), so the first input's trace is the
        # ensemble's trace.
        lambda2=first.lambda2,
        gap_ratio=first.gap_ratio,
        connected=first.connected,
    )
