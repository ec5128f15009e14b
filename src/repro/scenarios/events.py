"""Declarative workload events for dynamic scenarios.

The paper's convergence theorems hold for a *static* task set; real
deployments churn. An :class:`Event` is a declarative description of one
workload perturbation — task arrivals and departures (including a
stationary Poisson churn process), adversarial load shocks, speed
changes, node drains and outages — that knows how to apply itself to

* a scalar state (:class:`~repro.model.state.UniformState` or
  :class:`~repro.model.state.WeightedState`) via :meth:`Event.apply`, and
* a replica stack (:class:`~repro.model.batch.BatchUniformState` or
  :class:`~repro.model.batch.BatchWeightedState`) via
  :meth:`Event.apply_batch`, vectorized over the stack.

Randomness contract
-------------------
Events are stateless and picklable; all randomness comes from the
generator(s) — or the :class:`~repro.utils.rng.StreamLayout` — passed at
application time, and the behaviour is layout-policy dependent:

* **spawned** (a generator sequence or
  :class:`~repro.utils.rng.SpawnedStreams`): the batched application
  draws replica ``r``'s randomness from ``rngs[r]`` with *exactly the
  calls* the scalar application makes against a single state — so for
  weighted states, where the protocol kernels are already pathwise
  identical across engines, scenario runs stay bit-identical per
  replica, and for uniform states batch and scalar scenario runs sample
  the same law (the uniform protocol kernels themselves are only
  law-equivalent).
* **counter** (:class:`~repro.utils.rng.CounterStreams`): each event
  application draws whole-stack blocks from per-site keyed Philox
  streams — one vectorized call per draw step instead of a per-replica
  Python loop (the heavy-churn speedup pinned in
  ``benchmarks/test_scenarios.py``). Per-replica marginals keep the
  scalar law exactly (placements, uniform-subset departures via the
  multivariate-hypergeometric chain rule / random-key selection,
  binomial shocks); runs are same-seed deterministic but not pathwise
  comparable to spawned runs.

Application is vectorized across replicas wherever the mutation allows:
draws fill one deltas/slots buffer and the stack is mutated with a
single :meth:`~repro.model.batch.BatchUniformState.adjust_counts`
/ :meth:`~repro.model.batch.BatchWeightedState.add_tasks` /
``remove_tasks`` / ``apply_moves`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError, ValidationError
from repro.graphs.graph import Graph
from repro.model.batch import BatchStateBase, BatchUniformState, BatchWeightedState
from repro.model.state import LoadStateBase, UniformState, WeightedState
from repro.types import FloatArray, IntArray
from repro.utils.rng import StreamLayout, as_stream_layout

__all__ = [
    "EventOutcome",
    "BatchEventOutcome",
    "Event",
    "TaskArrival",
    "TaskDeparture",
    "TraceArrival",
    "TraceDeparture",
    "TraceRelocation",
    "AdversarialArrival",
    "PoissonChurnEvent",
    "LoadShock",
    "SpeedChange",
    "NodeDrain",
    "NodeOutage",
    "EdgeFailure",
    "EdgeRecovery",
    "NetworkPartition",
]


@dataclass(frozen=True)
class EventOutcome:
    """What one event application did to one state.

    The net workload delta (``tasks_added - tasks_removed``,
    ``weight_added - weight_removed``) is what the scenario equivalence
    harness checks conservation *modulo*; relocations conserve both.
    """

    tasks_added: int = 0
    tasks_removed: int = 0
    weight_added: float = 0.0
    weight_removed: float = 0.0
    tasks_relocated: int = 0


@dataclass(frozen=True)
class BatchEventOutcome:
    """Per-replica outcomes of one batched event application.

    All arrays are aligned with the full replica axis (length ``R``);
    rows the application did not touch report zeros.
    """

    tasks_added: IntArray
    tasks_removed: IntArray
    weight_added: FloatArray
    weight_removed: FloatArray
    tasks_relocated: IntArray

    @classmethod
    def zeros(cls, num_replicas: int) -> "BatchEventOutcome":
        return cls(
            tasks_added=np.zeros(num_replicas, dtype=np.int64),
            tasks_removed=np.zeros(num_replicas, dtype=np.int64),
            weight_added=np.zeros(num_replicas, dtype=np.float64),
            weight_removed=np.zeros(num_replicas, dtype=np.float64),
            tasks_relocated=np.zeros(num_replicas, dtype=np.int64),
        )


def _check_node(node: int, state: LoadStateBase | BatchStateBase) -> None:
    if not 0 <= node < state.num_nodes:
        raise ModelError(f"node {node} out of range [0, {state.num_nodes - 1}]")


def _rows(batch: BatchStateBase, replicas: object | None) -> IntArray:
    if replicas is None:
        return np.arange(batch.num_replicas, dtype=np.int64)
    rows = np.asarray(replicas, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= batch.num_replicas):
        raise ModelError("replica index out of range")
    return rows


def _check_rngs(batch: BatchStateBase, rngs) -> None:
    if len(rngs) != batch.num_replicas:
        raise ModelError(
            f"need one generator per replica ({batch.num_replicas}), "
            f"got {len(rngs)}"
        )


def _require_all_replicas(
    batch: BatchStateBase, replicas: object | None, event_name: str
) -> None:
    """Reject subset application for events touching shared stack state."""
    rows = _rows(batch, replicas)
    if rows.shape[0] != batch.num_replicas or np.unique(rows).shape[0] != (
        batch.num_replicas
    ):
        raise ModelError(
            f"{event_name} mutates the stack's shared speed vector and "
            "cannot apply to a subset of replicas; pass replicas=None"
        )


def _scatter_targets(
    rows_size: int, num_nodes: int, targets: IntArray, live: np.ndarray | None
) -> IntArray:
    """Per-row node counts from a ``(rows, K)`` target block.

    ``live`` masks the ragged per-row prefix actually drawn (``None`` for
    rectangular blocks). One ``bincount`` replaces per-replica
    ``np.add.at`` scatters.
    """
    flat = (
        np.arange(rows_size, dtype=np.int64)[:, None] * num_nodes + targets
    )
    if live is not None:
        flat = flat[live]
    return (
        np.bincount(flat.ravel(), minlength=rows_size * num_nodes)
        .reshape(rows_size, num_nodes)
        .astype(np.int64)
    )


def _hypergeometric_removal(
    gen: np.random.Generator, counts: IntArray, k: IntArray
) -> IntArray:
    """Vectorized uniform-without-replacement removal across replicas.

    Row ``r`` removes ``k[r]`` tasks uniformly among its ``counts[r]``
    (requires ``k[r] <= counts[r].sum()``). The law is the multivariate
    hypergeometric the scalar path draws per replica, sampled by binary
    splitting: the removals falling in the left half of a node segment
    are hypergeometric in (left-half tasks, right-half tasks, segment
    removals), and the recursion bottoms out at single nodes. Segments
    at one depth share a single vectorized ``hypergeometric`` call over
    ``(R, segments)``, so the whole draw costs ``ceil(log2 n)`` numpy
    calls instead of ``R`` per-replica (or ``n`` chain-rule) ones.
    """
    num_rows, num_nodes = counts.shape
    prefix = np.zeros((num_rows, num_nodes + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=prefix[:, 1:])
    removal = np.zeros((num_rows, num_nodes), dtype=np.int64)
    starts = np.array([0], dtype=np.int64)
    ends = np.array([num_nodes], dtype=np.int64)
    k_segments = np.asarray(k, dtype=np.int64)[:, None]
    while True:
        leaves = ends - starts == 1
        if np.any(leaves):
            removal[:, starts[leaves]] = k_segments[:, leaves]
        if np.all(leaves):
            return removal
        starts = starts[~leaves]
        ends = ends[~leaves]
        k_segments = k_segments[:, ~leaves]
        mids = (starts + ends) // 2
        left_total = prefix[:, mids] - prefix[:, starts]
        right_total = prefix[:, ends] - prefix[:, mids]
        left_draw = gen.hypergeometric(left_total, right_total, k_segments)
        starts = np.column_stack([starts, mids]).reshape(-1)
        ends = np.column_stack([mids, ends]).reshape(-1)
        k_segments = np.stack(
            [left_draw, k_segments - left_draw], axis=2
        ).reshape(num_rows, -1)


def _random_subset_slots(
    gen: np.random.Generator, mask: np.ndarray, k: IntArray
) -> tuple[IntArray, IntArray]:
    """Uniform random ``k[r]``-subsets of each row's live slots.

    Random-key selection: i.i.d. uniform keys on the live slots, the
    ``k[r]`` smallest win — a uniformly random subset, vectorized across
    the stack. Returns aligned (row position, slot) index arrays.
    """
    keys = gen.random(mask.shape)
    keys[~mask] = np.inf  # dead slots never selected
    order = np.argsort(keys, axis=1)
    chosen = np.arange(mask.shape[1]) < np.asarray(k, dtype=np.int64)[:, None]
    positions, ranks = np.nonzero(chosen)
    return positions, order[positions, ranks]


def _remove_uniform_block(
    batch: BatchStateBase,
    streams: StreamLayout,
    rows: IntArray,
    requested: IntArray,
    outcome: BatchEventOutcome,
) -> None:
    """Counter-path uniform task removal across the stack.

    Removes ``min(requested[r], present)`` uniformly random tasks from
    each row — the multivariate-hypergeometric chain for uniform stacks,
    random-key subset selection for weighted stacks. Shared by
    :class:`TaskDeparture` and the departure half of
    :class:`PoissonChurnEvent`.
    """
    if isinstance(batch, BatchUniformState):
        counts = batch.counts[rows]
        k = np.minimum(requested, counts.sum(axis=1))
        if np.any(k):
            removed = _hypergeometric_removal(
                streams.site("departure"), counts, k
            )
            batch.adjust_counts(rows, -removed)
        outcome.tasks_removed[rows] = k
        outcome.weight_removed[rows] = k.astype(np.float64)
        return
    if isinstance(batch, BatchWeightedState):
        mask = batch.task_mask[rows]
        k = np.minimum(requested, mask.sum(axis=1))
        if np.any(k):
            positions, slots = _random_subset_slots(
                streams.site("departure"), mask, k
            )
            outcome.weight_removed[rows] = np.bincount(
                positions,
                weights=batch.task_weights[rows[positions], slots],
                minlength=rows.size,
            )
            batch.remove_tasks(rows[positions], slots)
        outcome.tasks_removed[rows] = k
        return
    raise ModelError(f"unsupported batch type {type(batch).__name__}")


def _remove_weighted_spawned(
    batch: BatchWeightedState,
    streams: StreamLayout,
    rows: IntArray,
    requested: IntArray,
    outcome: BatchEventOutcome,
) -> None:
    """Spawned-path uniform task removal from a weighted stack.

    Replica ``rows[p]`` draws the scalar call ``choice(m_r, k,
    replace=False)`` with ``k = min(requested[p], m_r)``: ranks among
    its live slots. One ``flatnonzero`` of the mask plus per-row
    offsets maps all ranks to slots for a single ``remove_tasks``.
    Removed weights are summed per replica in draw order, as the scalar
    path sums them. Shared by :class:`TaskDeparture` and
    :class:`PoissonChurnEvent`.
    """
    mask = batch.task_mask[rows]
    live_counts = np.count_nonzero(mask, axis=1)
    k = np.minimum(requested, live_counts)
    outcome.tasks_removed[rows] = k
    drawn = np.flatnonzero(k)
    if drawn.size == 0:
        return
    ranks = np.concatenate(
        [
            streams[rows[p]].choice(live_counts[p], size=k[p], replace=False)
            for p in drawn.tolist()
        ]
    )
    positions = np.repeat(drawn, k[drawn])
    row_starts = np.cumsum(live_counts) - live_counts
    flat = np.flatnonzero(mask)[row_starts[positions] + ranks]
    slots = flat - positions * batch.max_tasks
    weights = batch.task_weights[rows[positions], slots]
    outcome.weight_removed[rows[drawn]] = [
        float(chunk.sum()) for chunk in np.split(weights, np.cumsum(k[drawn])[:-1])
    ]
    batch.remove_tasks(rows[positions], slots)


class Event:
    """Base class: one declarative workload perturbation.

    Subclasses implement :meth:`apply` (scalar states) and
    :meth:`apply_batch` (replica stacks) with the shared randomness
    contract described in the module docstring. Events are immutable
    value objects; a :class:`~repro.scenarios.schedule.Schedule` decides
    *when* they fire.
    """

    name: str = "event"

    #: Topology events transform the *graph* instead of the state; the
    #: runner swaps the simulator onto the derived graph rather than
    #: calling :meth:`apply`/:meth:`apply_batch`.
    mutates_topology: bool = False

    #: Deterministic events consume **no** stream randomness: their
    #: effect is a pure function of the current state, so they are
    #: pathwise identical across engines, both RNG policies, and any
    #: replica-shard window. Compiled workload traces
    #: (:mod:`repro.workloads`) emit only deterministic events, which is
    #: what lets counter-policy scenario ensembles shard (see
    #: :attr:`repro.scenarios.schedule.Schedule.is_deterministic`).
    deterministic: bool = False

    def apply(
        self,
        state: LoadStateBase,
        graph: Graph | None,
        rng: np.random.Generator,
    ) -> EventOutcome:
        """Apply the event to a scalar state (mutated in place)."""
        raise NotImplementedError

    def transform_graph(
        self, graph: Graph, base_graph: Graph, round_index: int
    ) -> Graph:
        """Derive the new network from the ``graph`` currently in force.

        Only meaningful when :attr:`mutates_topology` is true. Returns a
        *new* immutable :class:`~repro.graphs.graph.Graph` (graphs are
        never mutated); ``base_graph`` is the scenario's original
        network, used by recovery events to restore it. Any randomness
        is derived from the event's own seed and ``round_index`` —
        topology events consume **no** stream randomness, which is what
        makes them replica-stable under both RNG policies and invariant
        across replica-shard windows.
        """
        raise NotImplementedError

    def apply_batch(
        self,
        batch: BatchStateBase,
        graph: Graph | None,
        rngs,
        replicas: object | None = None,
    ) -> BatchEventOutcome:
        """Apply the event to the given replica rows (all when ``None``).

        Exception: speed-changing events (:class:`SpeedChange`, the
        speed step of :class:`NodeOutage`) act on the stack's *shared*
        speed vector and therefore reject a strict subset of replicas —
        they cannot apply to some rows but not others.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description for logs and tables."""
        return self.name


@dataclass(frozen=True)
class TaskArrival(Event):
    """``count`` new tasks arrive, at ``node`` or uniform-random nodes.

    Weighted states give every new task weight ``weight`` (uniform
    states ignore it — their tasks are unit-weight by definition).
    """

    count: int
    node: int | None = None
    weight: float = 1.0
    name: str = field(default="arrival", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or self.count < 0:
            raise ValidationError(f"count must be a non-negative int, got {self.count}")
        if self.node is not None and (
            not isinstance(self.node, (int, np.integer)) or self.node < 0
        ):
            raise ValidationError(f"node must be a non-negative int, got {self.node}")
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(
                f"arrival weight must lie in (0, 1], got {self.weight}"
            )

    def _targets(self, rng: np.random.Generator, num_nodes: int) -> IntArray:
        if self.node is not None:
            return np.full(self.count, self.node, dtype=np.int64)
        return rng.integers(0, num_nodes, size=self.count)

    def apply(self, state, graph, rng) -> EventOutcome:
        if self.node is not None:
            _check_node(self.node, state)
        if self.count == 0:
            return EventOutcome()
        targets = self._targets(rng, state.num_nodes)
        if isinstance(state, UniformState):
            additions = np.bincount(targets, minlength=state.num_nodes).astype(
                np.int64
            )
            state.replace_counts(state.counts + additions)
            return EventOutcome(
                tasks_added=self.count, weight_added=float(self.count)
            )
        if isinstance(state, WeightedState):
            state.add_tasks(targets, np.full(self.count, self.weight))
            return EventOutcome(
                tasks_added=self.count, weight_added=self.count * self.weight
            )
        raise ModelError(f"unsupported state type {type(state).__name__}")

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        streams = as_stream_layout(rngs)
        _check_rngs(batch, streams)
        if self.node is not None:
            _check_node(self.node, batch)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if self.count == 0 or rows.size == 0:
            return outcome
        n = batch.num_nodes
        if streams.policy == "counter":
            targets = self._target_block(streams, rows.size, n)
            self._add_target_block(batch, rows, targets, None, outcome)
            return outcome
        if isinstance(batch, BatchUniformState):
            deltas = np.zeros((rows.size, n), dtype=np.int64)
            for position, replica in enumerate(rows):
                targets = self._targets(streams[replica], n)
                np.add.at(deltas[position], targets, 1)
            batch.adjust_counts(rows, deltas)
            outcome.tasks_added[rows] = self.count
            outcome.weight_added[rows] = float(self.count)
            return outcome
        if isinstance(batch, BatchWeightedState):
            all_targets = np.concatenate(
                [self._targets(streams[replica], n) for replica in rows]
            )
            task_rows = np.repeat(rows, self.count)
            batch.add_tasks(
                task_rows, all_targets, np.full(task_rows.shape[0], self.weight)
            )
            outcome.tasks_added[rows] = self.count
            outcome.weight_added[rows] = self.count * self.weight
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def _target_block(
        self, streams: StreamLayout, rows_size: int, num_nodes: int
    ) -> IntArray:
        """``(rows, count)`` arrival targets in one block draw."""
        if self.node is not None:
            return np.full((rows_size, self.count), self.node, dtype=np.int64)
        return streams.site("arrival").integers(
            0, num_nodes, size=(rows_size, self.count)
        )

    def _add_target_block(
        self,
        batch: BatchStateBase,
        rows: IntArray,
        targets: IntArray,
        live: np.ndarray | None,
        outcome: BatchEventOutcome,
        counts: IntArray | None = None,
    ) -> None:
        """Apply a (possibly ragged) arrival target block to the stack.

        ``live`` masks each row's drawn prefix (``None`` = rectangular,
        ``counts`` then defaults to the block width). Shared by the
        counter paths of :class:`TaskArrival` and
        :class:`PoissonChurnEvent`.
        """
        if counts is None:
            counts = np.full(rows.size, targets.shape[1], dtype=np.int64)
        if isinstance(batch, BatchUniformState):
            batch.adjust_counts(
                rows, _scatter_targets(rows.size, batch.num_nodes, targets, live)
            )
            outcome.tasks_added[rows] = counts
            outcome.weight_added[rows] = counts.astype(np.float64)
            return
        if isinstance(batch, BatchWeightedState):
            if live is None:
                task_rows = np.repeat(rows, targets.shape[1])
                flat_targets = targets.ravel()
            else:
                positions, columns = np.nonzero(live)
                task_rows = rows[positions]
                flat_targets = targets[positions, columns]
            batch.add_tasks(
                task_rows,
                flat_targets,
                np.full(task_rows.shape[0], self.weight),
            )
            outcome.tasks_added[rows] = counts
            outcome.weight_added[rows] = counts * self.weight
            return
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def describe(self) -> str:
        where = "uniform-random nodes" if self.node is None else f"node {self.node}"
        return f"arrival({self.count} tasks at {where})"


@dataclass(frozen=True)
class TaskDeparture(Event):
    """``count`` tasks chosen uniformly among the present tasks depart.

    Requesting more departures than tasks exist clears the system.
    """

    count: int
    name: str = field(default="departure", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or self.count < 0:
            raise ValidationError(f"count must be a non-negative int, got {self.count}")

    @staticmethod
    def _uniform_removal(
        rng: np.random.Generator, counts: IntArray, count: int
    ) -> IntArray | None:
        """Per-node removal counts, or ``None`` when nothing changes.

        No randomness is consumed when the system is empty or fully
        cleared — both engines must skip the draw identically.
        """
        total = int(counts.sum())
        if count == 0 or total == 0:
            return None
        if count >= total:
            return counts.copy()
        return rng.multivariate_hypergeometric(counts, count).astype(np.int64)

    def apply(self, state, graph, rng) -> EventOutcome:
        if isinstance(state, UniformState):
            removed = self._uniform_removal(rng, state.counts, self.count)
            if removed is None:
                return EventOutcome()
            state.replace_counts(state.counts - removed)
            gone = int(removed.sum())
            return EventOutcome(tasks_removed=gone, weight_removed=float(gone))
        if isinstance(state, WeightedState):
            live = state.num_tasks
            k = min(self.count, live)
            if k == 0:
                return EventOutcome()
            chosen = rng.choice(live, size=k, replace=False)
            weight_gone = float(state.task_weights[chosen].sum())
            state.remove_tasks(chosen)
            return EventOutcome(tasks_removed=k, weight_removed=weight_gone)
        raise ModelError(f"unsupported state type {type(state).__name__}")

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        streams = as_stream_layout(rngs)
        _check_rngs(batch, streams)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if self.count == 0 or rows.size == 0:
            return outcome
        if streams.policy == "counter":
            per_row = np.full(rows.size, self.count, dtype=np.int64)
            _remove_uniform_block(batch, streams, rows, per_row, outcome)
            return outcome
        if isinstance(batch, BatchUniformState):
            counts = batch.counts
            deltas = np.zeros((rows.size, batch.num_nodes), dtype=np.int64)
            for position, replica in enumerate(rows):
                removed = self._uniform_removal(
                    streams[replica], counts[replica], self.count
                )
                if removed is None:
                    continue
                deltas[position] -= removed
                gone = int(removed.sum())
                outcome.tasks_removed[replica] = gone
                outcome.weight_removed[replica] = float(gone)
            batch.adjust_counts(rows, deltas)
            return outcome
        if isinstance(batch, BatchWeightedState):
            per_row = np.full(rows.size, self.count, dtype=np.int64)
            _remove_weighted_spawned(batch, streams, rows, per_row, outcome)
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def describe(self) -> str:
        return f"departure({self.count} uniform-random tasks)"


@dataclass(frozen=True)
class PoissonChurnEvent(Event):
    """Stationary churn: ``Poisson(rate)`` arrivals and departures.

    Each application draws ``k ~ Poisson(rate)`` arrivals (placed at
    ``node`` or uniform-random nodes, weight ``weight`` on weighted
    states) followed by ``k' ~ Poisson(rate)`` departures (uniform among
    the then-present tasks), so the expected task count is stationary.
    Typically scheduled with :func:`repro.scenarios.every` at period 1.
    """

    rate: float
    node: int | None = None
    weight: float = 1.0
    name: str = field(default="poisson-churn", init=False, repr=False)

    def __post_init__(self):
        if not self.rate >= 0.0:
            raise ValidationError(f"rate must be >= 0, got {self.rate}")
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(
                f"arrival weight must lie in (0, 1], got {self.weight}"
            )

    def apply(self, state, graph, rng) -> EventOutcome:
        arrivals = int(rng.poisson(self.rate))
        departures = int(rng.poisson(self.rate))
        added = TaskArrival(arrivals, node=self.node, weight=self.weight).apply(
            state, graph, rng
        )
        removed = TaskDeparture(departures).apply(state, graph, rng)
        return EventOutcome(
            tasks_added=added.tasks_added,
            tasks_removed=removed.tasks_removed,
            weight_added=added.weight_added,
            weight_removed=removed.weight_removed,
        )

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        streams = as_stream_layout(rngs)
        _check_rngs(batch, streams)
        if self.node is not None:
            _check_node(self.node, batch)
        rows = _rows(batch, replicas)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        if rows.size == 0:
            return outcome
        if streams.policy == "counter":
            return self._apply_batch_counter(batch, streams, rows, outcome)
        is_uniform = isinstance(batch, BatchUniformState)
        if not (is_uniform or isinstance(batch, BatchWeightedState)):
            raise ModelError(f"unsupported batch type {type(batch).__name__}")
        # Per-replica draw order matches the scalar path exactly:
        # poisson(arrivals), poisson(departures), then arrival placement,
        # then departure selection (which sees the post-arrival state).
        # Across replicas the arrivals land in one stack mutation and the
        # departures in another.
        n = batch.num_nodes
        arrivals = np.empty(rows.size, dtype=np.int64)
        departures = np.empty(rows.size, dtype=np.int64)
        placed: list[IntArray] = []
        for position, replica in enumerate(rows.tolist()):
            rng = streams[replica]
            arrivals[position] = count = rng.poisson(self.rate)
            departures[position] = rng.poisson(self.rate)
            if count and self.node is None:
                placed.append(rng.integers(0, n, size=count))

        # --- arrivals -------------------------------------------------
        if self.node is not None:
            targets = np.full(int(arrivals.sum()), self.node, dtype=np.int64)
        else:
            targets = np.concatenate(placed) if placed else np.zeros(0, np.int64)
        if is_uniform:
            task_positions = np.repeat(np.arange(rows.size), arrivals)
            deltas = np.bincount(
                task_positions * n + targets, minlength=rows.size * n
            ).reshape(rows.size, n)
            batch.adjust_counts(rows, deltas.astype(np.int64))
            outcome.weight_added[rows] = arrivals.astype(np.float64)
        else:
            if targets.size:
                batch.add_tasks(
                    np.repeat(rows, arrivals),
                    targets,
                    np.full(targets.size, self.weight),
                )
            outcome.weight_added[rows] = arrivals * self.weight
        outcome.tasks_added[rows] = arrivals

        # --- departures (seeing the post-arrival state) ---------------
        if is_uniform:
            counts = batch.counts
            deltas = np.zeros((rows.size, n), dtype=np.int64)
            for position, replica in enumerate(rows):
                removed = TaskDeparture._uniform_removal(
                    streams[replica], counts[replica], int(departures[position])
                )
                if removed is None:
                    continue
                deltas[position] -= removed
                gone = int(removed.sum())
                outcome.tasks_removed[replica] = gone
                outcome.weight_removed[replica] = float(gone)
            batch.adjust_counts(rows, deltas)
        else:
            _remove_weighted_spawned(batch, streams, rows, departures, outcome)
        return outcome

    def _apply_batch_counter(
        self,
        batch: BatchStateBase,
        streams: StreamLayout,
        rows: IntArray,
        outcome: BatchEventOutcome,
    ) -> BatchEventOutcome:
        """Counter path: whole-stack block draws, three mutations total.

        Arrival and departure magnitudes come from one Poisson block
        each; placements fill a padded ``(rows, max arrivals)`` target
        block whose ragged prefixes land in a single ``adjust_counts`` /
        ``add_tasks``; departures (seeing the post-arrival state) reuse
        the shared uniform-removal block. Per-replica marginals match
        the scalar path's law exactly.
        """
        gen = streams.site("poisson-churn")
        arrivals = gen.poisson(self.rate, size=rows.size).astype(np.int64)
        departures = gen.poisson(self.rate, size=rows.size).astype(np.int64)
        widest = int(arrivals.max(initial=0))
        if widest:
            arrival = TaskArrival(widest, node=self.node, weight=self.weight)
            targets = arrival._target_block(streams, rows.size, batch.num_nodes)
            live = np.arange(widest) < arrivals[:, None]
            arrival._add_target_block(
                batch, rows, targets, live, outcome, counts=arrivals
            )
        _remove_uniform_block(batch, streams, rows, departures, outcome)
        return outcome

    def describe(self) -> str:
        return f"poisson-churn(rate={self.rate})"


@dataclass(frozen=True)
class LoadShock(Event):
    """A flash crowd: each task joins ``node`` with probability ``fraction``.

    Tasks already on ``node`` stay put; the total workload is conserved
    (pure relocation).
    """

    fraction: float
    node: int = 0
    name: str = field(default="shock", init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValidationError(
                f"fraction must lie in [0, 1], got {self.fraction}"
            )
        if not isinstance(self.node, (int, np.integer)) or self.node < 0:
            raise ValidationError(f"node must be a non-negative int, got {self.node}")

    def _uniform_delta(
        self, rng: np.random.Generator, counts: IntArray
    ) -> tuple[IntArray, int]:
        grabbed = rng.binomial(counts, self.fraction).astype(np.int64)
        grabbed[self.node] = 0
        moved = int(grabbed.sum())
        delta = -grabbed
        delta[self.node] += moved
        return delta, moved

    def apply(self, state, graph, rng) -> EventOutcome:
        _check_node(self.node, state)
        if isinstance(state, UniformState):
            delta, moved = self._uniform_delta(rng, state.counts)
            state.replace_counts(state.counts + delta)
            return EventOutcome(tasks_relocated=moved)
        if isinstance(state, WeightedState):
            live = state.num_tasks
            if live == 0:
                return EventOutcome()
            uniforms = rng.random(live)
            move = (uniforms < self.fraction) & (state.task_nodes != self.node)
            indices = np.flatnonzero(move)
            if indices.size:
                state.apply_moves(
                    indices, np.full(indices.size, self.node, dtype=np.int64)
                )
            return EventOutcome(tasks_relocated=int(indices.size))
        raise ModelError(f"unsupported state type {type(state).__name__}")

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        streams = as_stream_layout(rngs)
        _check_rngs(batch, streams)
        _check_node(self.node, batch)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if rows.size == 0:
            return outcome
        if streams.policy == "counter":
            return self._apply_batch_counter(batch, streams, rows, outcome)
        if isinstance(batch, BatchUniformState):
            counts = batch.counts
            deltas = np.zeros((rows.size, batch.num_nodes), dtype=np.int64)
            for position, replica in enumerate(rows):
                delta, moved = self._uniform_delta(streams[replica], counts[replica])
                deltas[position] = delta
                outcome.tasks_relocated[replica] = moved
            batch.adjust_counts(rows, deltas)
            return outcome
        if isinstance(batch, BatchWeightedState):
            mask = batch.task_mask
            nodes = batch.task_nodes
            move_rows: list[np.ndarray] = []
            move_slots: list[np.ndarray] = []
            for replica in rows:
                live = np.flatnonzero(mask[replica])
                if live.size == 0:
                    continue
                uniforms = streams[replica].random(live.size)
                moving = live[
                    (uniforms < self.fraction)
                    & (nodes[replica, live] != self.node)
                ]
                if moving.size:
                    move_rows.append(np.full(moving.size, replica, dtype=np.int64))
                    move_slots.append(moving)
                outcome.tasks_relocated[replica] = int(moving.size)
            if move_rows:
                all_rows = np.concatenate(move_rows)
                all_slots = np.concatenate(move_slots)
                batch.apply_moves(
                    all_rows,
                    all_slots,
                    np.full(all_rows.shape[0], self.node, dtype=np.int64),
                )
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def _apply_batch_counter(
        self,
        batch: BatchStateBase,
        streams: StreamLayout,
        rows: IntArray,
        outcome: BatchEventOutcome,
    ) -> BatchEventOutcome:
        """Counter path: one binomial / uniform block for the stack."""
        if isinstance(batch, BatchUniformState):
            counts = batch.counts[rows]
            grabbed = (
                streams.site("shock")
                .binomial(counts, self.fraction)
                .astype(np.int64)
            )
            grabbed[:, self.node] = 0
            moved = grabbed.sum(axis=1)
            deltas = -grabbed
            deltas[:, self.node] += moved
            batch.adjust_counts(rows, deltas)
            outcome.tasks_relocated[rows] = moved
            return outcome
        if isinstance(batch, BatchWeightedState):
            mask = batch.task_mask[rows]
            nodes = batch.task_nodes[rows]
            uniforms = streams.site("shock").random(mask.shape)
            moving = mask & (uniforms < self.fraction) & (nodes != self.node)
            positions, slots = np.nonzero(moving)
            if positions.size:
                batch.apply_moves(
                    rows[positions],
                    slots,
                    np.full(positions.size, self.node, dtype=np.int64),
                )
            outcome.tasks_relocated[rows] = moving.sum(axis=1)
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def describe(self) -> str:
        return f"shock({self.fraction:.0%} of tasks to node {self.node})"


@dataclass(frozen=True)
class SpeedChange(Event):
    """Multiply ``node``'s speed by ``factor`` (deterministic).

    Speeds are shared across a replica stack, so the batched application
    rescales every replica at once and consumes no randomness. Note that
    targets computed from the *initial* speeds (potential thresholds,
    round bounds) describe the pre-event system.
    """

    node: int
    factor: float
    name: str = field(default="speed-change", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.node, (int, np.integer)) or self.node < 0:
            raise ValidationError(f"node must be a non-negative int, got {self.node}")
        if not self.factor > 0.0:
            raise ValidationError(f"factor must be positive, got {self.factor}")

    def apply(self, state, graph, rng) -> EventOutcome:
        state.rescale_speed(self.node, self.factor)
        return EventOutcome()

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        _require_all_replicas(batch, replicas, "SpeedChange")
        batch.rescale_speed(self.node, self.factor)
        return BatchEventOutcome.zeros(batch.num_replicas)

    def describe(self) -> str:
        return f"speed-change(node {self.node} x{self.factor:g})"


@dataclass(frozen=True)
class NodeDrain(Event):
    """Flush every task off ``node`` to uniformly random neighbours.

    The graph-aware evacuation primitive: each evicted task picks one of
    ``node``'s neighbours independently. A no-op on empty or isolated
    nodes (consuming no randomness).
    """

    node: int
    name: str = field(default="drain", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.node, (int, np.integer)) or self.node < 0:
            raise ValidationError(f"node must be a non-negative int, got {self.node}")

    def _require_graph(self, graph: Graph | None) -> Graph:
        if graph is None:
            raise ModelError("NodeDrain needs the graph to find neighbours")
        return graph

    def apply(self, state, graph, rng) -> EventOutcome:
        graph = self._require_graph(graph)
        _check_node(self.node, state)
        neighbours = graph.neighbors(self.node)
        if isinstance(state, UniformState):
            count = int(state.counts[self.node])
            if count == 0 or neighbours.size == 0:
                return EventOutcome()
            choice = rng.integers(0, neighbours.size, size=count)
            delta = np.zeros(state.num_nodes, dtype=np.int64)
            delta[self.node] = -count
            np.add.at(delta, neighbours[choice], 1)
            state.replace_counts(state.counts + delta)
            return EventOutcome(tasks_relocated=count)
        if isinstance(state, WeightedState):
            indices = state.tasks_on(self.node)
            if indices.size == 0 or neighbours.size == 0:
                return EventOutcome()
            choice = rng.integers(0, neighbours.size, size=indices.size)
            state.apply_moves(indices, neighbours[choice])
            return EventOutcome(tasks_relocated=int(indices.size))
        raise ModelError(f"unsupported state type {type(state).__name__}")

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        graph = self._require_graph(graph)
        streams = as_stream_layout(rngs)
        _check_rngs(batch, streams)
        _check_node(self.node, batch)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        neighbours = graph.neighbors(self.node)
        if rows.size == 0 or neighbours.size == 0:
            return outcome
        if streams.policy == "counter":
            return self._apply_batch_counter(
                batch, streams, rows, neighbours, outcome
            )
        if isinstance(batch, BatchUniformState):
            counts = batch.counts
            deltas = np.zeros((rows.size, batch.num_nodes), dtype=np.int64)
            for position, replica in enumerate(rows):
                count = int(counts[replica, self.node])
                if count == 0:
                    continue
                choice = streams[replica].integers(0, neighbours.size, size=count)
                deltas[position, self.node] = -count
                np.add.at(deltas[position], neighbours[choice], 1)
                outcome.tasks_relocated[replica] = count
            batch.adjust_counts(rows, deltas)
            return outcome
        if isinstance(batch, BatchWeightedState):
            mask = batch.task_mask
            nodes = batch.task_nodes
            move_rows: list[np.ndarray] = []
            move_slots: list[np.ndarray] = []
            move_dst: list[np.ndarray] = []
            for replica in rows:
                slots = np.flatnonzero(mask[replica] & (nodes[replica] == self.node))
                if slots.size == 0:
                    continue
                choice = streams[replica].integers(
                    0, neighbours.size, size=slots.size
                )
                move_rows.append(np.full(slots.size, replica, dtype=np.int64))
                move_slots.append(slots)
                move_dst.append(neighbours[choice])
                outcome.tasks_relocated[replica] = int(slots.size)
            if move_rows:
                batch.apply_moves(
                    np.concatenate(move_rows),
                    np.concatenate(move_slots),
                    np.concatenate(move_dst),
                )
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def _apply_batch_counter(
        self,
        batch: BatchStateBase,
        streams: StreamLayout,
        rows: IntArray,
        neighbours: IntArray,
        outcome: BatchEventOutcome,
    ) -> BatchEventOutcome:
        """Counter path: one neighbour-choice block for the stack."""
        if isinstance(batch, BatchUniformState):
            evicted = batch.counts[rows, self.node]
            widest = int(evicted.max(initial=0))
            if widest == 0:
                return outcome
            choice = streams.site("drain").integers(
                0, neighbours.size, size=(rows.size, widest)
            )
            live = np.arange(widest) < evicted[:, None]
            deltas = _scatter_targets(
                rows.size, batch.num_nodes, neighbours[choice], live
            )
            deltas[:, self.node] -= evicted
            batch.adjust_counts(rows, deltas)
            outcome.tasks_relocated[rows] = evicted
            return outcome
        if isinstance(batch, BatchWeightedState):
            mask = batch.task_mask[rows]
            nodes = batch.task_nodes[rows]
            on_node = mask & (nodes == self.node)
            positions, slots = np.nonzero(on_node)
            if positions.size:
                choice = streams.site("drain").integers(
                    0, neighbours.size, size=positions.size
                )
                batch.apply_moves(rows[positions], slots, neighbours[choice])
            outcome.tasks_relocated[rows] = on_node.sum(axis=1)
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def describe(self) -> str:
        return f"drain(node {self.node} -> neighbours)"


@dataclass(frozen=True)
class NodeOutage(Event):
    """Node failure: drain ``node`` to neighbours, then cripple its speed.

    Composition of :class:`NodeDrain` and :class:`SpeedChange` — the
    node's tasks evacuate and its speed drops to ``residual_factor``
    times its current value, so the protocol routes load away from it
    afterwards. Intended as a one-shot event (repeating it keeps
    multiplying the speed down).
    """

    node: int
    residual_factor: float = 0.01
    name: str = field(default="outage", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.node, (int, np.integer)) or self.node < 0:
            raise ValidationError(f"node must be a non-negative int, got {self.node}")
        if not 0.0 < self.residual_factor <= 1.0:
            raise ValidationError(
                f"residual_factor must lie in (0, 1], got {self.residual_factor}"
            )

    def apply(self, state, graph, rng) -> EventOutcome:
        outcome = NodeDrain(self.node).apply(state, graph, rng)
        state.rescale_speed(self.node, self.residual_factor)
        return outcome

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        _require_all_replicas(batch, replicas, "NodeOutage")
        outcome = NodeDrain(self.node).apply_batch(batch, graph, rngs, replicas)
        batch.rescale_speed(self.node, self.residual_factor)
        return outcome

    def describe(self) -> str:
        return (
            f"outage(node {self.node}, speed x{self.residual_factor:g} "
            "after drain)"
        )


class _TopologyEvent(Event):
    """Shared plumbing for graph-transforming events.

    Topology events never touch the load state — tasks stay where they
    are and the protocol simply sees a different neighbourhood next
    round — so the workload-side hooks refuse loudly instead of
    silently doing nothing.
    """

    mutates_topology: bool = True

    def apply(self, state, graph, rng) -> EventOutcome:
        raise ModelError(
            f"{self.name} transforms the graph, not the state; "
            "ScenarioRunner applies it via transform_graph"
        )

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        raise ModelError(
            f"{self.name} transforms the graph, not the state; "
            "ScenarioRunner applies it via transform_graph"
        )


@dataclass(frozen=True)
class EdgeFailure(_TopologyEvent):
    """Links go down: remove explicit ``edges`` or a random ``fraction``.

    Exactly one of ``edges`` (a tuple of ``(u, v)`` pairs) and
    ``fraction`` (of the *current* graph's edges, rounded) must be
    given. The random choice is drawn from a generator derived from the
    event's own ``seed`` and the firing round — not from the replica
    streams — so every replica sees the same failed links under both
    RNG policies. Removing an already-absent edge is a no-op
    (idempotent).
    """

    edges: tuple[tuple[int, int], ...] | None = None
    fraction: float | None = None
    seed: int = 0
    name: str = field(default="edge-failure", init=False, repr=False)

    def __post_init__(self):
        if (self.edges is None) == (self.fraction is None):
            raise ValidationError(
                "exactly one of edges and fraction must be given"
            )
        if self.fraction is not None and not 0.0 < self.fraction < 1.0:
            raise ValidationError(
                f"fraction must lie in (0, 1), got {self.fraction}"
            )
        if self.edges is not None and len(self.edges) == 0:
            raise ValidationError("edges must be non-empty")

    def transform_graph(self, graph, base_graph, round_index) -> Graph:
        from repro.utils.rng import derive_seed, make_rng

        if self.edges is not None:
            return graph.without_edges(np.asarray(self.edges, dtype=np.int64))
        count = max(1, round(self.fraction * graph.num_edges))
        count = min(count, graph.num_edges)
        rng = make_rng(derive_seed(self.seed, "edge-failure", round_index))
        chosen = rng.choice(graph.num_edges, size=count, replace=False)
        return graph.without_edges(graph.edges[np.sort(chosen)])

    def describe(self) -> str:
        if self.edges is not None:
            return f"edge-failure({len(self.edges)} explicit edges)"
        return f"edge-failure({self.fraction:g} of live edges)"


@dataclass(frozen=True)
class EdgeRecovery(_TopologyEvent):
    """Links come back: add explicit ``edges``, or restore the base graph.

    With ``edges=None`` the scenario's *original* network is restored
    wholesale — and because :class:`~repro.graphs.graph.Graph` equality
    is structural, the restored graph hits the protocol's existing
    CSR/dij caches for the base topology. Adding an already-present
    edge is a no-op (idempotent).
    """

    edges: tuple[tuple[int, int], ...] | None = None
    name: str = field(default="edge-recovery", init=False, repr=False)

    def __post_init__(self):
        if self.edges is not None and len(self.edges) == 0:
            raise ValidationError("edges must be non-empty (or None for full restore)")

    def transform_graph(self, graph, base_graph, round_index) -> Graph:
        if self.edges is None:
            return base_graph
        return graph.with_edges(np.asarray(self.edges, dtype=np.int64))

    def describe(self) -> str:
        if self.edges is None:
            return "edge-recovery(restore base graph)"
        return f"edge-recovery({len(self.edges)} explicit edges)"


@dataclass(frozen=True)
class NetworkPartition(_TopologyEvent):
    """Cut every edge between ``nodes`` and the rest of the network.

    Deterministic — the cut is fully determined by the node set — and
    idempotent. The graph goes disconnected (assuming both sides hold a
    vertex and the cut is non-empty), which the live spectral tracking
    reports as ``lambda_2 = 0`` / ``gap_ratio = inf``; heal it with
    :class:`EdgeRecovery`.
    """

    nodes: tuple[int, ...]
    name: str = field(default="partition", init=False, repr=False)

    def __post_init__(self):
        if len(self.nodes) == 0:
            raise ValidationError("nodes must be non-empty")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("nodes must be distinct")
        if any(
            not isinstance(node, (int, np.integer)) or node < 0
            for node in self.nodes
        ):
            raise ValidationError("nodes must be non-negative ints")

    def transform_graph(self, graph, base_graph, round_index) -> Graph:
        side = np.zeros(graph.num_vertices, dtype=bool)
        nodes = np.asarray(self.nodes, dtype=np.int64)
        if nodes.max() >= graph.num_vertices:
            raise ModelError(
                f"partition node {int(nodes.max())} out of range "
                f"[0, {graph.num_vertices - 1}]"
            )
        if nodes.shape[0] >= graph.num_vertices:
            raise ModelError("partition must leave both sides non-empty")
        side[nodes] = True
        cut = side[graph.edges_u] != side[graph.edges_v]
        if not np.any(cut):
            return graph
        return graph.without_edges(
            graph.edges[cut], name=f"{graph.name}|cut{int(np.count_nonzero(cut))}"
        )

    def describe(self) -> str:
        return f"partition({len(self.nodes)} nodes isolated)"


def _scan_removal(
    counts: IntArray, count: int | IntArray, start_node: int
) -> IntArray:
    """Deterministic sweep removal over node counts.

    Scans nodes in index order starting at ``start_node`` (wrapping) and
    takes up to each node's available tasks until ``count`` are removed
    (or the system empties). Works on a scalar ``(n,)`` count vector or
    a stacked ``(R, n)`` block with per-row ``count``; returns per-node
    removal counts of the same shape. Pure function of the counts — no
    randomness — so every replica under every RNG policy removes exactly
    the same number of tasks from the same nodes.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=np.int64))
    num_rows, num_nodes = counts.shape
    order = (np.arange(num_nodes) + start_node) % num_nodes
    available = counts[:, order]
    cumulative = np.cumsum(available, axis=1)
    wanted = np.atleast_1d(np.asarray(count, dtype=np.int64))[:, None]
    take = np.clip(wanted - (cumulative - available), 0, available)
    removal = np.zeros_like(counts)
    removal[:, order] = take
    return removal


@dataclass(frozen=True)
class TraceArrival(Event):
    """Compiled-trace arrival: tasks land on explicit ``targets``.

    The target nodes were resolved at trace-generation time from the
    trace's own seed, so the event is fully deterministic — every
    replica receives the same tasks at the same nodes under both RNG
    policies, any engine, and any shard window.
    """

    targets: tuple[int, ...]
    weight: float = 1.0
    deterministic = True
    name: str = field(default="trace-arrival", init=False, repr=False)

    def __post_init__(self):
        if not all(
            isinstance(node, (int, np.integer)) and node >= 0
            for node in self.targets
        ):
            raise ValidationError("targets must be non-negative ints")
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(
                f"arrival weight must lie in (0, 1], got {self.weight}"
            )

    @property
    def count(self) -> int:
        return len(self.targets)

    def _target_array(self, num_nodes: int) -> IntArray:
        targets = np.asarray(self.targets, dtype=np.int64)
        if targets.size and int(targets.max()) >= num_nodes:
            raise ModelError(
                f"trace-arrival target {int(targets.max())} out of range "
                f"[0, {num_nodes - 1}]"
            )
        return targets

    def apply(self, state, graph, rng) -> EventOutcome:
        targets = self._target_array(state.num_nodes)
        if targets.size == 0:
            return EventOutcome()
        if isinstance(state, UniformState):
            additions = np.bincount(targets, minlength=state.num_nodes).astype(
                np.int64
            )
            state.replace_counts(state.counts + additions)
            return EventOutcome(
                tasks_added=self.count, weight_added=float(self.count)
            )
        if isinstance(state, WeightedState):
            state.add_tasks(targets, np.full(targets.size, self.weight))
            return EventOutcome(
                tasks_added=self.count, weight_added=self.count * self.weight
            )
        raise ModelError(f"unsupported state type {type(state).__name__}")

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        targets = self._target_array(batch.num_nodes)
        if targets.size == 0 or rows.size == 0:
            return outcome
        if isinstance(batch, BatchUniformState):
            additions = np.bincount(targets, minlength=batch.num_nodes).astype(
                np.int64
            )
            batch.adjust_counts(rows, np.repeat(additions[None, :], rows.size, 0))
            outcome.tasks_added[rows] = self.count
            outcome.weight_added[rows] = float(self.count)
            return outcome
        if isinstance(batch, BatchWeightedState):
            task_rows = np.repeat(rows, targets.size)
            batch.add_tasks(
                task_rows,
                np.tile(targets, rows.size),
                np.full(task_rows.shape[0], self.weight),
            )
            outcome.tasks_added[rows] = self.count
            outcome.weight_added[rows] = self.count * self.weight
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def describe(self) -> str:
        return f"trace-arrival({self.count} tasks at explicit nodes)"


@dataclass(frozen=True)
class TraceDeparture(Event):
    """Compiled-trace departure: exactly ``count`` tasks leave, by sweep.

    Removal is the deterministic node sweep of :func:`_scan_removal`
    (weighted stacks additionally take each node's lowest-index live
    slots first), so whenever the system holds at least ``count`` tasks
    — which trace validation guarantees for compiled traces — every
    replica removes exactly ``count`` under every policy/engine/shard
    configuration, keeping the ``num_tasks`` trajectory byte-identical
    across all of them.
    """

    count: int
    start_node: int = 0
    deterministic = True
    name: str = field(default="trace-departure", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or self.count < 0:
            raise ValidationError(f"count must be a non-negative int, got {self.count}")
        if not isinstance(self.start_node, (int, np.integer)) or self.start_node < 0:
            raise ValidationError(
                f"start_node must be a non-negative int, got {self.start_node}"
            )

    def apply(self, state, graph, rng) -> EventOutcome:
        _check_node(self.start_node, state)
        if self.count == 0:
            return EventOutcome()
        if isinstance(state, UniformState):
            removal = _scan_removal(state.counts, self.count, self.start_node)[0]
            gone = int(removal.sum())
            if gone == 0:
                return EventOutcome()
            state.replace_counts(state.counts - removal)
            return EventOutcome(tasks_removed=gone, weight_removed=float(gone))
        if isinstance(state, WeightedState):
            scan_pos = self._scan_positions(state.num_nodes)
            order = np.argsort(scan_pos[state.task_nodes], kind="stable")
            chosen = order[: min(self.count, state.num_tasks)]
            if chosen.size == 0:
                return EventOutcome()
            weight_gone = float(state.task_weights[chosen].sum())
            state.remove_tasks(chosen)
            return EventOutcome(
                tasks_removed=int(chosen.size), weight_removed=weight_gone
            )
        raise ModelError(f"unsupported state type {type(state).__name__}")

    def _scan_positions(self, num_nodes: int) -> IntArray:
        """``scan_pos[node]`` = how late the sweep reaches ``node``."""
        return (np.arange(num_nodes) - self.start_node) % num_nodes

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        _check_node(self.start_node, batch)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if self.count == 0 or rows.size == 0:
            return outcome
        if isinstance(batch, BatchUniformState):
            counts = batch.counts[rows]
            removal = _scan_removal(counts, self.count, self.start_node)
            gone = removal.sum(axis=1)
            batch.adjust_counts(rows, -removal)
            outcome.tasks_removed[rows] = gone
            outcome.weight_removed[rows] = gone.astype(np.float64)
            return outcome
        if isinstance(batch, BatchWeightedState):
            mask = batch.task_mask[rows]
            k = np.minimum(self.count, mask.sum(axis=1))
            if np.any(k):
                scan_pos = self._scan_positions(batch.num_nodes)
                keys = scan_pos[batch.task_nodes[rows]]
                keys = np.where(mask, keys, batch.num_nodes)
                order = np.argsort(keys, axis=1, kind="stable")
                chosen = np.arange(mask.shape[1]) < k[:, None]
                positions, ranks = np.nonzero(chosen)
                slots = order[positions, ranks]
                outcome.weight_removed[rows] = np.bincount(
                    positions,
                    weights=batch.task_weights[rows[positions], slots],
                    minlength=rows.size,
                )
                batch.remove_tasks(rows[positions], slots)
                # Repack to dense prefix slots: the counter kernel
                # addresses its Philox words by (replica, slot) with a
                # stride of the *stack's* padded width, so leaving
                # replica-dependent holes would make that width — and
                # hence every subsequent counter draw — depend on which
                # replicas share the stack. Dense slots keep the width a
                # function of the trace's task trajectory alone, which
                # is what lets counter-policy shard windows reproduce
                # the monolithic run byte-for-byte.
                batch.compact()
            outcome.tasks_removed[rows] = k
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def describe(self) -> str:
        return (
            f"trace-departure({self.count} tasks, sweep from node "
            f"{self.start_node})"
        )


@dataclass(frozen=True)
class TraceRelocation(Event):
    """Compiled-trace flash crowd: a fixed share of each node's tasks
    moves to hotspot ``node``.

    From every node ``j != node``, exactly
    ``floor(fraction * count_j)`` tasks relocate to the hotspot
    (weighted stacks move each node's lowest-index live slots first).
    Deterministic given the state — zero stream randomness — and
    workload-conserving.
    """

    node: int
    fraction: float
    deterministic = True
    name: str = field(default="trace-relocation", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.node, (int, np.integer)) or self.node < 0:
            raise ValidationError(f"node must be a non-negative int, got {self.node}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValidationError(
                f"fraction must lie in [0, 1], got {self.fraction}"
            )

    @staticmethod
    def _quota(counts: IntArray, fraction: float) -> IntArray:
        # The epsilon absorbs IEEE noise like 10 * 0.3 = 2.999...996 so
        # the quota is the intended floor on every platform.
        return np.floor(counts * fraction + 1e-9).astype(np.int64)

    def apply(self, state, graph, rng) -> EventOutcome:
        _check_node(self.node, state)
        if isinstance(state, UniformState):
            grabbed = self._quota(state.counts, self.fraction)
            grabbed[self.node] = 0
            moved = int(grabbed.sum())
            if moved == 0:
                return EventOutcome()
            delta = -grabbed
            delta[self.node] += moved
            state.replace_counts(state.counts + delta)
            return EventOutcome(tasks_relocated=moved)
        if isinstance(state, WeightedState):
            moving: list[np.ndarray] = []
            for target in range(state.num_nodes):
                if target == self.node:
                    continue
                indices = state.tasks_on(target)
                quota = int(self._quota(indices.size, self.fraction))
                if quota:
                    moving.append(indices[:quota])
            if not moving:
                return EventOutcome()
            indices = np.concatenate(moving)
            state.apply_moves(
                indices, np.full(indices.size, self.node, dtype=np.int64)
            )
            return EventOutcome(tasks_relocated=int(indices.size))
        raise ModelError(f"unsupported state type {type(state).__name__}")

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        _check_node(self.node, batch)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if rows.size == 0:
            return outcome
        if isinstance(batch, BatchUniformState):
            grabbed = self._quota(batch.counts[rows], self.fraction)
            grabbed[:, self.node] = 0
            moved = grabbed.sum(axis=1)
            deltas = -grabbed
            deltas[:, self.node] += moved
            batch.adjust_counts(rows, deltas)
            outcome.tasks_relocated[rows] = moved
            return outcome
        if isinstance(batch, BatchWeightedState):
            n = batch.num_nodes
            mask = batch.task_mask[rows]
            # Sentinel group n collects dead slots so live per-node
            # groups stay contiguous under the stable sort below.
            groups = np.where(mask, batch.task_nodes[rows], n)
            counts = _scatter_targets(rows.size, n + 1, groups, None)
            quota = self._quota(counts, self.fraction)
            quota[:, self.node] = 0
            quota[:, n] = 0
            moved = quota.sum(axis=1)
            if np.any(moved):
                prefix = np.zeros((rows.size, n + 2), dtype=np.int64)
                np.cumsum(counts, axis=1, out=prefix[:, 1:])
                order = np.argsort(groups, axis=1, kind="stable")
                sorted_groups = np.take_along_axis(groups, order, axis=1)
                # Rank of each slot within its (row, node) group: the
                # sorted position minus the group's start offset.
                rank = np.arange(mask.shape[1])[None, :] - np.take_along_axis(
                    prefix[:, :-1], sorted_groups, axis=1
                )
                move = rank < np.take_along_axis(quota, sorted_groups, axis=1)
                positions, columns = np.nonzero(move)
                slots = order[positions, columns]
                batch.apply_moves(
                    rows[positions],
                    slots,
                    np.full(positions.size, self.node, dtype=np.int64),
                )
            outcome.tasks_relocated[rows] = moved
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def describe(self) -> str:
        return (
            f"trace-relocation({self.fraction:.0%} of each node's tasks "
            f"to node {self.node})"
        )


@dataclass(frozen=True)
class AdversarialArrival(Event):
    """Adversarial arrival: ``count`` tasks land on the most-loaded node.

    The placement is *deferred*: the trace generator records only the
    intent, and the target is resolved per replica at application time
    as ``argmax(loads)`` (ties break to the lowest node index). That
    keeps the event a pure function of the state — different replicas
    may be hit on different nodes, yet the event stays deterministic,
    consumes no stream randomness, and the per-replica task-count delta
    is exactly ``count`` everywhere.
    """

    count: int
    weight: float = 1.0
    deterministic = True
    name: str = field(default="adversarial-arrival", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or self.count < 0:
            raise ValidationError(f"count must be a non-negative int, got {self.count}")
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(
                f"arrival weight must lie in (0, 1], got {self.weight}"
            )

    def apply(self, state, graph, rng) -> EventOutcome:
        if self.count == 0:
            return EventOutcome()
        target = int(np.argmax(state.loads))
        if isinstance(state, UniformState):
            counts = state.counts.copy()
            counts[target] += self.count
            state.replace_counts(counts)
            return EventOutcome(
                tasks_added=self.count, weight_added=float(self.count)
            )
        if isinstance(state, WeightedState):
            state.add_tasks(
                np.full(self.count, target, dtype=np.int64),
                np.full(self.count, self.weight),
            )
            return EventOutcome(
                tasks_added=self.count, weight_added=self.count * self.weight
            )
        raise ModelError(f"unsupported state type {type(state).__name__}")

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if self.count == 0 or rows.size == 0:
            return outcome
        targets = np.argmax(batch.loads[rows], axis=1)
        if isinstance(batch, BatchUniformState):
            deltas = np.zeros((rows.size, batch.num_nodes), dtype=np.int64)
            deltas[np.arange(rows.size), targets] = self.count
            batch.adjust_counts(rows, deltas)
            outcome.tasks_added[rows] = self.count
            outcome.weight_added[rows] = float(self.count)
            return outcome
        if isinstance(batch, BatchWeightedState):
            task_rows = np.repeat(rows, self.count)
            batch.add_tasks(
                task_rows,
                np.repeat(targets, self.count),
                np.full(task_rows.shape[0], self.weight),
            )
            outcome.tasks_added[rows] = self.count
            outcome.weight_added[rows] = self.count * self.weight
            return outcome
        raise ModelError(f"unsupported batch type {type(batch).__name__}")

    def describe(self) -> str:
        return f"adversarial-arrival({self.count} tasks at argmax-load node)"
