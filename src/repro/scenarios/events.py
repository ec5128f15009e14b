"""Declarative workload events for dynamic scenarios.

The paper's convergence theorems hold for a *static* task set; real
deployments churn. An :class:`Event` is a declarative description of one
workload perturbation — task arrivals and departures (including a
stationary Poisson churn process), adversarial load shocks, speed
changes, node drains and outages. Each event has one body,
:meth:`Event.apply_batch`, which applies it to a replica stack
(:class:`~repro.model.batch.BatchUniformState` or
:class:`~repro.model.batch.BatchWeightedState`), vectorized over the
stack. A scalar event is a one-row batch event: :meth:`Event.apply`
copies a scalar state (:class:`~repro.model.state.UniformState` or
:class:`~repro.model.state.WeightedState`) into a one-row stack, runs
the batch body on it with ``[rng]`` and writes row 0 back into the same
state object. The copy carries the state's incrementally kept node
weights over bit for bit (a fresh bincount can differ from them in the
last place), and a raising event leaves the scalar state untouched.

Randomness contract
-------------------
Events are stateless and picklable; all randomness comes from the
generator(s) — or the :class:`~repro.utils.rng.StreamLayout` — passed at
application time. A batched application draws only through the layout's
sampling primitives (:meth:`~repro.utils.rng.StreamLayout.integers`,
``random``, ``poisson``, ``binomial``, ``removal_counts`` and
``subset``), one call per draw site in a fixed site order, and then
mutates the stack once per step with
:meth:`~repro.model.batch.BatchUniformState.adjust_counts` /
:meth:`~repro.model.batch.BatchWeightedState.add_tasks` /
``remove_tasks`` / ``apply_moves``. The compiled trace events
(:class:`TraceArrival`, :class:`TraceDeparture`,
:class:`TraceRelocation`, :class:`AdversarialArrival`) draw nothing and
write a uniform stack through the trusted
:meth:`~repro.model.batch.BatchUniformState._shift_counts` instead,
which checks only that no count goes negative: ``_rows`` has proved the
rows unique and in range, and each delta is bounded by construction (a
bincount of range-checked targets, a scan that takes at most what a
node holds, a floor quota, a fixed count at the argmax node). A
stochastic event given no stream (``None``, or ``None`` for a replica)
raises a :class:`~repro.errors.ModelError` that names it. The policy
shows only in what the primitives draw:

* **spawned** (a generator sequence or
  :class:`~repro.utils.rng.SpawnedStreams`): each primitive makes, for
  every replica ``r``, exactly the call a one-row application — the
  scalar event — makes against ``rngs[r]``. Drawing site by site across
  the rows keeps every replica's own call sequence, so a replica's path
  does not depend on the rows beside it: weighted scenario runs — where
  the protocol kernels are pathwise identical across engines — stay
  bit-identical per replica, and uniform batch and scalar runs sample
  the same law (the uniform kernels themselves are only law-equivalent).
* **counter** (:class:`~repro.utils.rng.CounterStreams`): each primitive
  draws one whole-stack block from one keyed Philox site — no
  per-replica Python loop (the heavy-churn speedup pinned in
  ``benchmarks/test_scenarios.py``). Per-replica marginals keep the
  scalar law exactly (placements, multivariate-hypergeometric and
  random-key departures, binomial shocks); runs are same-seed
  deterministic but not pathwise comparable to spawned runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import ModelError, ValidationError
from repro.graphs.graph import Graph
from repro.model.batch import BatchStateBase, BatchUniformState, BatchWeightedState
from repro.model.state import LoadStateBase, UniformState, WeightedState
from repro.types import FloatArray, IntArray
from repro.utils.rng import SpawnedStreams, StreamLayout, as_stream_layout
from repro.utils.validation import check_index_array

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


#: numpy's largest Poisson mean; ``Generator.poisson`` refuses larger ones.
_POISSON_LAM_MAX = float(
    np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
)


def _check_node(node: int, batch: BatchStateBase) -> None:
    if not 0 <= node < batch.num_nodes:
        raise ModelError(f"node {node} out of range [0, {batch.num_nodes - 1}]")


def _rows(batch: BatchStateBase, replicas: object | None) -> IntArray:
    """The replica rows an application touches: all of them for
    ``None``, else ``replicas`` proved in range and free of duplicates
    (a duplicate would apply the event twice to one replica)."""
    if replicas is None:
        return np.arange(batch.num_replicas, dtype=np.int64)
    rows = np.asarray(replicas, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= batch.num_replicas):
        raise ModelError("replica index out of range")
    if np.unique(rows).shape[0] != rows.shape[0]:
        raise ModelError("duplicate replica index")
    return rows


def _streams(event: "Event", batch: BatchStateBase, rngs) -> StreamLayout:
    """A stochastic event's ``rngs`` as a layout with one stream per
    replica of ``batch``.

    A missing stream (``None``, or ``None`` in a generator list) raises
    a :class:`ModelError` naming the event, before anything is drawn.
    """
    streams = None if rngs is None else as_stream_layout(rngs)
    if streams is None or (
        isinstance(streams, SpawnedStreams)
        and not all(
            isinstance(generator, np.random.Generator)
            for generator in streams.generators
        )
    ):
        raise ModelError(
            f"{type(event).__name__} draws randomness and needs one numpy "
            f"Generator per replica, got {rngs!r}"
        )
    if len(streams) != batch.num_replicas:
        raise ModelError(
            f"need one generator per replica ({batch.num_replicas}), "
            f"got {len(streams)}"
        )
    return streams


def _require_all_replicas(
    batch: BatchStateBase, replicas: object | None, event_name: str
) -> None:
    """Reject subset application for events touching shared stack state."""
    if _rows(batch, replicas).shape[0] != batch.num_replicas:
        raise ModelError(
            f"{event_name} mutates the stack's shared speed vector and "
            "cannot apply to a subset of replicas; pass replicas=None"
        )


def _node_counts(
    positions: IntArray, nodes: IntArray, num_rows: int, num_nodes: int
) -> IntArray:
    """``(num_rows, num_nodes)`` counts of tasks ``k`` of row
    ``positions[k]`` on node ``nodes[k]``, in one ``bincount``."""
    return np.bincount(
        positions * num_nodes + nodes, minlength=num_rows * num_nodes
    ).reshape(num_rows, num_nodes)


def _row_sums(values: FloatArray, sizes: IntArray) -> FloatArray:
    """Sums of consecutive runs of ``sizes[p]`` values, each taken with
    ``.sum()`` in draw order, as the event goldens pin them
    (``bincount`` and ``np.add.reduceat`` differ from it in the last bit
    from 8 values on)."""
    ends = np.cumsum(sizes).tolist()
    return np.array(
        [
            float(values[end - size : end].sum()) if size else 0.0
            for end, size in zip(ends, sizes.tolist())
        ]
    )


def _add_arrivals(
    batch: BatchStateBase,
    streams: StreamLayout,
    rows: IntArray,
    arrivals: IntArray,
    node: int | None,
    weight: float,
    outcome: BatchEventOutcome,
) -> None:
    """``arrivals[p]`` tasks of weight ``weight`` join replica ``rows[p]``
    at ``node`` or at uniform-random nodes, in one stack mutation.

    Shared by :class:`TaskArrival` and :class:`PoissonChurnEvent`.
    """
    if node is None:
        need = np.arange(arrivals.max(initial=0)) < arrivals[:, None]
        targets = streams.integers("arrival", rows, need, batch.num_nodes)
    else:
        targets = np.full(int(arrivals.sum()), node, dtype=np.int64)
    positions = np.repeat(np.arange(rows.size), arrivals)
    if isinstance(batch, BatchUniformState):
        batch.adjust_counts(
            rows, _node_counts(positions, targets, rows.size, batch.num_nodes)
        )
        weight = 1.0
    elif isinstance(batch, BatchWeightedState):
        batch.add_tasks(rows[positions], targets, np.full(targets.size, weight))
    else:
        raise ModelError(f"unsupported batch type {type(batch).__name__}")
    outcome.tasks_added[rows] = arrivals
    outcome.weight_added[rows] = arrivals * weight


def _remove_uniform(
    batch: BatchStateBase,
    streams: StreamLayout,
    rows: IntArray,
    requested: int | IntArray,
    outcome: BatchEventOutcome,
) -> None:
    """Replica ``rows[p]`` loses ``min(requested[p], present)`` tasks
    chosen uniformly, in one stack mutation.

    Shared by :class:`TaskDeparture` and the departure half of
    :class:`PoissonChurnEvent`.
    """
    if isinstance(batch, BatchUniformState):
        counts = batch.counts[rows]
        k = np.minimum(requested, counts.sum(axis=1))
        removal = streams.removal_counts("departure", rows, counts, k)
        batch.adjust_counts(rows, -removal)
        outcome.weight_removed[rows] = k
    elif isinstance(batch, BatchWeightedState):
        mask = batch.task_mask[rows]
        k = np.minimum(requested, np.count_nonzero(mask, axis=1))
        positions, slots = streams.subset("departure", rows, mask, k)
        outcome.weight_removed[rows] = _row_sums(
            batch.task_weights[rows[positions], slots], k
        )
        batch.remove_tasks(rows[positions], slots)
    else:
        raise ModelError(f"unsupported batch type {type(batch).__name__}")
    outcome.tasks_removed[rows] = k


class Event:
    """Base class: one declarative workload perturbation.

    Subclasses implement :meth:`apply_batch` (replica stacks) with the
    randomness contract described in the module docstring; the scalar
    :meth:`apply` runs that body on a one-row stack. Events are
    immutable value objects; a
    :class:`~repro.scenarios.schedule.Schedule` decides *when* they
    fire.
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
        rng: np.random.Generator | None,
    ) -> EventOutcome:
        """Apply the event to a scalar state (mutated in place).

        Deterministic events draw nothing and accept ``rng=None``.
        """
        row = self._apply_one(state, graph, rng)
        return EventOutcome(
            **{
                outcome_field.name: getattr(row, outcome_field.name)[0].item()
                for outcome_field in fields(EventOutcome)
            }
        )

    def _apply_one(
        self,
        state: LoadStateBase,
        graph: Graph | None,
        rng: np.random.Generator | None,
    ) -> BatchEventOutcome:
        """:meth:`apply` with the one-row outcome :meth:`apply_batch`
        returned, which the scalar scenario engine records as is."""
        if isinstance(state, UniformState):
            stack = BatchUniformState.from_states([state])
        elif isinstance(state, WeightedState):
            stack = BatchWeightedState.from_states([state])
            # from_states rebuilds W_i with a fresh bincount, which can
            # differ in the last place from the state's incremental W_i.
            stack._node_weights[0] = state.node_weights
        else:
            raise ModelError(f"unsupported state type {type(state).__name__}")
        outcome = self.apply_batch(stack, graph, [rng])
        state._assign(stack)
        return outcome

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

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        streams = _streams(self, batch, rngs)
        if self.node is not None:
            _check_node(self.node, batch)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if self.count == 0 or rows.size == 0:
            return outcome
        arrivals = np.full(rows.size, self.count, dtype=np.int64)
        _add_arrivals(batch, streams, rows, arrivals, self.node, self.weight, outcome)
        return outcome

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

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        streams = _streams(self, batch, rngs)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if self.count == 0 or rows.size == 0:
            return outcome
        _remove_uniform(batch, streams, rows, self.count, outcome)
        return outcome

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
        if not 0.0 <= self.rate <= _POISSON_LAM_MAX:
            raise ValidationError(
                f"rate must be finite, >= 0 and at most numpy's Poisson "
                f"limit {_POISSON_LAM_MAX:.6g}, got {self.rate}"
            )
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(
                f"arrival weight must lie in (0, 1], got {self.weight}"
            )

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        streams = _streams(self, batch, rngs)
        if self.node is not None:
            _check_node(self.node, batch)
        rows = _rows(batch, replicas)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        if rows.size == 0:
            return outcome
        # Each replica draws both magnitudes, then the placements, then
        # the departures, which see the post-arrival state.
        arrivals, departures = streams.poisson("poisson-churn", rows, self.rate, 2)
        _add_arrivals(batch, streams, rows, arrivals, self.node, self.weight, outcome)
        _remove_uniform(batch, streams, rows, departures, outcome)
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

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        streams = _streams(self, batch, rngs)
        _check_node(self.node, batch)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if rows.size == 0:
            return outcome
        if isinstance(batch, BatchUniformState):
            grabbed = streams.binomial(
                "shock", rows, batch.counts[rows], self.fraction
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
            uniforms = streams.random("shock", rows, mask)
            positions, slots = np.nonzero(mask)
            move = (uniforms < self.fraction) & (
                batch.task_nodes[rows[positions], slots] != self.node
            )
            positions, slots = positions[move], slots[move]
            batch.apply_moves(
                rows[positions], slots, np.full(slots.size, self.node, dtype=np.int64)
            )
            outcome.tasks_relocated[rows] = np.bincount(positions, minlength=rows.size)
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
        if not 0.0 < self.factor < np.inf:
            raise ValidationError(
                f"factor must be positive and finite, got {self.factor}"
            )

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

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        graph = self._require_graph(graph)
        streams = _streams(self, batch, rngs)
        _check_node(self.node, batch)
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        neighbours = graph.neighbors(self.node)
        if rows.size == 0 or neighbours.size == 0:
            return outcome
        if isinstance(batch, BatchUniformState):
            evicted = batch.counts[rows, self.node]
            need = np.arange(evicted.max(initial=0)) < evicted[:, None]
            choice = streams.integers("drain", rows, need, neighbours.size)
            positions = np.repeat(np.arange(rows.size), evicted)
            deltas = _node_counts(
                positions, neighbours[choice], rows.size, batch.num_nodes
            )
            deltas[:, self.node] -= evicted
            batch.adjust_counts(rows, deltas)
            outcome.tasks_relocated[rows] = evicted
            return outcome
        if isinstance(batch, BatchWeightedState):
            on_node = batch.task_mask[rows] & (batch.task_nodes[rows] == self.node)
            choice = streams.integers("drain", rows, on_node, neighbours.size)
            positions, slots = np.nonzero(on_node)
            batch.apply_moves(rows[positions], slots, neighbours[choice])
            outcome.tasks_relocated[rows] = np.count_nonzero(on_node, axis=1)
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

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        _require_all_replicas(batch, replicas, "NodeOutage")
        streams = _streams(self, batch, rngs)
        outcome = NodeDrain(self.node).apply_batch(batch, graph, streams, replicas)
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
    wholesale: the base graph instance itself comes back, so the kernel
    tables it already built are reused, and the spectral memo hits it
    too. Adding an already-present edge is a no-op (idempotent).
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


def _scan_removal(counts: IntArray, count: int, start_node: int) -> IntArray:
    """Deterministic sweep removal over node counts.

    Scans nodes in index order starting at ``start_node`` (wrapping) and
    takes up to each node's available tasks until ``count`` are removed
    (or the system empties) from each row of a ``(rows, n)`` count
    block; returns the ``(rows, n)`` per-node removal counts. Pure
    function of the counts — no randomness — so every replica under
    every RNG policy removes exactly the same number of tasks from the
    same nodes.
    """
    num_nodes = counts.shape[1]
    order = (np.arange(num_nodes) + start_node) % num_nodes
    available = counts[:, order]
    cumulative = available.cumsum(axis=1)
    # np.minimum(np.maximum(...)) is np.clip without its Python wrapper.
    take = np.minimum(np.maximum(count - (cumulative - available), 0), available)
    # ``order`` is a permutation, so every column is written.
    removal = np.empty_like(counts)
    removal[:, order] = take
    return removal


@dataclass(frozen=True, eq=False)
class TraceArrival(Event):
    """Compiled-trace arrival: tasks land on explicit ``targets``.

    The target nodes were resolved at trace-generation time from the
    trace's own seed, so the event is fully deterministic — every
    replica receives the same tasks at the same nodes under both RNG
    policies, any engine, and any shard window. ``targets`` takes any
    sequence of non-negative ints and is stored as a read-only int64
    array; equality and hashing compare it element by element.
    """

    targets: IntArray
    weight: float = 1.0
    deterministic = True
    name: str = field(default="trace-arrival", init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", check_index_array(self.targets, "targets"))
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(
                f"arrival weight must lie in (0, 1], got {self.weight}"
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.weight == other.weight and np.array_equal(
            self.targets, other.targets
        )

    def __hash__(self) -> int:
        return hash((self.weight, self.targets.tobytes()))

    def __setstate__(self, state: dict) -> None:
        # Unpickling and deep copies rebuild the array writeable.
        self.__dict__.update(state)
        self.targets.flags.writeable = False

    @property
    def count(self) -> int:
        return self.targets.size

    def _target_array(self, num_nodes: int) -> IntArray:
        targets = self.targets
        if targets.size and targets.max() >= num_nodes:
            raise ModelError(
                f"trace-arrival target {int(targets.max())} out of range "
                f"[0, {num_nodes - 1}]"
            )
        return targets

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        targets = self._target_array(batch.num_nodes)
        if targets.size == 0 or rows.size == 0:
            return outcome
        if isinstance(batch, BatchUniformState):
            # Arrivals per node 0..max(targets): one delta for every row.
            batch._shift_counts(rows, np.bincount(targets))
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
            batch._shift_counts(rows, -removal)
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
                outcome.weight_removed[rows] = _row_sums(
                    batch.task_weights[rows[positions], slots], k
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
            batch._shift_counts(rows, deltas)
            outcome.tasks_relocated[rows] = moved
            return outcome
        if isinstance(batch, BatchWeightedState):
            n = batch.num_nodes
            mask = batch.task_mask[rows]
            # Sentinel group n collects dead slots so live per-node
            # groups stay contiguous under the stable sort below.
            groups = np.where(mask, batch.task_nodes[rows], n)
            counts = _node_counts(
                np.repeat(np.arange(rows.size), groups.shape[1]),
                groups.ravel(),
                rows.size,
                n + 1,
            )
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

    def apply_batch(self, batch, graph, rngs, replicas=None) -> BatchEventOutcome:
        outcome = BatchEventOutcome.zeros(batch.num_replicas)
        rows = _rows(batch, replicas)
        if self.count == 0 or rows.size == 0:
            return outcome
        targets = np.argmax(batch.loads[rows], axis=1)
        if isinstance(batch, BatchUniformState):
            deltas = np.zeros((rows.size, batch.num_nodes), dtype=np.int64)
            deltas[np.arange(rows.size), targets] = self.count
            batch._shift_counts(rows, deltas)
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
