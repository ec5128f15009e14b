"""Batched replica stacks: many independent states as one array.

The convergence-time experiments measure first-hitting rounds over many
independent repetitions of the same scenario. Running them one at a time
through the scalar states leaves the wall-clock dominated by per-round
NumPy dispatch on tiny arrays. The batch states instead stack ``R``
independent replicas into one matrix so a single vectorized kernel call
advances the whole ensemble:

* :class:`BatchUniformState` — ``R`` uniform-task states as an ``(R, n)``
  per-node counts matrix (uniform tasks are anonymous, so counts are a
  sufficient statistic);
* :class:`BatchWeightedState` — ``R`` weighted-task states as padded
  ``(R, M)`` per-task location/weight matrices with an active-task mask
  (weighted tasks are *not* exchangeable, so each keeps its identity),
  plus an incrementally maintained ``(R, n)`` node-weight matrix.

Replica-stack layout
--------------------
Axis 0 is always the replica axis. Per-node derived quantities
(:attr:`BatchStateBase.loads`, deviations, target weights) are ``(R, n)``;
per-replica scalars such as :attr:`BatchStateBase.max_load_difference`
are ``(R,)``. All replicas share one speed vector (they are repetitions
of the *same* scenario); replicas may hold different task totals, so
``average_load`` and the balanced target are per-replica.

The weighted stack is *padded*: replicas may own different task counts
``m_r``, so per-task matrices have ``M = max_r m_r`` columns and the
boolean :attr:`BatchWeightedState.task_mask` marks the live slots.
Padding slots carry location ``-1`` and weight ``0`` and never
participate in rounds, loads, or potentials.

Replicas are statistically independent: the batched protocol kernels
draw each replica's randomness through a
:class:`~repro.utils.rng.StreamLayout` — its own spawned RNG stream
under the default ``"spawned"`` policy, its own rows of per-site Philox
counter blocks under ``"counter"`` (see :mod:`repro.core.batch`) — and
nothing in the state couples rows. The stacks themselves are
layout-agnostic: construction (:meth:`~BatchUniformState.from_states`,
``replicate``) never consumes randomness, so the same initial stack
serves both policies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, SpeedError
from repro.model.state import (
    LoadStateBase,
    UniformState,
    WeightedState,
    _read_only_view,
    _validated_speeds,
)
from repro.types import FloatArray, IntArray

__all__ = ["BatchStateBase", "BatchUniformState", "BatchWeightedState"]


class BatchStateBase:
    """Shared derived quantities of a replica stack.

    Subclasses maintain ``_speeds`` (shared across replicas) and
    implement :meth:`_weights_rows` — the ``(len(rows), n)`` float
    per-node weight matrix for a subset of replica rows — plus the
    dimension properties and :meth:`replica` extraction.
    """

    _speeds: FloatArray

    # ------------------------------------------------------------------
    # Abstract surface
    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        """Number of stacked replicas ``R``."""
        raise NotImplementedError

    @property
    def num_nodes(self) -> int:
        """Number of processors ``n``."""
        raise NotImplementedError

    def _weights_rows(self, replicas: object | None) -> FloatArray:
        """Per-node weight matrix ``W_i`` for the requested replica rows.

        ``None`` selects all replicas. Always float64 of shape
        ``(len(rows), n)``.
        """
        raise NotImplementedError

    def replica(self, index: int) -> LoadStateBase:
        """Extract replica ``index`` as an independent scalar state."""
        raise NotImplementedError

    def copy(self) -> "BatchStateBase":
        """Deep copy of the mutable assignment."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared derived quantities (batched analogues of LoadStateBase)
    # ------------------------------------------------------------------
    @property
    def speeds(self) -> FloatArray:
        """Shared per-processor speeds (read-only view)."""
        return _read_only_view(self._speeds)

    @property
    def node_weights(self) -> FloatArray:
        """``(R, n)`` per-node total weight ``W_i`` per replica."""
        return self._weights_rows(None)

    @property
    def total_weight(self) -> FloatArray:
        """``(R,)`` total weight ``W`` per replica."""
        return self.node_weights.sum(axis=1)

    @property
    def total_speed(self) -> float:
        """Total capacity ``S = sum_i s_i`` (shared)."""
        return float(self._speeds.sum())

    @property
    def loads(self) -> FloatArray:
        """``(R, n)`` per-node loads ``l_i = W_i / s_i``."""
        return self.node_weights / self._speeds

    def loads_for(self, replicas: object | None = None) -> FloatArray:
        """Loads restricted to the requested replica rows.

        The batched stopping rules use this to evaluate only the
        simulator's active set, so per-round checks stay cheap once most
        replicas have retired; ``None`` evaluates all ``R``.
        """
        return self._weights_rows(replicas) / self._speeds

    @property
    def average_load(self) -> FloatArray:
        """``(R,)`` network-wide average load ``W / S`` per replica."""
        return self.total_weight / self.total_speed

    @property
    def target_weights(self) -> FloatArray:
        """``(R, n)`` balanced weight vectors ``wbar = (W/S) * s``."""
        return self.average_load[:, None] * self._speeds[None, :]

    @property
    def deviation(self) -> FloatArray:
        """``(R, n)`` deviations ``e = w - wbar``; each row sums to zero."""
        return self._deviation_rows(None)

    @property
    def max_load_difference(self) -> FloatArray:
        """``(R,)`` per-replica ``L_Delta = max_i |e_i / s_i|``."""
        return np.abs(self.deviation / self._speeds).max(axis=1)

    def _deviation_rows(self, replicas: object | None) -> FloatArray:
        """Deviation matrix restricted to the requested replica rows."""
        weights = self._weights_rows(replicas)
        average_load = weights.sum(axis=1) / self.total_speed
        return weights - average_load[:, None] * self._speeds[None, :]

    def rescale_speed(self, node: int, factor: float) -> None:
        """Multiply ``node``'s speed by ``factor`` (> 0) for all replicas.

        Speeds are shared across the stack (replicas are repetitions of
        one scenario), so a speed event is deterministic and applies to
        every replica at once. The stored vector is replaced wholesale,
        so previously handed-out views keep the pre-event speeds.
        """
        if not 0 <= node < self.num_nodes:
            raise ModelError(f"node {node} out of range")
        if not factor > 0:
            raise SpeedError(f"speed factor must be positive, got {factor}")
        speed = float(self._speeds[node]) * factor
        if not np.isfinite(speed):
            raise SpeedError(
                f"rescaling node {node} by {factor} gives a non-finite speed"
            )
        speeds = self._speeds.copy()
        speeds.setflags(write=True)
        speeds[node] = speed
        speeds.setflags(write=False)
        self._speeds = speeds

    def psi0_potentials(self, replicas: object | None = None) -> FloatArray:
        """Per-replica ``Psi_0 = sum_i e_i^2 / s_i``.

        ``replicas`` restricts the computation to the given rows (the
        simulator's active set), avoiding full-stack work when most
        replicas have retired; ``None`` evaluates all ``R``.
        """
        deviation = self._deviation_rows(replicas)
        return np.sum(deviation * deviation / self._speeds, axis=1)

    def psi1_potentials(self, replicas: object | None = None) -> FloatArray:
        """Per-replica ``Psi_1`` (Observation 3.20 (1) form).

        Accepts the same optional row restriction as
        :meth:`psi0_potentials`.
        """
        shifted = self._deviation_rows(replicas) + 0.5
        values = np.sum(shifted * shifted / self._speeds, axis=1)
        arithmetic_mean = self.total_speed / self.num_nodes
        values = values - self.num_nodes / (4.0 * arithmetic_mean)
        return np.maximum(values, 0.0)


class BatchUniformState(BatchStateBase):
    """``R`` independent uniform-task states stacked as an ``(R, n)`` matrix.

    Parameters
    ----------
    counts:
        Non-negative integer matrix of shape ``(R, n)``; row ``r`` is the
        per-node task counts of replica ``r``.
    speeds:
        Positive per-node speeds of length ``n``, shared by all replicas.
    """

    def __init__(self, counts: object, speeds: object):
        counts_array = np.asarray(counts)
        if counts_array.ndim != 2:
            raise ModelError(
                f"batch counts must be 2-D (replicas, nodes), got shape "
                f"{counts_array.shape}"
            )
        if counts_array.shape[0] == 0 or counts_array.shape[1] == 0:
            raise ModelError("batch counts must be non-empty in both axes")
        if not np.issubdtype(counts_array.dtype, np.integer):
            rounded = np.rint(np.asarray(counts_array, dtype=np.float64))
            if not np.allclose(counts_array, rounded):
                raise ModelError("batch counts must be integers")
            counts_array = rounded
        counts_array = counts_array.astype(np.int64)
        if np.any(counts_array < 0):
            raise ModelError("batch counts must be non-negative")
        self._counts = counts_array
        self._speeds = _validated_speeds(speeds, counts_array.shape[1])

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def can_stack(cls, states: "list") -> bool:
        """Whether :meth:`from_states` would accept these states.

        The single source of truth for stackability: uniform states over
        one node count and one shared speed vector. The measurement
        pipeline's ``engine="auto"`` routing uses this predicate.
        """
        if not states:
            return False
        if not all(isinstance(state, UniformState) for state in states):
            return False
        first = states[0]
        return all(
            state.num_nodes == first.num_nodes
            and np.array_equal(state.speeds, first.speeds)
            for state in states[1:]
        )

    @classmethod
    def from_states(cls, states: "list[UniformState]") -> "BatchUniformState":
        """Stack scalar :class:`UniformState` objects into one batch.

        All states must be uniform states over the same node count and
        the *same* speed vector (replicas are repetitions of one
        scenario); see :meth:`can_stack`.
        """
        if not cls.can_stack(states):
            # Diagnose which requirement failed for the error message.
            if not states:
                raise ModelError("from_states needs at least one state")
            for state in states:
                if not isinstance(state, UniformState):
                    raise ModelError(
                        "from_states requires UniformState replicas, got "
                        f"{type(state).__name__}"
                    )
            first = states[0]
            for state in states[1:]:
                if state.num_nodes != first.num_nodes:
                    raise ModelError(
                        "all replicas must have the same node count"
                    )
            raise ModelError("all replicas must share one speed vector")
        counts = np.stack([state.counts for state in states], axis=0)
        return cls(counts, states[0].speeds)

    @classmethod
    def replicate(cls, state: UniformState, num_replicas: int) -> "BatchUniformState":
        """``num_replicas`` identical copies of one initial state."""
        if not isinstance(state, UniformState):
            raise ModelError("replicate requires a UniformState")
        if num_replicas < 1:
            raise ModelError(f"num_replicas must be >= 1, got {num_replicas}")
        counts = np.repeat(state.counts[None, :], num_replicas, axis=0)
        return cls(counts, state.speeds)

    def replica(self, index: int) -> UniformState:
        """Extract replica ``index`` as an independent scalar state."""
        if not 0 <= index < self.num_replicas:
            raise ModelError(
                f"replica index {index} out of range [0, {self.num_replicas - 1}]"
            )
        return UniformState(self._counts[index].copy(), self._speeds)

    def copy(self) -> "BatchUniformState":
        """Deep copy of the mutable counts matrix."""
        return BatchUniformState(self._counts.copy(), self._speeds)

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        """Number of stacked replicas ``R``."""
        return int(self._counts.shape[0])

    @property
    def num_nodes(self) -> int:
        """Number of processors ``n``."""
        return int(self._counts.shape[1])

    # ------------------------------------------------------------------
    # Raw arrays
    # ------------------------------------------------------------------
    @property
    def counts(self) -> IntArray:
        """``(R, n)`` per-replica task counts (read-only view)."""
        return _read_only_view(self._counts)

    @property
    def num_tasks(self) -> IntArray:
        """``(R,)`` task totals ``m`` per replica."""
        return self._counts.sum(axis=1)

    def _weights_rows(self, replicas: object | None) -> FloatArray:
        if replicas is None:
            counts = self._counts
        else:
            counts = self._counts[np.asarray(replicas, dtype=np.int64)]
        return counts.astype(np.float64)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_flows(
        self, replicas: object, sent: object, received: object
    ) -> None:
        """Apply one concurrent round of migrations to the given replicas.

        Parameters
        ----------
        replicas:
            Indices of the replica rows being advanced (the simulator's
            active set).
        sent / received:
            ``(len(replicas), n)`` integer matrices of tasks leaving and
            arriving per node. Task conservation (``sent`` and
            ``received`` row totals equal) and non-negativity of the
            resulting counts are enforced.
        """
        rows = np.asarray(replicas, dtype=np.int64)
        sent_array = np.asarray(sent, dtype=np.int64)
        received_array = np.asarray(received, dtype=np.int64)
        expected_shape = (rows.shape[0], self.num_nodes)
        if sent_array.shape != expected_shape or received_array.shape != expected_shape:
            raise ModelError(
                f"sent/received must have shape {expected_shape}, got "
                f"{sent_array.shape} and {received_array.shape}"
            )
        if np.any(sent_array < 0) or np.any(received_array < 0):
            raise ModelError("flow amounts must be non-negative")
        if not np.array_equal(sent_array.sum(axis=1), received_array.sum(axis=1)):
            raise ModelError(
                "task conservation violated: sent and received totals differ"
            )
        updated = self._counts[rows] - sent_array + received_array
        if np.any(updated < 0):
            raise ModelError(
                "flows drove a node's task count negative; migration "
                "sampling exceeded available tasks"
            )
        self._counts[rows] = updated

    def adjust_counts(self, replicas: object, deltas: object) -> None:
        """Add signed per-node count deltas to the given replica rows.

        The checked public entry for count mutations: unlike
        :meth:`apply_flows` the row totals may change, but counts must
        stay non-negative. It proves the delta shape, the replica range
        and row uniqueness, then writes through :meth:`_shift_counts`.
        """
        rows = np.asarray(replicas, dtype=np.int64)
        delta_array = np.asarray(deltas, dtype=np.int64)
        expected_shape = (rows.shape[0], self.num_nodes)
        if delta_array.shape != expected_shape:
            raise ModelError(
                f"deltas must have shape {expected_shape}, got {delta_array.shape}"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_replicas):
            raise ModelError("replica index out of range")
        if np.unique(rows).shape[0] != rows.shape[0]:
            # Fancy-index assignment would keep only the last duplicate's
            # delta, silently dropping the others.
            raise ModelError("duplicate replica index in adjust_counts")
        self._shift_counts(rows, delta_array)

    def _shift_counts(self, rows: IntArray, deltas: IntArray) -> None:
        """Trusted in-place write: add ``deltas`` to the leading
        ``deltas.shape[-1]`` node columns of ``rows``.

        ``deltas`` is ``(rows.size, k)`` or one ``(k,)`` delta for every
        row, with ``k <= n``. The caller has proved that ``rows`` are
        unique and in range (the compiled trace events do it in
        ``repro.scenarios.events._rows``); only the non-negativity of
        the result is checked here, before anything is written.
        """
        width = deltas.shape[-1]
        updated = self._counts[rows, :width] + deltas
        if (updated < 0).any():
            raise ModelError(
                "count deltas drove a node's task count negative"
            )
        self._counts[rows, :width] = updated

    def __repr__(self) -> str:
        return (
            f"BatchUniformState(R={self.num_replicas}, n={self.num_nodes}, "
            f"m={np.array2string(self.num_tasks, threshold=4)})"
        )


class BatchWeightedState(BatchStateBase):
    """``R`` independent weighted-task states as padded ``(R, M)`` matrices.

    Tasks are not exchangeable across weights, so unlike the uniform
    stack each task keeps its identity: row ``r`` of ``task_nodes`` /
    ``task_weights`` holds replica ``r``'s per-task locations and
    weights. Replicas may own different task counts; shorter rows are
    padded with location ``-1`` and weight ``0``, and
    :attr:`task_mask` marks the live slots. Padding never moves,
    carries no weight, and consumes no randomness in the batched
    kernels. Scenario events may punch padding holes mid-row
    (:meth:`remove_tasks`) or append live slots (:meth:`add_tasks`);
    only the *order* of a row's live slots is meaningful, and
    :meth:`compact` repacks it into a prefix without changing it.

    Parameters
    ----------
    task_nodes:
        ``(R, M)`` integer matrix; entry ``(r, l)`` is the node hosting
        replica ``r``'s task ``l``, or ``-1`` for a padding slot.
    task_weights:
        ``(R, M)`` float matrix of task weights in ``(0, 1]`` at live
        slots; padding slots must carry weight ``0``.
    speeds:
        Positive per-node speeds of length ``n``, shared by all replicas.
    """

    def __init__(self, task_nodes: object, task_weights: object, speeds: object):
        self._speeds = _validated_speeds(speeds)
        n = self._speeds.shape[0]
        nodes = np.asarray(task_nodes)
        if nodes.ndim != 2:
            raise ModelError(
                f"batch task_nodes must be 2-D (replicas, tasks), got shape "
                f"{nodes.shape}"
            )
        if nodes.shape[0] == 0:
            raise ModelError("batch task_nodes must have at least one replica")
        nodes = nodes.astype(np.int64)
        weights = np.asarray(task_weights, dtype=np.float64)
        if weights.shape != nodes.shape:
            raise ModelError(
                f"task_weights shape {weights.shape} must match task_nodes "
                f"shape {nodes.shape}"
            )
        mask = nodes >= 0
        if nodes.size and nodes.max(initial=-1) >= n:
            raise ModelError(f"task locations must lie in [-1 (padding), {n - 1}]")
        if np.any(nodes < -1):
            raise ModelError("task locations must be >= -1 (-1 marks padding)")
        live = weights[mask]
        if live.size and (np.any(live <= 0.0) or np.any(live > 1.0)):
            raise ModelError("task weights must lie in (0, 1]")
        if np.any(weights[~mask] != 0.0):
            raise ModelError("padding slots (location -1) must carry weight 0")
        # Stored writable (scenario events add/remove tasks in place);
        # the properties hand out read-only views.
        self._task_nodes = nodes.copy()
        self._task_weights = weights.copy()
        self._mask = mask.copy()
        self._node_weights = self._bincount_rows()

    def _bincount_rows(self) -> FloatArray:
        """Per-row ``W_i`` from scratch, matching the scalar bincount."""
        n = self.num_nodes
        node_weights = np.zeros((self.num_replicas, n), dtype=np.float64)
        for row in range(self.num_replicas):
            live = self._mask[row]
            node_weights[row] = np.bincount(
                self._task_nodes[row, live],
                weights=self._task_weights[row, live],
                minlength=n,
            )
        return node_weights

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def can_stack(cls, states: "list") -> bool:
        """Whether :meth:`from_states` would accept these states.

        Weighted states over one node count and one shared speed vector
        stack; task counts and weight vectors may differ per replica
        (the padded layout absorbs ragged task counts). The measurement
        pipeline's ``engine="auto"`` routing uses this predicate.
        """
        if not states:
            return False
        if not all(isinstance(state, WeightedState) for state in states):
            return False
        first = states[0]
        return all(
            state.num_nodes == first.num_nodes
            and np.array_equal(state.speeds, first.speeds)
            for state in states[1:]
        )

    @classmethod
    def from_states(cls, states: "list[WeightedState]") -> "BatchWeightedState":
        """Stack scalar :class:`WeightedState` objects into one padded batch.

        All states must share the node count and the *same* speed vector
        (replicas are repetitions of one scenario); see
        :meth:`can_stack`. Task order within each replica is preserved,
        so replica ``r``'s task ``l`` occupies slot ``(r, l)``.
        """
        if not cls.can_stack(states):
            if not states:
                raise ModelError("from_states needs at least one state")
            for state in states:
                if not isinstance(state, WeightedState):
                    raise ModelError(
                        "from_states requires WeightedState replicas, got "
                        f"{type(state).__name__}"
                    )
            first = states[0]
            for state in states[1:]:
                if state.num_nodes != first.num_nodes:
                    raise ModelError(
                        "all replicas must have the same node count"
                    )
            raise ModelError("all replicas must share one speed vector")
        max_tasks = max(state.num_tasks for state in states)
        nodes = np.full((len(states), max_tasks), -1, dtype=np.int64)
        weights = np.zeros((len(states), max_tasks), dtype=np.float64)
        for row, state in enumerate(states):
            m = state.num_tasks
            nodes[row, :m] = state.task_nodes
            weights[row, :m] = state.task_weights
        return cls(nodes, weights, states[0].speeds)

    @classmethod
    def replicate(
        cls, state: WeightedState, num_replicas: int
    ) -> "BatchWeightedState":
        """``num_replicas`` identical copies of one initial state."""
        if not isinstance(state, WeightedState):
            raise ModelError("replicate requires a WeightedState")
        if num_replicas < 1:
            raise ModelError(f"num_replicas must be >= 1, got {num_replicas}")
        return cls.from_states([state] * num_replicas)

    def replica(self, index: int) -> WeightedState:
        """Extract replica ``index`` as an independent scalar state.

        Padding slots are stripped; the scalar state owns exactly the
        replica's live tasks in their original order.
        """
        if not 0 <= index < self.num_replicas:
            raise ModelError(
                f"replica index {index} out of range [0, {self.num_replicas - 1}]"
            )
        live = self._mask[index]
        return WeightedState(
            self._task_nodes[index, live].copy(),
            self._task_weights[index, live].copy(),
            self._speeds,
        )

    def copy(self) -> "BatchWeightedState":
        """Deep copy of the mutable assignment."""
        return BatchWeightedState(
            self._task_nodes.copy(), self._task_weights, self._speeds
        )

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        """Number of stacked replicas ``R``."""
        return int(self._task_nodes.shape[0])

    @property
    def num_nodes(self) -> int:
        """Number of processors ``n``."""
        return int(self._speeds.shape[0])

    @property
    def max_tasks(self) -> int:
        """Padded task-axis width ``M = max_r m_r``."""
        return int(self._task_nodes.shape[1])

    @property
    def num_tasks(self) -> IntArray:
        """``(R,)`` live task counts ``m_r`` per replica."""
        return self._mask.sum(axis=1)

    # ------------------------------------------------------------------
    # Raw arrays
    # ------------------------------------------------------------------
    @property
    def task_nodes(self) -> IntArray:
        """``(R, M)`` per-task locations, ``-1`` at padding (read-only)."""
        return _read_only_view(self._task_nodes)

    @property
    def task_weights(self) -> FloatArray:
        """``(R, M)`` task weights, ``0`` at padding (read-only view).

        Rounds never change weights; only the scenario event APIs
        (:meth:`add_tasks` / :meth:`remove_tasks`) do.
        """
        return _read_only_view(self._task_weights)

    @property
    def task_mask(self) -> np.ndarray:
        """``(R, M)`` boolean mask of live (non-padding) task slots
        (read-only view)."""
        return _read_only_view(self._mask)

    @property
    def total_task_weight(self) -> FloatArray:
        """``(R,)`` total weight from the immutable per-task weights.

        Unlike :attr:`total_weight` (which sums the incrementally
        maintained node-weight matrix and may drift by floating-point
        round-off), this is *exactly* invariant across rounds: only
        locations change, never the weights themselves. The equivalence
        test harness asserts conservation against this quantity.
        """
        return self._task_weights.sum(axis=1)

    def _weights_rows(self, replicas: object | None) -> FloatArray:
        if replicas is None:
            return self._node_weights
        return self._node_weights[np.asarray(replicas, dtype=np.int64)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_moves(
        self, replicas: object, tasks: object, destinations: object
    ) -> None:
        """Relocate tasks across the stack simultaneously.

        Parameters
        ----------
        replicas / tasks / destinations:
            Aligned 1-D arrays: move task slot ``tasks[k]`` of replica
            ``replicas[k]`` to node ``destinations[k]``. Each (replica,
            task) pair may appear at most once per round; padding slots
            cannot move. The per-replica node weights are updated
            incrementally in slot order, matching the scalar
            :meth:`~repro.model.state.WeightedState.apply_moves`
            accumulation order.
        """
        rows = np.asarray(replicas, dtype=np.int64)
        cols = np.asarray(tasks, dtype=np.int64)
        dst = np.asarray(destinations, dtype=np.int64)
        if not (rows.shape == cols.shape == dst.shape) or rows.ndim != 1:
            raise ModelError("replicas, tasks, destinations must align (1-D)")
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self.num_replicas:
            raise ModelError("replica index out of range")
        if cols.min() < 0 or cols.max() >= self.max_tasks:
            raise ModelError("task slot out of range")
        if not np.all(self._mask[rows, cols]):
            raise ModelError("cannot move a padding task slot")
        flat = rows * self.max_tasks + cols
        # The kernels emit moves in row-major order, where strictly
        # increasing flat indices already prove uniqueness; other
        # orders fall back to the sort.
        if not np.all(flat[1:] > flat[:-1]) and (
            np.unique(flat).shape[0] != flat.shape[0]
        ):
            raise ModelError("a task may move at most once per round")
        if dst.min() < 0 or dst.max() >= self.num_nodes:
            raise ModelError("destination node out of range")
        weights = self._task_weights[rows, cols]
        sources = self._task_nodes[rows, cols]
        flat_weights = self._node_weights.reshape(-1)
        np.subtract.at(flat_weights, rows * self.num_nodes + sources, weights)
        np.add.at(flat_weights, rows * self.num_nodes + dst, weights)
        self._task_nodes[rows, cols] = dst
        # Guard against floating-point drift in the incremental W_i.
        if float(self._node_weights.min(initial=0.0)) < -1e-9:
            raise ModelError("node weight went negative")

    def add_tasks(self, replicas: object, nodes: object, weights: object) -> None:
        """Append new tasks across the stack (scenario arrivals).

        ``replicas`` / ``nodes`` / ``weights`` are aligned 1-D arrays:
        give replica ``replicas[k]`` a new task of weight ``weights[k]``
        on node ``nodes[k]``. Each replica's new tasks land in slots
        *after* its last live slot (in input order), growing the padded
        task axis when needed — so each replica's live tasks stay in
        arrival order, the order the weighted kernels consume randomness
        in, on a stack of any height.
        """
        rows = np.asarray(replicas, dtype=np.int64)
        dst = np.asarray(nodes, dtype=np.int64)
        new_weights = np.asarray(weights, dtype=np.float64)
        if not (rows.shape == dst.shape == new_weights.shape) or rows.ndim != 1:
            raise ModelError("replicas, nodes, weights must align (1-D)")
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self.num_replicas:
            raise ModelError("replica index out of range")
        if dst.min() < 0 or dst.max() >= self.num_nodes:
            raise ModelError(f"task locations must lie in [0, {self.num_nodes - 1}]")
        if np.any(new_weights <= 0.0) or np.any(new_weights > 1.0):
            raise ModelError("task weights must lie in (0, 1]")
        num_replicas = self.num_replicas
        width = self.max_tasks
        per_row = np.bincount(rows, minlength=num_replicas)
        if width:
            has_live = self._mask.any(axis=1)
            live_end = np.where(
                has_live, width - np.argmax(self._mask[:, ::-1], axis=1), 0
            ).astype(np.int64)
        else:
            live_end = np.zeros(num_replicas, dtype=np.int64)
        needed = int((live_end + per_row).max(initial=0))
        if needed > width:
            grow = needed - width
            self._task_nodes = np.concatenate(
                [
                    self._task_nodes,
                    np.full((num_replicas, grow), -1, dtype=np.int64),
                ],
                axis=1,
            )
            self._task_weights = np.concatenate(
                [self._task_weights, np.zeros((num_replicas, grow))], axis=1
            )
            self._mask = np.concatenate(
                [self._mask, np.zeros((num_replicas, grow), dtype=bool)], axis=1
            )
        # Rank of each new task within its replica, in input order.
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        group_sizes = per_row[per_row > 0]
        group_starts = np.repeat(
            np.concatenate([[0], np.cumsum(group_sizes)[:-1]]), group_sizes
        )
        rank_sorted = np.arange(rows.shape[0], dtype=np.int64) - group_starts
        cols = np.empty(rows.shape[0], dtype=np.int64)
        cols[order] = live_end[sorted_rows] + rank_sorted
        self._task_nodes[rows, cols] = dst
        self._task_weights[rows, cols] = new_weights
        self._mask[rows, cols] = True
        flat_weights = self._node_weights.reshape(-1)
        np.add.at(flat_weights, rows * self.num_nodes + dst, new_weights)

    def remove_tasks(self, replicas: object, tasks: object) -> None:
        """Delete task slots across the stack (scenario departures).

        ``replicas`` / ``tasks`` are aligned 1-D arrays naming live
        (replica, slot) pairs; each becomes a padding slot (location
        ``-1``, weight ``0``). Surviving tasks keep their slots, hence
        their relative order.
        """
        rows = np.asarray(replicas, dtype=np.int64)
        cols = np.asarray(tasks, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ModelError("replicas and tasks must align (1-D)")
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self.num_replicas:
            raise ModelError("replica index out of range")
        if cols.min() < 0 or cols.max() >= self.max_tasks:
            raise ModelError("task slot out of range")
        if not np.all(self._mask[rows, cols]):
            raise ModelError("cannot remove a padding task slot")
        flat = rows * self.max_tasks + cols
        if np.unique(flat).shape[0] != flat.shape[0]:
            raise ModelError("duplicate (replica, task) pair in removal")
        weights = self._task_weights[rows, cols]
        sources = self._task_nodes[rows, cols]
        flat_weights = self._node_weights.reshape(-1)
        np.subtract.at(flat_weights, rows * self.num_nodes + sources, weights)
        self._task_nodes[rows, cols] = -1
        self._task_weights[rows, cols] = 0.0
        self._mask[rows, cols] = False
        # Guard against floating-point drift in the decremented W_i.
        if float(self._node_weights.min(initial=0.0)) < -1e-9:
            raise ModelError("node weight went negative")
        np.maximum(self._node_weights, 0.0, out=self._node_weights)

    def compact(self) -> None:
        """Repack live tasks into prefix slots and shrink the task axis.

        Departures leave padding holes and arrivals grow ``M``; long
        churn scenarios would otherwise accumulate unbounded padding.
        Compaction preserves each replica's live-task *order* (the only
        thing the spawned kernels' randomness consumption depends on),
        so under ``rng_policy="spawned"`` it is observationally neutral:
        no randomness is consumed and trajectories are unchanged. The
        counter kernel addresses its words by *slot*, so compaction
        there changes which word each task draws — deterministically,
        but pathwise; same-seed counter runs compact at the same rounds
        and stay reproducible. Between compactions the spawned weighted
        round runs on the stack with holes through its flat live-task
        layout (see ``SelfishWeightedProtocol.execute_round_batch``).
        """
        live_counts = self._mask.sum(axis=1)
        new_width = int(live_counts.max(initial=0))
        if new_width == self.max_tasks:
            return
        # Stable argsort of ~mask floats live slots to the front, in order.
        order = np.argsort(~self._mask, axis=1, kind="stable")[:, :new_width]
        self._task_nodes = np.take_along_axis(self._task_nodes, order, axis=1)
        self._task_weights = np.take_along_axis(self._task_weights, order, axis=1)
        self._mask = np.take_along_axis(self._mask, order, axis=1)

    def rebuild_node_weights(self) -> None:
        """Recompute ``W_i`` from scratch (kills accumulated FP drift)."""
        self._node_weights = self._bincount_rows()

    def __repr__(self) -> str:
        return (
            f"BatchWeightedState(R={self.num_replicas}, n={self.num_nodes}, "
            f"m={np.array2string(self.num_tasks, threshold=4)}, "
            f"W={np.array2string(self.total_task_weight, precision=3, threshold=4)})"
        )
