"""Load states: the assignment of tasks to processors.

A state ``x`` is the distribution of tasks among processors (paper
Section 2). Two concrete representations:

* :class:`UniformState` — per-node task *counts* ``w_i(x)`` (uniform tasks
  are anonymous, so counts are a sufficient statistic);
* :class:`WeightedState` — a per-task location array plus per-task
  weights, with per-node total weights ``W_i(x)`` maintained incrementally.

Both expose the derived quantities used throughout the paper: loads
``l_i = W_i / s_i``, total capacity ``S``, the balanced target vector
``wbar = (W/S) * s`` and the deviation ``e(x) = w(x) - wbar`` with
``sum_i e_i = 0``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ModelError, SpeedError
from repro.types import FloatArray, IntArray
from repro.utils.validation import check_array_1d

if TYPE_CHECKING:
    from repro.model.batch import BatchUniformState, BatchWeightedState

__all__ = ["LoadStateBase", "UniformState", "WeightedState"]


def _validated_speeds(speeds: object, n: int | None = None) -> FloatArray:
    array = check_array_1d(speeds, "speeds", length=n)
    if array.size == 0:
        raise SpeedError("speed vector must be non-empty")
    if np.any(array <= 0):
        raise SpeedError("all speeds must be positive")
    array = array.copy()
    array.setflags(write=False)
    return array


def _validated_counts(counts: object, n: int | None = None) -> IntArray:
    """Coerce ``counts`` to a non-negative 1-D int64 array."""
    counts_array = np.asarray(counts)
    if counts_array.ndim != 1:
        raise ModelError(f"counts must be 1-D, got shape {counts_array.shape}")
    if counts_array.size == 0:
        raise ModelError("counts must be non-empty")
    if not np.issubdtype(counts_array.dtype, np.integer):
        rounded = np.rint(np.asarray(counts_array, dtype=np.float64))
        if not np.allclose(counts_array, rounded):
            raise ModelError("counts must be integers")
        counts_array = rounded
    counts_array = counts_array.astype(np.int64)
    if np.any(counts_array < 0):
        raise ModelError("counts must be non-negative")
    if n is not None and counts_array.shape[0] != n:
        raise ModelError(f"counts must have length {n}, got {counts_array.shape[0]}")
    return counts_array


def _read_only_view(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class LoadStateBase:
    """Common derived quantities for load states.

    Subclasses must maintain ``_speeds`` and implement
    :attr:`node_weights`.
    """

    _speeds: FloatArray

    @property
    def speeds(self) -> FloatArray:
        """Per-processor speeds (read-only view)."""
        return _read_only_view(self._speeds)

    @property
    def num_nodes(self) -> int:
        """Number of processors ``n``."""
        return int(self._speeds.shape[0])

    @property
    def node_weights(self) -> FloatArray:
        """Per-node total weight ``W_i(x)`` (counts in the uniform case)."""
        raise NotImplementedError

    @property
    def total_weight(self) -> float:
        """``W = sum_i W_i(x)``; invariant over time (tasks are conserved)."""
        return float(self.node_weights.sum())

    @property
    def total_speed(self) -> float:
        """Total capacity ``S = sum_i s_i``."""
        return float(self._speeds.sum())

    @property
    def loads(self) -> FloatArray:
        """Per-node load ``l_i = W_i / s_i``."""
        return self.node_weights / self._speeds

    @property
    def average_load(self) -> float:
        """Network-wide average load ``W / S`` (paper's ``m/S``)."""
        return self.total_weight / self.total_speed

    @property
    def target_weights(self) -> FloatArray:
        """Balanced weight vector ``wbar = (W/S) * s``."""
        return self.average_load * self._speeds

    @property
    def deviation(self) -> FloatArray:
        """Deviation ``e(x) = w(x) - wbar``; sums to zero."""
        return self.node_weights - self.target_weights

    @property
    def max_load_difference(self) -> float:
        """``L_Delta(x) = max_i |e_i / s_i|`` (Definition 3.4)."""
        return float(np.abs(self.deviation / self._speeds).max())

    def copy(self) -> "LoadStateBase":
        """Deep copy of the mutable assignment."""
        raise NotImplementedError


class UniformState(LoadStateBase):
    """State for uniform unit-weight tasks: per-node counts.

    Parameters
    ----------
    counts:
        Non-negative integer task counts per node.
    speeds:
        Positive per-node speeds (same length).
    """

    def __init__(self, counts: object, speeds: object):
        counts_array = _validated_counts(counts)
        self._counts = counts_array
        self._speeds = _validated_speeds(speeds, counts_array.shape[0])

    @property
    def counts(self) -> IntArray:
        """Per-node integer task counts ``w_i(x)`` (read-only view)."""
        return _read_only_view(self._counts)

    @property
    def node_weights(self) -> FloatArray:
        return self._counts.astype(np.float64)

    @property
    def num_tasks(self) -> int:
        """Total number of tasks ``m``."""
        return int(self._counts.sum())

    def apply_moves(self, sources: object, destinations: object, amounts: object) -> None:
        """Move ``amounts[k]`` tasks from ``sources[k]`` to ``destinations[k]``.

        All moves are applied simultaneously (the protocol is concurrent),
        so a node may send and receive within the same call. Raises if any
        node would go negative — that indicates the caller sampled more
        migrants than tasks present, which the protocol's probabilities
        make impossible.
        """
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(destinations, dtype=np.int64)
        qty = np.asarray(amounts, dtype=np.int64)
        if not (src.shape == dst.shape == qty.shape):
            raise ModelError("sources, destinations, amounts must align")
        if np.any(qty < 0):
            raise ModelError("move amounts must be non-negative")
        np.subtract.at(self._counts, src, qty)
        np.add.at(self._counts, dst, qty)
        if np.any(self._counts < 0):
            raise ModelError(
                "moves drove a node's task count negative; "
                "migration sampling exceeded available tasks"
            )

    def _assign(self, stack: "BatchUniformState") -> None:
        """Take row 0 of a one-row stack: a scalar event's result."""
        self._counts[:] = stack.counts[0]
        self._speeds = stack.speeds

    def copy(self) -> "UniformState":
        return UniformState(self._counts.copy(), self._speeds)

    def __repr__(self) -> str:
        return (
            f"UniformState(n={self.num_nodes}, m={self.num_tasks}, "
            f"L_delta={self.max_load_difference:.3f})"
        )


class WeightedState(LoadStateBase):
    """State for weighted tasks: per-task locations and weights.

    Parameters
    ----------
    task_nodes:
        ``task_nodes[l]`` is the node currently hosting task ``l``.
    task_weights:
        Task weights ``w_l in (0, 1]``.
    speeds:
        Positive per-node speeds.
    """

    def __init__(self, task_nodes: object, task_weights: object, speeds: object):
        self._speeds = _validated_speeds(speeds)
        nodes = np.asarray(task_nodes, dtype=np.int64)
        if nodes.ndim != 1:
            raise ModelError("task_nodes must be 1-D")
        weights = check_array_1d(task_weights, "task_weights", length=nodes.shape[0])
        if weights.size and (np.any(weights <= 0.0) or np.any(weights > 1.0)):
            raise ModelError("task weights must lie in (0, 1]")
        n = self._speeds.shape[0]
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
            raise ModelError(f"task locations must lie in [0, {n - 1}]")
        self._task_nodes = nodes.copy()
        self._task_weights = weights.copy()
        self._task_weights.setflags(write=False)
        self._node_weights = np.bincount(
            nodes, weights=weights, minlength=n
        ).astype(np.float64)

    @property
    def task_nodes(self) -> IntArray:
        """Current location of each task (read-only view)."""
        return _read_only_view(self._task_nodes)

    @property
    def task_weights(self) -> FloatArray:
        """Immutable per-task weights."""
        return self._task_weights

    @property
    def node_weights(self) -> FloatArray:
        return self._node_weights

    @property
    def num_tasks(self) -> int:
        """Total number of tasks ``m``."""
        return int(self._task_nodes.shape[0])

    def tasks_on(self, node: int) -> IntArray:
        """Indices of tasks currently hosted on ``node`` (``x(i)``)."""
        if not 0 <= node < self.num_nodes:
            raise ModelError(f"node {node} out of range")
        return np.flatnonzero(self._task_nodes == node)

    def apply_moves(self, task_indices: object, destinations: object) -> None:
        """Relocate the given tasks to their destinations simultaneously."""
        tasks = np.asarray(task_indices, dtype=np.int64)
        dst = np.asarray(destinations, dtype=np.int64)
        if tasks.shape != dst.shape:
            raise ModelError("task_indices and destinations must align")
        if tasks.size == 0:
            return
        if tasks.min() < 0 or tasks.max() >= self.num_tasks:
            raise ModelError("task index out of range")
        if np.unique(tasks).shape[0] != tasks.shape[0]:
            raise ModelError("a task may move at most once per round")
        if dst.min() < 0 or dst.max() >= self.num_nodes:
            raise ModelError("destination node out of range")
        weights = self._task_weights[tasks]
        np.subtract.at(self._node_weights, self._task_nodes[tasks], weights)
        np.add.at(self._node_weights, dst, weights)
        self._task_nodes[tasks] = dst
        # Guard against floating-point drift in the incremental W_i.
        # (Plain min, not abs().min(): the absolute value is always
        # non-negative, which made the previous guard unable to fire.)
        if float(self._node_weights.min(initial=0.0)) < -1e-9:
            raise ModelError("node weight went negative")

    def _assign(self, stack: "BatchWeightedState") -> None:
        """Take row 0 of a one-row stack: a scalar event's result.

        The live tasks keep their order and ``W_i`` is copied bit for
        bit, not recomputed.
        """
        live = stack.task_mask[0]
        self._task_nodes = stack.task_nodes[0, live]
        weights = stack.task_weights[0, live]
        weights.setflags(write=False)
        self._task_weights = weights
        self._node_weights[:] = stack.node_weights[0]
        self._speeds = stack.speeds

    def rebuild_node_weights(self) -> None:
        """Recompute ``W_i`` from scratch (kills accumulated FP drift)."""
        self._node_weights = np.bincount(
            self._task_nodes, weights=self._task_weights, minlength=self.num_nodes
        ).astype(np.float64)

    def copy(self) -> "WeightedState":
        return WeightedState(self._task_nodes.copy(), self._task_weights, self._speeds)

    def __repr__(self) -> str:
        return (
            f"WeightedState(n={self.num_nodes}, m={self.num_tasks}, "
            f"W={self.total_weight:.3f})"
        )
