"""Initial task placements.

Convergence bounds are worst-case over initial states; the experiments use
several canonical starting distributions:

* ``all_on_one`` — every task on one node. On the *slowest* node this
  maximizes the initial potential (``Psi_0(X_0) <= m^2``, used in the
  proof of Lemma 3.15), making it the canonical adversarial start.
* ``random`` — each task on an independent uniform node.
* ``proportional`` — near-balanced w.r.t. speeds (small initial
  potential), useful for testing the endgame of convergence in isolation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlacementError
from repro.types import IntArray, SeedLike
from repro.utils.rng import make_rng
from repro.utils.validation import check_array_1d, check_integer

__all__ = [
    "all_on_one_placement",
    "random_placement",
    "proportional_placement",
    "adversarial_placement",
    "counts_from_assignment",
    "place_weighted_all_on_one",
    "place_weighted_random",
    "place_weighted_proportional",
]

#: Tasks drawn per ``integers`` call in :func:`random_placement`.
PLACEMENT_CHUNK = 1 << 22


def all_on_one_placement(n: int, m: int, node: int = 0) -> IntArray:
    """All ``m`` tasks on ``node``; returns per-node counts."""
    n = check_integer(n, "n", minimum=1)
    m = check_integer(m, "m", minimum=0)
    node = check_integer(node, "node", minimum=0)
    if node >= n:
        raise PlacementError(f"node {node} out of range [0, {n - 1}]")
    counts = np.zeros(n, dtype=np.int64)
    counts[node] = m
    return counts


def adversarial_placement(speeds: object, m: int) -> IntArray:
    """All tasks on the slowest processor (maximal initial potential)."""
    speeds_array = check_array_1d(speeds, "speeds")
    m = check_integer(m, "m", minimum=0)
    slowest = int(np.argmin(speeds_array))
    return all_on_one_placement(speeds_array.shape[0], m, node=slowest)


def random_placement(n: int, m: int, seed: SeedLike = None) -> IntArray:
    """Each task placed on an independent uniformly random node.

    Drawn and counted in chunks of :data:`PLACEMENT_CHUNK`, so memory is
    bounded at any ``m``. Consecutive ``integers`` calls read the stream
    as one ``integers(0, n, size=m)`` call does: the counts are equal.
    """
    n = check_integer(n, "n", minimum=1)
    m = check_integer(m, "m", minimum=0)
    rng = make_rng(seed)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, m, PLACEMENT_CHUNK):
        size = min(PLACEMENT_CHUNK, m - start)
        counts += np.bincount(rng.integers(0, n, size=size), minlength=n)
    return counts


def proportional_placement(speeds: object, m: int) -> IntArray:
    """Counts proportional to speeds, rounded with exact total ``m``.

    Uses largest-remainder rounding so the result sums to ``m`` and every
    count is within one of the ideal ``m * s_i / S``.
    """
    speeds_array = check_array_1d(speeds, "speeds")
    if np.any(speeds_array <= 0):
        raise PlacementError("speeds must be positive")
    m = check_integer(m, "m", minimum=0)
    ideal = m * speeds_array / speeds_array.sum()
    floors = np.floor(ideal).astype(np.int64)
    remainder = int(m - floors.sum())
    if remainder:
        fractional = ideal - floors
        top_up = np.argsort(-fractional)[:remainder]
        floors[top_up] += 1
    return floors


def counts_from_assignment(assignment: object, n: int) -> IntArray:
    """Per-node counts from a per-task node assignment array."""
    tasks = np.asarray(assignment, dtype=np.int64)
    n = check_integer(n, "n", minimum=1)
    if tasks.size and (tasks.min() < 0 or tasks.max() >= n):
        raise PlacementError(f"assignments must lie in [0, {n - 1}]")
    return np.bincount(tasks, minlength=n).astype(np.int64)


def place_weighted_all_on_one(num_tasks: int, node: int = 0) -> IntArray:
    """Per-task locations: every task on ``node``."""
    num_tasks = check_integer(num_tasks, "num_tasks", minimum=0)
    node = check_integer(node, "node", minimum=0)
    return np.full(num_tasks, node, dtype=np.int64)


def place_weighted_random(num_tasks: int, n: int, seed: SeedLike = None) -> IntArray:
    """Per-task locations drawn uniformly at random."""
    num_tasks = check_integer(num_tasks, "num_tasks", minimum=0)
    n = check_integer(n, "n", minimum=1)
    rng = make_rng(seed)
    return rng.integers(0, n, size=num_tasks).astype(np.int64)


def place_weighted_proportional(
    task_weights: object, speeds: object, seed: SeedLike = None
) -> IntArray:
    """Greedy near-balanced placement of weighted tasks.

    Tasks are placed heaviest-first onto the node with the smallest
    prospective load — the classic LPT heuristic generalized to speeds.
    Produces a low-potential start for endgame experiments.
    """
    weights = check_array_1d(task_weights, "task_weights")
    speeds_array = check_array_1d(speeds, "speeds")
    if np.any(speeds_array <= 0):
        raise PlacementError("speeds must be positive")
    order = np.argsort(-weights)
    node_weight = np.zeros(speeds_array.shape[0], dtype=np.float64)
    locations = np.zeros(weights.shape[0], dtype=np.int64)
    for task in order:
        prospective = (node_weight + weights[task]) / speeds_array
        target = int(np.argmin(prospective))
        locations[task] = target
        node_weight[target] += weights[task]
    return locations
