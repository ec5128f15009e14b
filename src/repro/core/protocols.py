"""The selfish load-balancing protocols.

* :class:`SelfishUniformProtocol` — Algorithm 1 of the paper: uniform
  tasks on machines with speeds. Rounds are sampled *exactly* from the
  protocol's distribution: for each node the vector of per-neighbour
  migrant counts is a multinomial, drawn via the binomial chain rule in
  ``O(Delta)`` vectorized steps.
* :class:`SelfishWeightedProtocol` — Algorithm 2: weighted tasks with the
  weight-oblivious migration condition ``l_i - l_j > 1/s_j``. Two
  probability rules: ``"flow"`` (Definition 4.1, the form the analysis
  uses; the default) and ``"pseudocode"`` (the literal printed rule
  ``deg(i)/d_ij * (W_i - W_j) / (2 alpha W_i)``, which coincides with the
  flow rule for uniform speeds).
* :class:`PerTaskThresholdProtocol` — reconstruction of the weighted-task
  protocol of [6], where task ``l`` migrates only if
  ``l_i - l_j > w_l / s_j`` (its *own* improvement condition). The paper
  deviates from this rule; we keep it as the comparison baseline. [6]'s
  exact migration probability is not restated in this paper, so we use
  the same flow-style probability as Algorithm 2 — the comparison then
  isolates the effect of the migration *condition*.

All protocols mutate the state in place and return a
:class:`RoundSummary`. Decisions within a round are based on the loads at
the *start* of the round (the protocol is concurrent).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.flows import ELIGIBILITY_TOLERANCE, default_alpha
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.model.state import LoadStateBase, UniformState, WeightedState
from repro.types import FloatArray, IntArray
from repro.utils.rng import StreamLayout, as_stream_layout
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.model.batch import BatchUniformState, BatchWeightedState

__all__ = [
    "RoundSummary",
    "BatchRoundSummary",
    "Protocol",
    "SelfishUniformProtocol",
    "SelfishWeightedProtocol",
    "PerTaskThresholdProtocol",
    "GRAPH_CACHE_CAPACITY",
]

#: Maximum number of live graphs a protocol keeps CSR/dij caches for.
#: Beyond this the least-recently-used entry is evicted (topology
#: scenarios cycle through derived graphs; sweeps through sizes).
GRAPH_CACHE_CAPACITY = 8


@dataclass(frozen=True)
class RoundSummary:
    """Outcome of one protocol round.

    Attributes
    ----------
    tasks_moved:
        Number of tasks that migrated this round.
    weight_moved:
        Total weight that migrated (equals ``tasks_moved`` for uniform
        tasks).
    saturated:
        True when some migration probability had to be clipped to keep a
        valid distribution. Never happens for ``alpha >= 4 s_max``
        (guaranteed by the analysis); can happen in ablations with an
        aggressive ``alpha``.
    """

    tasks_moved: int
    weight_moved: float
    saturated: bool


@dataclass(frozen=True)
class BatchRoundSummary:
    """Outcome of one batched protocol round over a replica stack.

    All arrays are aligned with the replica axis (length ``R``); inactive
    replicas report zero movement.
    """

    tasks_moved: IntArray
    weight_moved: FloatArray
    saturated: np.ndarray


class _GraphCache:
    """Per-graph precomputed arrays shared across rounds.

    ``csr_rows[k]`` is the source node of CSR slot ``k``; ``dij_csr[k]``
    is ``max(deg(i), deg(j))`` for that directed edge; ``nodes_by_slot``
    lists, for each neighbour position ``slot``, the nodes having at least
    ``slot + 1`` neighbours; ``slot_in_row[k]`` is the neighbour position
    of CSR slot ``k`` within its source node's adjacency list (used by the
    batched kernel to scatter per-slot probabilities into the padded
    ``(n, Delta)`` layout); ``deg_float`` / ``degm1`` are per-node degree
    lookups pre-cast for the counter kernel's fused draw (``degm1`` keeps
    ``-1`` at isolated nodes — the fused draw's remainder then lands at
    exactly ``1.0``, which no clipped probability can exceed, so tasks on
    isolated nodes never migrate without needing a branch).
    """

    def __init__(self, graph: Graph):
        degrees = graph.degrees
        self.csr_rows = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), degrees
        )
        self.dij_csr = np.maximum(
            degrees[self.csr_rows], degrees[graph.indices]
        ).astype(np.float64)
        self.nodes_by_slot = [
            np.flatnonzero(degrees > slot) for slot in range(graph.max_degree)
        ]
        self.slot_in_row = (
            np.arange(self.csr_rows.shape[0], dtype=np.int64)
            - graph.indptr[self.csr_rows]
        )
        self.deg_float = degrees.astype(np.float64)
        self.degm1 = degrees.astype(np.int64) - 1
        self.has_isolated = bool(np.any(degrees == 0))


class _Workspace:
    """Per-protocol scratch buffers that rounds reuse.

    One flat buffer per dtype, grown on demand; :meth:`blocks` hands out
    contiguous views of its prefix. A kernel that writes its full-stack
    temporaries into these (``out=`` ufuncs, ``np.copyto``) allocates
    nothing of that size per round, so the allocator cannot trim and
    regrow the heap between rounds — a minor page fault per touched page
    when it does. The views stay valid until the next :meth:`blocks`
    call for the same dtype, so none may outlive the round, and a
    protocol instance runs one round at a time: give each thread its own.
    """

    def __init__(self) -> None:
        self._buffers: dict[np.dtype, np.ndarray] = {}

    def blocks(
        self, dtype: type[np.generic], count: int, shape: tuple[int, ...]
    ) -> list[np.ndarray]:
        """``count`` disjoint, uninitialised ``shape`` views of one buffer."""
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buffer = self._buffers.get(dtype)
        if buffer is None or buffer.size < count * size:
            buffer = np.empty(count * size, dtype=dtype)
            self._buffers[dtype] = buffer
        return [
            buffer[k * size : (k + 1) * size].reshape(shape) for k in range(count)
        ]


class Protocol:
    """Base class: one concurrent round of selfish migrations.

    Parameters
    ----------
    alpha:
        Convergence factor; ``None`` resolves to ``4 s_max`` per state
        (``default_alpha``). Theorem 1.2 runs pass ``4 s_max / eps_gran``.
    """

    name: str = "protocol"

    #: Whether the protocol has a batched kernel
    #: (:meth:`execute_round_batch`) the ensemble engine may route
    #: through.
    supports_batch: bool = False

    #: Whether the batched kernel samples the *identical* law as the
    #: scalar kernel even when migration probabilities clip (ablation
    #: ``alpha < 4 s_max``). When False, ``engine="auto"`` keeps clipped
    #: runs on the scalar reference.
    batch_matches_clipped_law: bool = False

    #: Whether the batched kernel's counter-layout draw sites are
    #: addressed by *global replica index* (``site_uniforms``) rather
    #: than whole-stack blocks (``site``). Shardable kernels reproduce a
    #: replica window's monolithic counter streams exactly, so
    #: counter-policy ensembles with deterministic schedules may split
    #: across workers; whole-stack sites (e.g. the uniform kernel's
    #: multinomial) consume words data-dependently and cannot.
    counter_shardable: bool = False

    @classmethod
    def batch_state_class(cls) -> type | None:
        """The replica-stack state type the batched kernel advances.

        ``None`` when the protocol has no batched kernel. The
        measurement pipeline uses this (together with the class's
        ``can_stack``) to decide whether repetitions can be stacked.
        """
        return None

    def __init__(self, alpha: float | None = None):
        if alpha is not None:
            alpha = check_positive(alpha, "alpha")
        self._alpha = alpha
        # Keyed by the graph object itself (weakly): keying by id(graph)
        # is unsound because a garbage-collected graph's id can be reused
        # by a new, structurally different graph, which would then be
        # served the stale cache's dij/CSR arrays. ``_last`` is an
        # identity fast path for the per-round lookup in single-graph
        # simulation loops (a weak ref, so it cannot resurrect ids).
        self._reset_caches()

    def _reset_caches(self) -> None:
        """Empty graph caches and workspace (built fresh after unpickling)."""
        self._cache: "weakref.WeakKeyDictionary[Graph, _GraphCache]" = (
            weakref.WeakKeyDictionary()
        )
        # Recency order for LRU eviction: weak refs, least recent first.
        self._cache_order: list[weakref.ref] = []
        self._last: tuple[weakref.ref, _GraphCache] | None = None
        self._workspace = _Workspace()

    def __getstate__(self) -> dict:
        # Caches and scratch buffers are derived state: weak references
        # do not pickle, and the buffers would only bloat the payload.
        state = self.__dict__.copy()
        for key in ("_cache", "_cache_order", "_last", "_workspace"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_caches()

    def resolve_alpha(self, state: LoadStateBase) -> float:
        """The alpha used for this state (explicit or ``4 s_max``)."""
        if self._alpha is not None:
            return self._alpha
        return default_alpha(float(state.speeds.max()))

    def _graph_cache(self, graph: Graph) -> _GraphCache:
        last = self._last
        if last is not None and last[0]() is graph:
            self._touch(graph)
            return last[1]
        cache = self._cache.get(graph)
        if cache is None:
            cache = _GraphCache(graph)
            # Keep at most GRAPH_CACHE_CAPACITY graphs cached; experiments
            # sweep sizes and topology scenarios cycle derived graphs.
            # Evict exactly the least-recently-used live entry — clearing
            # everything would rebuild every CSR/dij cache each round when
            # more than `capacity` graphs stay alive simultaneously. (Dead
            # graphs still drop out automatically via the weak keys.)
            if len(self._cache) >= GRAPH_CACHE_CAPACITY:
                self._evict_lru()
            self._cache[graph] = cache
        self._touch(graph)
        self._last = (weakref.ref(graph), cache)
        return cache

    def _touch(self, graph: Graph) -> None:
        """Move ``graph`` to the most-recent end of the LRU order."""
        order = self._cache_order
        for position in range(len(order) - 1, -1, -1):
            obj = order[position]()
            if obj is None:
                del order[position]
            elif obj is graph or obj == graph:
                order.append(order.pop(position))
                return
        order.append(weakref.ref(graph))

    def _evict_lru(self) -> None:
        """Drop the single least-recently-used live cache entry."""
        order = self._cache_order
        while order:
            obj = order[0]()
            if obj is None:
                # Already collected; the weak dict dropped it too.
                del order[0]
                continue
            del order[0]
            self._cache.pop(obj, None)
            return

    def execute_round(
        self, state: LoadStateBase, graph: Graph, rng: np.random.Generator
    ) -> RoundSummary:
        """Execute one concurrent round, mutating ``state``."""
        raise NotImplementedError

    def _check_graph(self, state: LoadStateBase, graph: Graph) -> None:
        if graph.num_vertices != state.num_nodes:
            raise ProtocolError(
                f"graph has {graph.num_vertices} vertices but state has "
                f"{state.num_nodes} nodes"
            )


def _csr_migration_probabilities(
    loads: FloatArray,
    weights: np.ndarray,
    speeds: FloatArray,
    graph: Graph,
    cache: _GraphCache,
    alpha: float,
) -> FloatArray:
    """Algorithm 1's per-CSR-slot probability that a single task on
    ``csr_rows[k]`` chooses slot ``k``'s neighbour *and* migrates there.

    ``q_k = (l_i - l_j) / (alpha * d_ij * (1/s_i + 1/s_j) * W_i)`` when the
    migration condition ``l_i - l_j > 1/s_j`` holds, else 0. Summing
    ``q_k * W_i`` over a node's slots recovers the expected outgoing flow.
    ``loads`` and ``weights`` are ``(..., n)`` and the result is
    ``(..., nnz)``: the batched kernel passes a leading replica axis.
    """
    src = cache.csr_rows
    dst = graph.indices
    gain = loads[..., src] - loads[..., dst]
    w_src = weights[..., src]
    eligible = gain > 1.0 / speeds[dst] + ELIGIBILITY_TOLERANCE
    inv_rate = alpha * cache.dij_csr * (1.0 / speeds[src] + 1.0 / speeds[dst])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(eligible & (w_src > 0), gain / (inv_rate * w_src), 0.0)


class SelfishUniformProtocol(Protocol):
    """Algorithm 1: uniform tasks, machines with speeds.

    Each task on node ``i`` picks a neighbour ``j`` u.a.r. and, when
    ``l_i - l_j > 1/s_j``, migrates with probability
    ``p_ij = deg(i)/d_ij * (l_i - l_j) / (alpha (1/s_i + 1/s_j) W_i)``.

    Sampling: tasks on a node are exchangeable, so the per-neighbour
    migrant counts follow ``Multinomial(w_i; q_i1, ..., q_ik, stay)`` with
    ``q_ij = p_ij / deg(i)``. We draw that multinomial via the binomial
    chain rule, vectorized over all nodes for each neighbour slot, which
    is exact and costs ``O(Delta)`` numpy calls per round.

    The batched kernel (:meth:`execute_round_batch`) advances a whole
    :class:`~repro.model.batch.BatchUniformState` replica stack per call:
    the probability math vectorizes over ``replicas x nodes``, and each
    replica's migrant counts are drawn with a single batched
    ``Generator.multinomial`` call over its ``(n, Delta + 1)`` probability
    matrix — the same multinomial law as the scalar chain rule, so both
    kernels induce exactly the same per-round migration distribution
    (they differ pathwise because they consume randomness differently).
    """

    name = "algorithm1"

    #: The batched engine may route this protocol through
    #: :meth:`execute_round_batch`.
    supports_batch = True

    @classmethod
    def batch_state_class(cls) -> type:
        from repro.model.batch import BatchUniformState

        return BatchUniformState

    def execute_round(
        self, state: LoadStateBase, graph: Graph, rng: np.random.Generator
    ) -> RoundSummary:
        if not isinstance(state, UniformState):
            raise ProtocolError("SelfishUniformProtocol requires a UniformState")
        self._check_graph(state, graph)
        if graph.max_degree == 0 or state.num_tasks == 0:
            return RoundSummary(0, 0.0, False)

        cache = self._graph_cache(graph)
        alpha = self.resolve_alpha(state)
        q = _csr_migration_probabilities(
            state.loads, state.node_weights, state.speeds, graph, cache, alpha
        )

        # Saturation check: per-node total choose-and-move probability.
        total_q = np.zeros(graph.num_vertices)
        np.add.at(total_q, cache.csr_rows, q)
        saturated = bool(np.any(total_q > 1.0 + 1e-12))

        remaining = state.counts.copy()
        prob_left = np.ones(graph.num_vertices)
        move_src: list[IntArray] = []
        move_dst: list[IntArray] = []
        move_qty: list[IntArray] = []

        indptr, indices = graph.indptr, graph.indices
        for slot, nodes in enumerate(cache.nodes_by_slot):
            k = indptr[nodes] + slot
            q_slot = q[k]
            active = (q_slot > 0.0) & (remaining[nodes] > 0)
            if np.any(active):
                nodes_a = nodes[active]
                k_a = k[active]
                denominator = np.maximum(prob_left[nodes_a], 1e-300)
                conditional = np.clip(q_slot[active] / denominator, 0.0, 1.0)
                draws = rng.binomial(remaining[nodes_a], conditional)
                moving = draws > 0
                if np.any(moving):
                    move_src.append(nodes_a[moving])
                    move_dst.append(indices[k_a[moving]])
                    move_qty.append(draws[moving])
                remaining[nodes_a] -= draws
            prob_left[nodes] -= q_slot

        if not move_src:
            return RoundSummary(0, 0.0, saturated)
        sources = np.concatenate(move_src)
        destinations = np.concatenate(move_dst)
        quantities = np.concatenate(move_qty)
        state.apply_moves(sources, destinations, quantities)
        moved = int(quantities.sum())
        return RoundSummary(moved, float(moved), saturated)

    def execute_round_batch(
        self,
        batch: "BatchUniformState",
        graph: Graph,
        rngs: Sequence[np.random.Generator],
        active: np.ndarray | None = None,
    ) -> BatchRoundSummary:
        """Execute one concurrent round for every active replica at once.

        Parameters
        ----------
        batch:
            The ``(R, n)`` replica stack; mutated in place.
        rngs:
            One generator per replica (length ``R``) or a
            :class:`~repro.utils.rng.StreamLayout`. Under the spawned
            layout replica ``r`` draws only from ``rngs[r]``, so its
            trajectory is reproducible in isolation regardless of how
            many other replicas run alongside it or when they retire;
            under the counter layout the whole active stack draws its
            multinomial block from one per-round site stream (same
            per-round law, vectorized dispatch).
        active:
            Boolean mask of replicas to advance (all when ``None``).
            Retired replicas neither move tasks nor consume randomness.

        Notes
        -----
        Saturation handling differs from the scalar kernel only in the
        clipped (ablation-``alpha``) regime: the scalar chain rule
        truncates conditional probabilities slot by slot, while the
        batched kernel rescales the whole per-node distribution to total
        probability one. For ``alpha >= 4 s_max`` no clipping ever occurs
        and the two kernels sample the identical multinomial.
        """
        from repro.model.batch import BatchUniformState

        if not isinstance(batch, BatchUniformState):
            raise ProtocolError("execute_round_batch requires a BatchUniformState")
        if graph.num_vertices != batch.num_nodes:
            raise ProtocolError(
                f"graph has {graph.num_vertices} vertices but batch has "
                f"{batch.num_nodes} nodes"
            )
        num_replicas = batch.num_replicas
        streams = as_stream_layout(rngs)
        if len(streams) != num_replicas:
            raise ProtocolError(
                f"need one generator per replica ({num_replicas}), got {len(streams)}"
            )
        tasks_moved = np.zeros(num_replicas, dtype=np.int64)
        saturated = np.zeros(num_replicas, dtype=bool)
        if active is None:
            rows = np.arange(num_replicas, dtype=np.int64)
        else:
            rows = np.flatnonzero(np.asarray(active, dtype=bool))
        if rows.size == 0 or graph.max_degree == 0:
            return BatchRoundSummary(
                tasks_moved, tasks_moved.astype(np.float64), saturated
            )

        cache = self._graph_cache(graph)
        alpha = self.resolve_alpha(batch)
        n = batch.num_nodes
        max_degree = graph.max_degree
        speeds = batch.speeds
        counts = batch.counts[rows]  # (A, n) copy via fancy indexing
        dst = graph.indices

        q = _csr_migration_probabilities(
            counts / speeds, counts, speeds, graph, cache, alpha
        )

        # Scatter into the padded (A, n, Delta + 1) multinomial layout;
        # column Delta is the stay probability. The layout lives in the
        # protocol's workspace, as the weighted counter round's blocks do.
        (pvals,) = self._workspace.blocks(
            np.float64, 1, (rows.size, n, max_degree + 1)
        )
        pvals.fill(0.0)
        pvals[:, cache.csr_rows, cache.slot_in_row] = q
        total = pvals[..., :max_degree].sum(axis=2)
        row_saturated = (total > 1.0 + 1e-12).any(axis=1)
        if np.any(total > 1.0):
            scale = np.where(total > 1.0, 1.0 / np.maximum(total, 1e-300), 1.0)
            pvals[..., :max_degree] *= scale[..., None]
            total = np.minimum(total, 1.0)
        pvals[..., max_degree] = np.maximum(1.0 - total, 0.0)

        if streams.policy == "counter":
            # One vectorized multinomial over the whole active stack from
            # the round's site stream — the same per-replica law as the
            # spawned per-replica draws, in a single dispatch.
            draws = streams.site("uniform-multinomial").multinomial(
                counts, pvals
            )
        else:
            # One exact multinomial draw per replica from its own stream.
            (draws,) = self._workspace.blocks(
                np.int64, 1, (rows.size, n, max_degree + 1)
            )
            for position, replica in enumerate(rows):
                draws[position] = streams[replica].multinomial(
                    counts[position], pvals[position]
                )

        moved_slots = draws[..., :max_degree]
        sent = moved_slots.sum(axis=2)
        flows = moved_slots[:, cache.csr_rows, cache.slot_in_row]  # (A, nnz)
        offsets = np.arange(rows.size, dtype=np.int64)[:, None] * n
        received = (
            np.bincount(
                (offsets + dst[None, :]).ravel(),
                weights=flows.ravel(),
                minlength=rows.size * n,
            )
            .reshape(rows.size, n)
            .astype(np.int64)
        )
        batch.apply_flows(rows, sent, received)
        tasks_moved[rows] = sent.sum(axis=1)
        saturated[rows] = row_saturated
        return BatchRoundSummary(
            tasks_moved, tasks_moved.astype(np.float64), saturated
        )


def _choose_neighbours(
    u: FloatArray, nodes: IntArray, graph: Graph
) -> tuple[IntArray, IntArray, np.ndarray]:
    """For each task, the neighbour of its node that its uniform picks.

    ``floor(u * deg(i))`` is the neighbour's position in node ``i``'s
    adjacency list. Returns ``(csr_slot_index, neighbour, valid)``;
    ``valid`` marks the tasks that sit on a node with a neighbour. Other
    positions hold slot 0 and neighbour 0 and never migrate.
    """
    degrees = graph.degrees[nodes]
    chosen_slot = np.floor(u * degrees).astype(np.int64)
    # Guard the measure-zero event random() == 1.0 exactly.
    np.minimum(chosen_slot, np.maximum(degrees - 1, 0), out=chosen_slot)
    valid = degrees > 0
    if valid.all():
        slot_index = graph.indptr[nodes] + chosen_slot
        return slot_index, graph.indices[slot_index], valid
    slot_index = np.where(valid, graph.indptr[nodes] + chosen_slot, 0)
    return slot_index, np.where(valid, graph.indices[slot_index], 0), valid


def _row_draws(
    rngs: Sequence[np.random.Generator], rows: IntArray, counts: IntArray
) -> FloatArray:
    """Replica ``rows[p]``'s next ``counts[p]`` uniforms, concatenated
    over ``p`` — aligned with a row-major task list of those counts."""
    return np.concatenate(
        [rngs[row].random(count) for row, count in zip(rows.tolist(), counts.tolist())]
    )


def _any_per_row(
    flags: np.ndarray, position: IntArray | None, num_rows: int
) -> np.ndarray:
    """``flags`` reduced by ``any`` over the task axis: the last axis, or
    the rows ``position`` names on a flat task list."""
    if position is None:
        return np.any(flags, axis=-1)
    return np.bincount(position[flags], minlength=num_rows) > 0


class SelfishWeightedProtocol(Protocol):
    """Algorithm 2: weighted tasks, weight-oblivious migration condition.

    A task on ``i`` that picked neighbour ``j`` may migrate only when
    ``l_i - l_j > 1/s_j`` — independent of its own weight, so either all
    tasks on ``i`` have the incentive over edge ``(i, j)`` or none do
    (the property the paper's Section 4 analysis exploits).

    The batched kernel (:meth:`execute_round_batch`) advances a whole
    :class:`~repro.model.batch.BatchWeightedState` replica stack per
    call. Weighted tasks are not exchangeable, so there is no multinomial
    shortcut: the kernel performs the same per-task neighbour choice and
    Bernoulli migration draw as the scalar kernel, vectorized over the
    padded ``(R, M)`` task stack. Each replica draws from its own stream
    *in the same order and count as the scalar kernel*, so for identical
    generator states the batched and scalar kernels are pathwise
    bit-identical per replica — a stronger contract than the uniform
    protocol's law-level equivalence.

    Parameters
    ----------
    alpha:
        Convergence factor (default ``4 s_max``).
    rule:
        ``"flow"`` — migrate with probability
        ``deg(i)/d_ij * (l_i - l_j) / (alpha (1/s_i + 1/s_j) W_i)`` so the
        expected migrating *weight* equals ``f_ij`` of Definition 4.1
        (default, matches the analysis);
        ``"pseudocode"`` — the literal printed probability
        ``deg(i)/d_ij * (W_i - W_j) / (2 alpha W_i)`` (equivalent for
        uniform speeds).
    """

    name = "algorithm2"

    VALID_RULES = ("flow", "pseudocode")

    #: The batched engine may route this protocol through
    #: :meth:`execute_round_batch`.
    supports_batch = True

    #: Clipping is per-task in both kernels (a plain ``clip`` of the
    #: same Bernoulli probability), so batched and scalar sampling share
    #: one law even in ablation-``alpha`` regimes.
    batch_matches_clipped_law = True

    #: The counter kernel's only draw site is
    #: ``site_uniforms("weighted-migrate", ...)`` — one word per
    #: ``(global replica, slot)``, independent of the other replicas —
    #: so counter ensembles over deterministic schedules shard cleanly.
    counter_shardable = True

    #: Algorithm 2's migration condition depends only on the (source,
    #: destination) edge, never on the task's own weight — so
    #: :meth:`_edge_table` evaluates it once per ``(replica, edge)`` and
    #: bakes it into the gated table ``p_eff`` every kernel gathers from.
    #: :class:`PerTaskThresholdProtocol` overrides this: its table is
    #: ungated and its condition is evaluated per task after the gather.
    #: Subclass contract: any subclass whose :meth:`_migration_eligible`
    #: reads ``own_weights`` MUST set this to ``False``, or every kernel
    #: gates migrations with the edge-level condition only.
    _edgewise_condition = True

    @classmethod
    def batch_state_class(cls) -> type:
        from repro.model.batch import BatchWeightedState

        return BatchWeightedState

    def __init__(self, alpha: float | None = None, rule: str = "flow"):
        super().__init__(alpha)
        if rule not in self.VALID_RULES:
            raise ProtocolError(
                f"rule must be one of {self.VALID_RULES}, got {rule!r}"
            )
        self._rule = rule

    @property
    def rule(self) -> str:
        """Probability rule in use (``"flow"`` or ``"pseudocode"``)."""
        return self._rule

    def _migration_eligible(
        self,
        gain: FloatArray,
        dst_speeds: FloatArray,
        own_weights: FloatArray | None,
    ) -> np.ndarray:
        """Migration condition (elementwise over aligned arrays).

        Algorithm 2's condition is weight-oblivious: ``l_i - l_j >
        1/s_j`` regardless of ``own_weights``, so :meth:`_edge_table`
        evaluates it per edge (with ``own_weights=None``).
        :class:`PerTaskThresholdProtocol` overrides this with the [6]
        per-task test — the *only* behavioural difference between the
        two protocols, in every kernel.
        """
        return gain > 1.0 / dst_speeds + ELIGIBILITY_TOLERANCE

    def _edge_table(
        self,
        loads: FloatArray,
        node_weights: FloatArray,
        speeds: FloatArray,
        graph: Graph,
        cache: _GraphCache,
        alpha: float,
    ) -> tuple[FloatArray, FloatArray, FloatArray, np.ndarray | None]:
        """Algorithm 2's migration table over the directed CSR edges.

        The probability that a task on ``i`` which chose neighbour ``j``
        migrates depends only on the edge ``(i, j)``, so every kernel
        gathers it from here at its tasks' chosen edges. ``loads`` and
        ``node_weights`` are ``(..., n)``; each returned array is
        ``(..., nnz)``:

        * ``gain`` — ``l_i - l_j``;
        * ``p_raw`` — the rule's probability before clipping;
        * ``p_eff`` — the clipped probability, gated by the edge-level
          condition when :attr:`_edgewise_condition` holds;
        * ``sat_edge`` — where the gated probability exceeds one (the
          round's ``saturated`` verdict), ``None`` under a per-task
          condition, which the kernels test after the gather.
        """
        src, dst = cache.csr_rows, graph.indices
        gain = loads[..., src] - loads[..., dst]
        w_src = node_weights[..., src]
        with np.errstate(divide="ignore", invalid="ignore"):
            if self._rule == "flow":
                rate = alpha * cache.dij_csr * (
                    1.0 / speeds[src] + 1.0 / speeds[dst]
                )
                p_raw = graph.degrees[src] * gain / (rate * w_src)
            else:  # pseudocode rule
                p_raw = (
                    graph.degrees[src]
                    / cache.dij_csr
                    * (w_src - node_weights[..., dst])
                    / (2.0 * alpha * w_src)
                )
        if self._edgewise_condition:
            # l_i - l_j > 1/s_j implies W_i > 0, so the eligibility gate
            # also zeroes the W_i == 0 edges where p_raw is inf/nan, and
            # an edge saturates exactly where the gated table exceeds 1.
            p_eff = np.where(
                self._migration_eligible(gain, speeds[dst], None), p_raw, 0.0
            )
            sat_edge = p_eff > 1.0 + 1e-12
            np.clip(p_eff, 0.0, 1.0, out=p_eff)
            return gain, p_raw, p_eff, sat_edge
        # A task always sits on a node with W_i > 0; zeroing the other
        # edges keeps inf/nan out of the table.
        p_raw[~(w_src > 0)] = 0.0
        return gain, p_raw, np.clip(p_raw, 0.0, 1.0), None

    def _resolve_tasks(
        self,
        table: tuple,
        edge: IntArray,
        u: FloatArray,
        dst_speeds: FloatArray,
        own_weights: FloatArray,
        valid: "np.ndarray | bool",
        position: IntArray | None = None,
        num_rows: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Migration decisions of tasks gathered from an :meth:`_edge_table`.

        ``edge`` indexes each task's chosen edge in the flattened table
        and ``u`` is its migration uniform; ``valid`` marks the tasks
        that have a neighbour (the others carry ``u = 1.0``, which no
        clipped probability exceeds). Returns the ``migrate`` mask and
        the ``saturated`` verdict reduced over the last (task) axis, or,
        on a flat task list, over the ``num_rows`` rows that ``position``
        assigns the tasks to.
        """
        gain, p_raw, p_eff, sat_edge = table
        if self._edgewise_condition:
            migrate = u < np.take(p_eff, edge)
            if not sat_edge.any():  # the common case: nothing clips
                shape = migrate.shape[:-1] if position is None else num_rows
                return migrate, np.zeros(shape, dtype=bool)
            sat_task = np.take(sat_edge, edge) & valid
            return migrate, _any_per_row(sat_task, position, num_rows)
        eligible = valid & self._migration_eligible(
            np.take(gain, edge), dst_speeds, own_weights
        )
        sat_task = eligible & (np.take(p_raw, edge) > 1.0 + 1e-12)
        migrate = eligible & (u < np.take(p_eff, edge))
        return migrate, _any_per_row(sat_task, position, num_rows)

    def execute_round(
        self, state: LoadStateBase, graph: Graph, rng: np.random.Generator
    ) -> RoundSummary:
        if not isinstance(state, WeightedState):
            raise ProtocolError(
                f"{type(self).__name__} requires a WeightedState"
            )
        self._check_graph(state, graph)
        if state.num_tasks == 0 or graph.num_edges == 0:
            return RoundSummary(0, 0.0, False)

        cache = self._graph_cache(graph)
        alpha = self.resolve_alpha(state)
        task_nodes = state.task_nodes
        slot_index, neighbour, valid = _choose_neighbours(
            rng.random(task_nodes.shape[0]), task_nodes, graph
        )
        if not np.any(valid):
            return RoundSummary(0, 0.0, False)

        table = self._edge_table(
            state.loads, state.node_weights, state.speeds, graph, cache, alpha
        )
        edge = slot_index[valid]
        migrate, saturated = self._resolve_tasks(
            table,
            edge,
            rng.random(edge.shape[0]),
            state.speeds[neighbour[valid]],
            state.task_weights[valid],
            True,
        )
        saturated = bool(saturated)
        task_ids = np.flatnonzero(valid)[migrate]
        if task_ids.size == 0:
            # Empty-migration round: exact int/float zeros, with the
            # saturation verdict still reported (shared with the batch
            # kernel's per-replica semantics).
            return RoundSummary(0, 0.0, saturated)
        moved_weight = float(state.task_weights[task_ids].sum())
        state.apply_moves(task_ids, neighbour[task_ids])
        return RoundSummary(int(task_ids.size), moved_weight, saturated)

    def execute_round_batch(
        self,
        batch: "BatchWeightedState",
        graph: Graph,
        rngs: Sequence[np.random.Generator],
        active: np.ndarray | None = None,
    ) -> BatchRoundSummary:
        """Execute one concurrent round for every active replica at once.

        Parameters
        ----------
        batch:
            The padded ``(R, M)`` replica stack; mutated in place.
        rngs:
            One generator per replica (length ``R``) or a
            :class:`~repro.utils.rng.StreamLayout`. Under the spawned
            layout replica ``r`` draws only from ``rngs[r]``, *in the
            exact order and count of the scalar kernel* (one uniform per
            live task for the neighbour choice, then one per task with a
            neighbour for the migration Bernoulli), so its trajectory is
            bit-identical to a scalar run from the same generator state
            and reproducible in isolation regardless of how many other
            replicas run alongside it or when they retire. The counter
            layout routes through :meth:`_execute_round_batch_counter`
            instead — same per-round migration law, one fused block draw.

            The spawned round has two layouts, selected on
            ``mask.all()`` over the active rows. A rectangular stack
            keeps the ``(A, M)`` block and fills whole rows in place. A
            stack with holes works on ``live = flatnonzero(mask)``, whose
            row-major order is each replica's stream order, so the draws
            need no scatter. Neither layout wins on both: the flat one
            pays full-size gathers that the block layout does not need.
        active:
            Boolean mask of replicas to advance (all when ``None``).
            Retired replicas neither move tasks nor consume randomness.
        """
        from repro.model.batch import BatchWeightedState

        if not isinstance(batch, BatchWeightedState):
            raise ProtocolError(
                f"{type(self).__name__}.execute_round_batch requires a "
                "BatchWeightedState"
            )
        if graph.num_vertices != batch.num_nodes:
            raise ProtocolError(
                f"graph has {graph.num_vertices} vertices but batch has "
                f"{batch.num_nodes} nodes"
            )
        num_replicas = batch.num_replicas
        streams = as_stream_layout(rngs)
        if len(streams) != num_replicas:
            raise ProtocolError(
                f"need one generator per replica ({num_replicas}), got {len(streams)}"
            )
        if streams.policy == "counter":
            return self._execute_round_batch_counter(batch, graph, streams, active)
        rngs = streams.generators
        tasks_moved = np.zeros(num_replicas, dtype=np.int64)
        weight_moved = np.zeros(num_replicas, dtype=np.float64)
        saturated = np.zeros(num_replicas, dtype=bool)
        if active is None:
            rows = np.arange(num_replicas, dtype=np.int64)
        else:
            rows = np.flatnonzero(np.asarray(active, dtype=bool))
        summary = BatchRoundSummary(tasks_moved, weight_moved, saturated)
        if rows.size == 0 or graph.num_edges == 0 or batch.max_tasks == 0:
            return summary

        cache = self._graph_cache(graph)
        alpha = self.resolve_alpha(batch)
        speeds = batch.speeds
        advancing_all = rows.size == num_replicas
        if advancing_all:
            # Views, not copies: the kernel only reads these before the
            # single apply_moves mutation at the end.
            mask = batch.task_mask
            nodes = batch.task_nodes
            node_weights = batch.node_weights
        else:
            mask = batch.task_mask[rows]
            nodes = batch.task_nodes[rows]
            node_weights = batch.node_weights[rows]
        num_active, max_tasks = mask.shape
        all_live = bool(mask.all())
        if not all_live and not np.any(mask):
            return summary
        weights = batch.task_weights if advancing_all else batch.task_weights[rows]

        # Neighbour-choice uniforms: replica r draws exactly m_r values
        # from its own stream in task order (padding consumes no
        # randomness) — the same draw the scalar kernel makes. A
        # rectangular stack fills whole rows in place. On a stack with
        # holes the tasks form the row-major list ``live``, which is each
        # replica's draws concatenated in replica order: no scatter.
        if all_live:
            live = position = None
            u_choice = np.empty((num_active, max_tasks))
            for p in range(num_active):
                rngs[rows[p]].random(out=u_choice[p])
            row_offset = np.arange(num_active, dtype=np.int64)[:, None]
        else:
            live = np.flatnonzero(mask)
            live_counts = np.count_nonzero(mask, axis=1)
            position = np.repeat(np.arange(num_active, dtype=np.int64), live_counts)
            u_choice = _row_draws(rngs, rows, live_counts)
            nodes, weights = np.take(nodes, live), np.take(weights, live)
            row_offset = position
        slot_index, j, valid = _choose_neighbours(u_choice, nodes, graph)
        table = self._edge_table(
            node_weights / speeds, node_weights, speeds, graph, cache, alpha
        )
        flat = slot_index + row_offset * graph.indices.shape[0]

        # Migration uniforms: replica r draws exactly valid_r values in
        # task order (again the scalar kernel's consumption). Tasks
        # without a neighbour get 1.0, which no clipped probability
        # exceeds.
        if not valid.all():
            u_migrate = np.ones(valid.shape)
            u_migrate[valid] = _row_draws(
                rngs,
                rows,
                np.count_nonzero(valid, axis=1)
                if live is None
                else np.bincount(position[valid], minlength=num_active),
            )
        elif live is None:
            u_migrate = np.empty((num_active, max_tasks))
            for p in range(num_active):
                rngs[rows[p]].random(out=u_migrate[p])
        else:
            u_migrate = _row_draws(rngs, rows, live_counts)
        migrate, saturated[rows] = self._resolve_tasks(
            table, flat, u_migrate, speeds[j], weights, valid, position, num_active
        )

        # Row-major move order keeps apply_moves on its sorted fast path.
        moved = np.flatnonzero(migrate)
        move_positions, move_slots = np.divmod(
            moved if live is None else live[moved], max_tasks
        )
        if move_positions.size:
            batch.apply_moves(rows[move_positions], move_slots, np.take(j, moved))
            tasks_moved[rows] = np.bincount(move_positions, minlength=num_active)
            weight_moved[rows] = np.bincount(
                move_positions, weights=np.take(weights, moved), minlength=num_active
            )
        return summary

    def _execute_round_batch_counter(
        self,
        batch: "BatchWeightedState",
        graph: Graph,
        streams: StreamLayout,
        active: np.ndarray | None,
    ) -> BatchRoundSummary:
        """Counter-layout round: one fused block draw for the whole stack.

        The migration probability of a task on node ``i`` that chose
        neighbour ``j`` depends only on ``(replica, i, j)``, so the
        kernel gathers from the per-``(replica, directed edge)`` table
        ``(A, nnz)`` of :meth:`_edge_table`, the one every kernel reads,
        and resolves every task with a *single* uniform: ``u * deg(i)``
        selects the neighbour slot (its integer part) *and* supplies the
        migration uniform (its fractional part, which is U[0, 1)
        independent of the selected slot). One ``(A, M)`` Philox block
        per round replaces the spawned layout's ``2 R`` per-replica
        fills — the heavy-m per-round win pinned in
        ``benchmarks/test_batch_throughput.py``.

        Law: identical to the scalar kernel per replica (neighbour
        uniform, eligibility, clipped probability are the same
        expressions; only the pathwise draw order differs). The block is
        addressed by *global* replica index through
        ``StreamLayout.site_uniforms`` — replica ``r`` owns the site's
        counter words ``[r * M, (r + 1) * M)`` no matter which other
        replicas are active or how the ensemble is sharded — so static
        weighted ensembles are resize prefix-stable *and* windowed
        (sharded) stacks reproduce the monolithic draws byte-for-byte.
        """
        from repro.model.batch import BatchWeightedState

        assert isinstance(batch, BatchWeightedState)
        num_replicas = batch.num_replicas
        tasks_moved = np.zeros(num_replicas, dtype=np.int64)
        weight_moved = np.zeros(num_replicas, dtype=np.float64)
        saturated = np.zeros(num_replicas, dtype=bool)
        if active is None:
            rows = np.arange(num_replicas, dtype=np.int64)
        else:
            rows = np.flatnonzero(np.asarray(active, dtype=bool))
        summary = BatchRoundSummary(tasks_moved, weight_moved, saturated)
        if rows.size == 0 or graph.num_edges == 0 or batch.max_tasks == 0:
            return summary

        cache = self._graph_cache(graph)
        alpha = self.resolve_alpha(batch)
        speeds = batch.speeds
        advancing_all = rows.size == num_replicas
        if advancing_all:
            mask = batch.task_mask
            nodes = batch.task_nodes
            node_weights = batch.node_weights
        else:
            mask = batch.task_mask[rows]
            nodes = batch.task_nodes[rows]
            node_weights = batch.node_weights[rows]
        num_active, max_tasks = mask.shape
        all_live = bool(mask.all())
        if not all_live and not np.any(mask):
            return summary

        gain, p_raw, p_eff, sat_edge = self._edge_table(
            node_weights / speeds, node_weights, speeds, graph, cache, alpha
        )
        dst = graph.indices

        # Fused draw: one uniform per task slot. The integer part of
        # u * deg(i) is the chosen neighbour slot; the remainder is the
        # migration uniform (U[0, 1) independent of the slot). Padding
        # slots and isolated nodes resolve to remainder 1.0 (degm1 = -1),
        # which never beats a clipped probability.
        u = streams.site_uniforms("weighted-migrate", rows, max_tasks)

        # The (A, M) integer and mask blocks live in the protocol's
        # workspace; the gathers below stay bounds-checked fancy indexing.
        slot, edge, flat = self._workspace.blocks(np.int64, 3, u.shape)
        (migrate,) = self._workspace.blocks(np.bool_, 1, u.shape)
        i = nodes if all_live else np.where(mask, nodes, 0)
        u *= cache.deg_float[i]
        np.copyto(slot, u, casting="unsafe")  # truncates, as astype does
        if cache.has_isolated:
            # Isolated nodes take slot -1. Elsewhere no clamp is needed:
            # the fill's uniforms are at most 1 - 2**-53, and such a u
            # times an integer degree d rounds to below d, never to d.
            np.minimum(slot, cache.degm1[i], out=slot)
        u -= slot  # in-place remainder
        np.add(graph.indptr[i], slot, out=edge)  # per-task local CSR slot
        # Tasks on isolated nodes carry slot -1 (their remainder is then
        # exactly 1.0, so they can never migrate), but their raw edge
        # index may be -1 and would wrap the gathers below into another
        # replica's edge entries — clamp the index and remember which
        # positions point at a real edge so the saturation/eligibility
        # gathers cannot read a neighbour row's values.
        valid_edge: np.ndarray | None = None
        if cache.has_isolated:
            valid_edge = slot >= 0
            np.maximum(edge, 0, out=edge)
        np.add(
            edge,
            (np.arange(num_active, dtype=np.int64) * dst.shape[0])[:, None],
            out=flat,
        )
        np.less(u, np.take(p_eff, flat), out=migrate)
        if not all_live:
            migrate &= mask
        # Weights are gathered at the drawn migrations only, never as an
        # (A, M) block.
        move_pos, move_slot = np.divmod(np.flatnonzero(migrate), max_tasks)
        move_edge = edge[move_pos, move_slot]
        move_weights = batch.task_weights[rows[move_pos], move_slot]
        if self._edgewise_condition:
            if np.any(sat_edge):  # rare: ablation alpha only
                sat_task = np.take(sat_edge, flat)
                if valid_edge is not None:
                    sat_task &= valid_edge
                if not all_live:
                    sat_task &= mask
                saturated[rows] = sat_task.any(axis=1)
        else:
            # [6]-style per-task test, the scalar expression verbatim:
            # gain > w_l / s_j + tolerance. A drawn migration always sits
            # on a real edge (its remainder is below 1.0), so only the
            # saturation verdict, which reads every live task, needs the
            # test over the whole stack.
            if np.any(p_raw > 1.0 + 1e-12):  # rare: ablation alpha only
                eligible_task = self._migration_eligible(
                    np.take(gain, flat),
                    speeds[dst][edge],
                    batch.task_weights[rows],
                )
                if valid_edge is not None:
                    eligible_task &= valid_edge
                sat_task = eligible_task & (np.take(p_raw, flat) > 1.0 + 1e-12)
                if not all_live:
                    sat_task &= mask
                saturated[rows] = sat_task.any(axis=1)
                keep = eligible_task[move_pos, move_slot]
            else:
                keep = self._migration_eligible(
                    np.take(gain, flat[move_pos, move_slot]),
                    speeds[dst[move_edge]],
                    move_weights,
                )
            move_pos = move_pos[keep]
            move_slot = move_slot[keep]
            move_edge = move_edge[keep]
            move_weights = move_weights[keep]

        if move_pos.size:
            batch.apply_moves(rows[move_pos], move_slot, dst[move_edge])
            tasks_moved[rows] = np.bincount(move_pos, minlength=num_active)
            weight_moved[rows] = np.bincount(
                move_pos, weights=move_weights, minlength=num_active
            )
        return summary


class PerTaskThresholdProtocol(SelfishWeightedProtocol):
    """Reconstructed [6]-style weighted protocol (per-task condition).

    Identical to :class:`SelfishWeightedProtocol` with the ``"flow"``
    probability, except the migration condition for task ``l`` is
    ``l_i - l_j > w_l / s_j`` — the task's own improvement test. Light
    tasks therefore keep migrating across edges that Algorithm 2 already
    considers balanced; the ``weighted-variants`` experiment quantifies
    the resulting behaviour difference. Both the scalar and the batched
    kernel are inherited; only the eligibility test differs.
    """

    name = "per-task-threshold"

    #: The migration condition tests each task's *own* weight, so the
    #: counter kernel evaluates it per task after the edge-table gather.
    _edgewise_condition = False

    def __init__(self, alpha: float | None = None):
        super().__init__(alpha, rule="flow")

    def _migration_eligible(
        self, gain: FloatArray, dst_speeds: FloatArray, own_weights: FloatArray
    ) -> np.ndarray:
        return gain > own_weights / dst_speeds + ELIGIBILITY_TOLERANCE
