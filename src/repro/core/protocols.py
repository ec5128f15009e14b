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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.flows import ELIGIBILITY_TOLERANCE, default_alpha
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.model.state import LoadStateBase, UniformState, WeightedState
from repro.types import FloatArray, IntArray
from repro.utils.rng import as_stream_layout
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
]


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
        self._workspace = _Workspace()

    def __getstate__(self) -> dict:
        # The scratch buffers are derived state and would only bloat the
        # payload; an unpickled protocol starts with an empty workspace.
        state = self.__dict__.copy()
        del state["_workspace"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._workspace = _Workspace()

    def resolve_alpha(self, state: LoadStateBase) -> float:
        """The alpha used for this state (explicit or ``4 s_max``)."""
        if self._alpha is not None:
            return self._alpha
        return default_alpha(float(state.speeds.max()))

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
    tables = graph.kernel_tables
    src = tables.csr_rows
    dst = graph.indices
    gain = loads[..., src] - loads[..., dst]
    w_src = weights[..., src]
    eligible = gain > 1.0 / speeds[dst] + ELIGIBILITY_TOLERANCE
    inv_rate = alpha * tables.dij_csr * (1.0 / speeds[src] + 1.0 / speeds[dst])
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

        tables = graph.kernel_tables
        alpha = self.resolve_alpha(state)
        q = _csr_migration_probabilities(
            state.loads, state.node_weights, state.speeds, graph, alpha
        )

        # Saturation check: per-node total choose-and-move probability.
        total_q = np.zeros(graph.num_vertices)
        np.add.at(total_q, tables.csr_rows, q)
        saturated = bool(np.any(total_q > 1.0 + 1e-12))

        remaining = state.counts.copy()
        prob_left = np.ones(graph.num_vertices)
        move_src: list[IntArray] = []
        move_dst: list[IntArray] = []
        move_qty: list[IntArray] = []

        indptr, indices = graph.indptr, graph.indices
        for slot, nodes in enumerate(tables.nodes_by_slot):
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

        tables = graph.kernel_tables
        alpha = self.resolve_alpha(batch)
        n = batch.num_nodes
        max_degree = graph.max_degree
        speeds = batch.speeds
        counts = batch.counts[rows]  # (A, n) copy via fancy indexing
        dst = graph.indices

        q = _csr_migration_probabilities(
            counts / speeds, counts, speeds, graph, alpha
        )

        # Scatter into the padded (A, n, Delta + 1) multinomial layout;
        # column Delta is the stay probability. The layout lives in the
        # protocol's workspace, as the weighted counter round's blocks do.
        (pvals,) = self._workspace.blocks(
            np.float64, 1, (rows.size, n, max_degree + 1)
        )
        pvals.fill(0.0)
        pvals[:, tables.csr_rows, tables.slot_in_row] = q
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
        flows = moved_slots[:, tables.csr_rows, tables.slot_in_row]  # (A, nnz)
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


def _fill_rows(
    generators: Sequence[np.random.Generator],
    rows: IntArray,
    counts: IntArray,
    out: FloatArray,
) -> None:
    """Fill ``out`` with replica ``rows[p]``'s next ``counts[p]`` uniforms,
    back to back over ``p`` in row-major order: the scalar kernel's draws."""
    flat = out.reshape(-1)
    stop = 0
    for row, count in zip(rows.tolist(), counts.tolist()):
        start, stop = stop, stop + count
        generators[row].random(out=flat[start:stop])


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
    padded ``(R, M)`` task stack. Under the spawned stream layout each
    replica draws from its own stream *in the same order and count as the
    scalar kernel*, so for identical generator states the batched and
    scalar kernels are pathwise bit-identical per replica — a stronger
    contract than the uniform protocol's law-level equivalence. The
    counter layout samples the same law from one fused word per task.

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

    #: The counter layout's only draw site is
    #: ``site_uniforms("weighted-migrate", ...)`` — one word per
    #: ``(global replica, slot)``, independent of the other replicas —
    #: so counter ensembles over deterministic schedules shard cleanly.
    counter_shardable = True

    #: Algorithm 2's migration condition depends only on the (source,
    #: destination) edge, never on the task's own weight — so
    #: :meth:`_edge_table` evaluates it once per ``(replica, edge)`` and
    #: bakes it into the gated table ``p_eff`` every kernel gathers from.
    #: :class:`PerTaskThresholdProtocol` overrides this: its table is
    #: ungated and its condition is evaluated per task at the candidate
    #: moves.
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
        alpha: float,
    ) -> tuple[FloatArray, FloatArray, FloatArray, np.ndarray | None, FloatArray]:
        """Algorithm 2's migration table over the directed CSR edges.

        The probability that a task on ``i`` which chose neighbour ``j``
        migrates depends only on the edge ``(i, j)``, so every kernel
        gathers it from here at its tasks' chosen edges. ``loads`` and
        ``node_weights`` are ``(..., n)``; the first four returned arrays
        are ``(..., nnz)``:

        * ``gain`` — ``l_i - l_j``;
        * ``p_raw`` — the rule's probability before clipping;
        * ``p_eff`` — the clipped probability, gated by the edge-level
          condition when :attr:`_edgewise_condition` holds;
        * ``sat_edge`` — where the gated probability exceeds one (the
          round's ``saturated`` verdict), ``None`` under a per-task
          condition, which the kernels test after the gather;
        * ``s_dst`` — ``(nnz,)``, the speed ``s_j`` of each edge's
          destination.
        """
        tables = graph.kernel_tables
        src, dst = tables.csr_rows, graph.indices
        s_dst = speeds[dst]
        gain = loads[..., src] - loads[..., dst]
        w_src = node_weights[..., src]
        with np.errstate(divide="ignore", invalid="ignore"):
            if self._rule == "flow":
                rate = alpha * tables.dij_csr * (1.0 / speeds[src] + 1.0 / s_dst)
                p_raw = graph.degrees[src] * gain / (rate * w_src)
            else:  # pseudocode rule
                p_raw = (
                    graph.degrees[src]
                    / tables.dij_csr
                    * (w_src - node_weights[..., dst])
                    / (2.0 * alpha * w_src)
                )
        if self._edgewise_condition:
            # l_i - l_j > 1/s_j implies W_i > 0, so the eligibility gate
            # also zeroes the W_i == 0 edges where p_raw is inf/nan, and
            # an edge saturates exactly where the gated table exceeds 1.
            p_eff = np.where(self._migration_eligible(gain, s_dst, None), p_raw, 0.0)
            sat_edge = p_eff > 1.0 + 1e-12
            np.clip(p_eff, 0.0, 1.0, out=p_eff)
            return gain, p_raw, p_eff, sat_edge, s_dst
        # A task always sits on a node with W_i > 0; zeroing the other
        # edges keeps inf/nan out of the table.
        p_raw[~(w_src > 0)] = 0.0
        return gain, p_raw, np.clip(p_raw, 0.0, 1.0), None, s_dst

    def _choose_edges(
        self,
        u: FloatArray,
        nodes: IntArray,
        graph: Graph,
        row_offset: IntArray | None = None,
        live_mask: np.ndarray | None = None,
    ) -> tuple[IntArray, IntArray, "np.ndarray | bool"]:
        """Each task's chosen edge: slot ``floor(u * deg(i))`` of node
        ``i``'s adjacency list.

        ``u`` becomes the remainder ``u * deg(i) - slot`` in place, which
        is U[0, 1) and independent of the slot: the counter layout's
        migration uniform. Returns ``(edge, flat, valid)``: the chosen CSR
        slot, its index in a table with one ``nnz`` row per
        ``row_offset`` (``edge`` itself when there is none), and the tasks
        with a neighbour (``True`` when every task has one). A task on an
        isolated node takes slot -1, so its remainder is exactly 1.0, and
        an edge index clamped to 0 or more. ``live_mask`` marks the live
        slots of a block with padding slots (node -1), which choose from
        node 0 and are not valid. The arrays are workspace views that
        hold until the next round.
        """
        tables = graph.kernel_tables
        slot, edge, flat = self._workspace.blocks(np.int64, 3, u.shape)
        valid: np.ndarray | bool = True
        if live_mask is not None:
            nodes, valid = np.where(live_mask, nodes, 0), live_mask
        u *= tables.deg_float[nodes]
        np.copyto(slot, u, casting="unsafe")  # truncates, as astype does
        if tables.has_isolated:
            # Isolated nodes take slot -1. Elsewhere no clamp is needed: a
            # fill's uniforms are at most 1 - 2**-53, and such a u times
            # an integer degree d rounds to below d, never to d.
            np.minimum(slot, tables.degm1[nodes], out=slot)
            valid = (slot >= 0) & valid
        u -= slot
        np.add(graph.indptr[nodes], slot, out=edge)
        if tables.has_isolated:
            # Slot -1 may give edge -1, which would wrap the gathers into
            # another row's entries.
            np.maximum(edge, 0, out=edge)
        if row_offset is None:
            return edge, edge, valid
        np.add(edge, row_offset * graph.indices.shape[0], out=flat)
        return edge, flat, valid

    def _resolve_tasks(
        self,
        table: tuple,
        flat: IntArray,
        u: FloatArray,
        valid: "np.ndarray | bool",
        weights_at: Callable[[IntArray], FloatArray],
        position: IntArray | None = None,
        num_rows: int = 1,
    ) -> tuple[IntArray, np.ndarray]:
        """Migration decisions of tasks gathered from an :meth:`_edge_table`.

        The tasks form a ``(num_rows, M)`` block, or a flat list whose
        rows ``position`` names. ``flat`` indexes each task's chosen edge
        in the flattened table, ``u`` is its migration uniform and
        ``valid`` marks the live tasks with a neighbour (``True`` when
        all are). A per-task condition runs only at the candidate moves,
        and at the tasks on over-one edges for the ``saturated`` verdict;
        ``weights_at(tasks)`` reads the own weights of just those tasks.
        Returns the row-major indices of the migrating tasks and the
        per-row ``saturated`` verdict.
        """
        gain, p_raw, p_eff, sat_edge, s_dst = table

        def eligible(tasks: IntArray) -> np.ndarray:
            edges = np.take(flat, tasks)
            return self._migration_eligible(
                np.take(gain, edges),
                np.take(s_dst, edges, mode="wrap"),
                weights_at(tasks),
            )

        (migrate,) = self._workspace.blocks(np.bool_, 1, u.shape)
        np.less(u, np.take(p_eff, flat), out=migrate)
        if valid is not True:
            migrate &= valid
        moved = np.flatnonzero(migrate)
        if self._edgewise_condition:
            over = sat_edge
        else:
            moved = moved[eligible(moved)]
            over = p_raw > 1.0 + 1e-12
        saturated = np.zeros(num_rows, dtype=bool)
        if not over.any():  # the common case: nothing clips
            return moved, saturated
        clipped = np.take(over, flat)
        if valid is not True:
            clipped &= valid
        tasks = np.flatnonzero(clipped)
        if not self._edgewise_condition:
            tasks = tasks[eligible(tasks)]
        saturated[tasks // u.shape[-1] if position is None else position[tasks]] = True
        return moved, saturated

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

        alpha = self.resolve_alpha(state)
        u = rng.random(state.num_tasks)
        edge, _, valid = self._choose_edges(u, state.task_nodes, graph)
        if valid is not True and not valid.any():
            return RoundSummary(0, 0.0, False)

        table = self._edge_table(
            state.loads, state.node_weights, state.speeds, graph, alpha
        )
        # Migration uniforms: one per task with a neighbour, in task order.
        if valid is True:
            rng.random(out=u)
        else:
            u[valid] = rng.random(np.count_nonzero(valid))
        task_ids, saturated = self._resolve_tasks(
            table, edge, u, valid, lambda tasks: state.task_weights[tasks]
        )
        saturated = bool(saturated[0])
        if task_ids.size == 0:
            # Empty-migration round: exact int/float zeros, with the
            # saturation verdict still reported (shared with the batch
            # kernel's per-replica semantics).
            return RoundSummary(0, 0.0, saturated)
        moved_weight = float(state.task_weights[task_ids].sum())
        state.apply_moves(task_ids, graph.indices[edge[task_ids]])
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
            :class:`~repro.utils.rng.StreamLayout`. The layout decides
            only how the uniforms are drawn; the neighbour choice, the
            migration test and the apply step are one body.

            Under the spawned layout replica ``r`` draws only from
            ``rngs[r]``, *in the exact order and count of the scalar
            kernel* (one uniform per live task for the neighbour choice,
            then one per task with a neighbour for the migration
            Bernoulli), so its trajectory is bit-identical to a scalar
            run from the same generator state and reproducible in
            isolation regardless of how many other replicas run alongside
            it or when they retire. A rectangular stack fills whole rows
            of the ``(A, M)`` block in place. A stack with holes works on
            ``live = flatnonzero(mask)``, whose row-major order is each
            replica's stream order, so the draws need no scatter; the
            block layout skips the full-size gathers that this one pays.

            The counter layout draws one fused word per ``(A, M)`` slot
            from ``site_uniforms("weighted-migrate", ...)``: ``u * deg(i)``
            selects the neighbour slot (its integer part) *and* supplies
            the migration uniform (its fractional part, U[0, 1) and
            independent of the slot). Same per-round law as the scalar
            kernel; only the pathwise draw order differs. The words are
            addressed by *global* replica index — replica ``r`` owns the
            site's words ``[r * M, (r + 1) * M)`` whichever other replicas
            are active or however the ensemble is sharded — so static
            weighted ensembles are resize prefix-stable, and windowed
            (sharded) stacks reproduce the monolithic draws byte-for-byte.
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

        alpha = self.resolve_alpha(batch)
        speeds = batch.speeds
        if rows.size == num_replicas:
            # Views, not copies: the kernel only reads these before the
            # single apply_moves mutation at the end.
            mask, nodes = batch.task_mask, batch.task_nodes
            node_weights = batch.node_weights
        else:
            mask, nodes = batch.task_mask[rows], batch.task_nodes[rows]
            node_weights = batch.node_weights[rows]
        num_active, max_tasks = mask.shape
        all_live = bool(mask.all())
        if not all_live and not np.any(mask):
            return summary
        table = self._edge_table(
            node_weights / speeds, node_weights, speeds, graph, alpha
        )

        # The tasks are the (A, M) block, whose padding slots under the
        # counter layout draw words but hold no task (``live_mask``), or
        # on a spawned stack with holes the row-major list ``live``.
        live = position = live_mask = None
        row_offset = np.arange(num_active, dtype=np.int64)[:, None]
        if streams.policy == "counter":
            u = u_migrate = streams.site_uniforms("weighted-migrate", rows, max_tasks)
            live_mask = None if all_live else mask
        else:
            if all_live:
                counts = np.full(num_active, max_tasks)
            else:
                live = np.flatnonzero(mask)
                counts = np.count_nonzero(mask, axis=1)
                position = row_offset = np.repeat(
                    np.arange(num_active, dtype=np.int64), counts
                )
                nodes = np.take(nodes, live)
            u, u_migrate = self._workspace.blocks(np.float64, 2, nodes.shape)
            _fill_rows(streams.generators, rows, counts, u)
            if graph.kernel_tables.has_isolated:
                # Only the tasks with a neighbour draw a migration uniform.
                has_neighbour = graph.degrees[nodes] > 0
                counts = np.bincount(
                    np.broadcast_to(row_offset, nodes.shape)[has_neighbour],
                    minlength=num_active,
                )
                draws = np.empty(int(counts.sum()))
                _fill_rows(streams.generators, rows, counts, draws)
                u_migrate[has_neighbour] = draws
            else:
                _fill_rows(streams.generators, rows, counts, u_migrate)
        edge, flat, valid = self._choose_edges(u, nodes, graph, row_offset, live_mask)

        def task_slots(tasks: IntArray) -> tuple[IntArray, IntArray]:
            return np.divmod(tasks if live is None else live[tasks], max_tasks)

        def weights_at(tasks: IntArray) -> FloatArray:
            positions, slots = task_slots(tasks)
            return batch.task_weights[rows[positions], slots]

        moved, saturated[rows] = self._resolve_tasks(
            table, flat, u_migrate, valid, weights_at, position, num_active
        )
        # Row-major move order keeps apply_moves on its sorted fast path.
        move_positions, move_slots = task_slots(moved)
        if move_positions.size:
            move_weights = weights_at(moved)
            batch.apply_moves(
                rows[move_positions], move_slots, graph.indices[np.take(edge, moved)]
            )
            tasks_moved[rows] = np.bincount(move_positions, minlength=num_active)
            weight_moved[rows] = np.bincount(
                move_positions, weights=move_weights, minlength=num_active
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

    #: The migration condition tests each task's *own* weight, so every
    #: kernel evaluates it per task after the edge-table gather.
    _edgewise_condition = False

    def __init__(self, alpha: float | None = None):
        super().__init__(alpha, rule="flow")

    def _migration_eligible(
        self, gain: FloatArray, dst_speeds: FloatArray, own_weights: FloatArray
    ) -> np.ndarray:
        return gain > own_weights / dst_speeds + ELIGIBILITY_TOLERANCE
