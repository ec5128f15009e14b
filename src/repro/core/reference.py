"""Reference (naive) implementation of Algorithm 1 for cross-validation.

:class:`ReferenceUniformProtocol` follows the paper's pseudo-code
literally: every task independently picks a neighbour and flips its own
migration coin. This costs ``O(m)`` per round versus the production
sampler's ``O(E + Delta)``, but its correctness is self-evident — which
makes it the ground truth the optimized chain-rule sampler is tested
against (both must induce *exactly* the same per-round migration
distribution; see ``tests/test_core_reference.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.flows import ELIGIBILITY_TOLERANCE
from repro.core.protocols import Protocol, RoundSummary
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.model.state import LoadStateBase, UniformState

__all__ = ["ReferenceUniformProtocol"]


class ReferenceUniformProtocol(Protocol):
    """Literal per-task implementation of Algorithm 1 (uniform tasks).

    Semantically identical to
    :class:`repro.core.protocols.SelfishUniformProtocol`; kept as an
    executable specification and used by the test suite to validate the
    optimized sampler's distribution.
    """

    name = "algorithm1-reference"

    def execute_round(
        self, state: LoadStateBase, graph: Graph, rng: np.random.Generator
    ) -> RoundSummary:
        if not isinstance(state, UniformState):
            raise ProtocolError("ReferenceUniformProtocol requires a UniformState")
        self._check_graph(state, graph)
        m = state.num_tasks
        if m == 0 or graph.num_edges == 0:
            return RoundSummary(0, 0.0, False)

        alpha = self.resolve_alpha(state)
        counts = state.counts
        loads = state.loads
        speeds = state.speeds
        degrees = graph.degrees
        indptr, indices = graph.indptr, graph.indices

        # Expand to one row per task (start-of-round snapshot).
        task_nodes = np.repeat(np.arange(state.num_nodes), counts)
        node_degrees = degrees[task_nodes]
        movable = node_degrees > 0
        chosen_slot = np.zeros(m, dtype=np.int64)
        chosen_slot[movable] = np.floor(
            rng.random(int(movable.sum())) * node_degrees[movable]
        ).astype(np.int64)
        np.minimum(chosen_slot, np.maximum(node_degrees - 1, 0), out=chosen_slot)
        slot_index = indptr[task_nodes] + chosen_slot
        neighbour = indices[np.minimum(slot_index, indices.shape[0] - 1)]

        gain = loads[task_nodes] - loads[neighbour]
        eligible = movable & (
            gain > 1.0 / speeds[neighbour] + ELIGIBILITY_TOLERANCE
        )

        # p_ij = deg(i)/d_ij * gain / (alpha (1/s_i + 1/s_j) W_i).
        dij = graph.kernel_tables.dij_csr[slot_index]
        with np.errstate(divide="ignore", invalid="ignore"):
            probability = np.where(
                eligible,
                degrees[task_nodes]
                / dij
                * gain
                / (
                    alpha
                    * (1.0 / speeds[task_nodes] + 1.0 / speeds[neighbour])
                    * counts[task_nodes]
                ),
                0.0,
            )
        saturated = bool(np.any(probability > 1.0 + 1e-12))
        probability = np.clip(probability, 0.0, 1.0)
        migrate = rng.random(m) < probability

        if not np.any(migrate):
            return RoundSummary(0, 0.0, saturated)
        sources = task_nodes[migrate]
        destinations = neighbour[migrate]
        state.apply_moves(
            sources, destinations, np.ones(sources.shape[0], dtype=np.int64)
        )
        moved = int(sources.shape[0])
        return RoundSummary(moved, float(moved), saturated)
