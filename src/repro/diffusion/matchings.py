"""Dimension-exchange load balancing (matching-based diffusion).

The third classical family of neighbourhood balancers (besides diffusion
and the randomized protocols): in each round a *matching* of the network
is activated and every matched pair averages its load. On edge-coloured
graphs the matchings cycle through the colour classes
("dimension exchange" on the hypercube, where colour = dimension). The
scheme converges faster than first-order diffusion per activated edge
and is a natural coordinated baseline for the comparison experiments.

Implemented on integer tasks with speeds: a matched pair ``(i, j)``
moves tasks so their loads equalize as far as integrality allows (the
donor keeps the rounding surplus).
"""

from __future__ import annotations

import numpy as np

from repro.core.protocols import Protocol, RoundSummary
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.model.state import LoadStateBase, UniformState
from repro.types import IntArray

__all__ = ["greedy_edge_coloring", "DimensionExchangeProtocol"]


def greedy_edge_coloring(graph: Graph) -> list[IntArray]:
    """Partition the edges into matchings by greedy colouring.

    Returns a list of arrays of *edge indices* (into ``graph.edges``),
    each index set forming a matching. Greedy colouring uses at most
    ``2 Delta - 1`` colours (Vizing guarantees ``Delta + 1`` exists; the
    greedy bound is fine for a balancing schedule).
    """
    num_colors_cap = max(1, 2 * graph.max_degree - 1)
    color_of_edge = np.full(graph.num_edges, -1, dtype=np.int64)
    # busy[v] holds the set of colours already used at vertex v.
    busy: list[set[int]] = [set() for _ in range(graph.num_vertices)]
    for edge_index, (u, v) in enumerate(graph.edges.tolist()):
        color = 0
        taken = busy[u] | busy[v]
        while color in taken:
            color += 1
        if color >= num_colors_cap:
            raise ProtocolError("greedy colouring exceeded its bound")
        color_of_edge[edge_index] = color
        busy[u].add(color)
        busy[v].add(color)
    matchings = []
    for color in range(int(color_of_edge.max()) + 1 if graph.num_edges else 0):
        matchings.append(np.flatnonzero(color_of_edge == color))
    return matchings


class DimensionExchangeProtocol(Protocol):
    """Matching-based balancing: matched pairs equalize their loads.

    One ``execute_round`` activates the *next* matching in the colour
    schedule (round-robin), so a full sweep over all colours costs as
    many rounds as colours. For a matched pair ``(i, j)`` the pair's
    total weight is resplit proportionally to speeds, rounded so the
    byte count stays integral; the heavier-loaded endpoint keeps the
    surplus.
    """

    name = "dimension-exchange"

    def __init__(self):
        super().__init__(alpha=None)
        # Per graph: its colour schedule and the position of the next
        # matching. The graph itself is the key: it hashes by structure,
        # and a key keeps its graph alive, so no other graph can take it.
        self._schedules: dict[Graph, tuple[list[IntArray], int]] = {}

    def __getstate__(self) -> dict:
        # The keys are whole graphs; like the workspace, the schedules
        # start afresh in an unpickled protocol.
        state = super().__getstate__()
        state["_schedules"] = {}
        return state

    def _schedule(self, graph: Graph) -> tuple[list[IntArray], int]:
        if graph not in self._schedules:
            self._schedules[graph] = (greedy_edge_coloring(graph), 0)
        schedule, position = self._schedules[graph]
        self._schedules[graph] = (schedule, (position + 1) % max(1, len(schedule)))
        return schedule, position

    def execute_round(
        self, state: LoadStateBase, graph: Graph, rng: np.random.Generator
    ) -> RoundSummary:
        if not isinstance(state, UniformState):
            raise ProtocolError("DimensionExchangeProtocol requires a UniformState")
        self._check_graph(state, graph)
        if graph.num_edges == 0:
            return RoundSummary(0, 0.0, False)
        schedule, position = self._schedule(graph)
        if not schedule:
            return RoundSummary(0, 0.0, False)
        matching = schedule[position % len(schedule)]
        if matching.size == 0:
            return RoundSummary(0, 0.0, False)

        u = graph.edges_u[matching]
        v = graph.edges_v[matching]
        counts = state.counts
        speeds = state.speeds
        pair_total = counts[u] + counts[v]
        # Speed-proportional split: u takes the floor of its share and v
        # the remainder, so a re-activated balanced pair moves nothing.
        share_u = np.floor(
            pair_total * speeds[u] / (speeds[u] + speeds[v])
        ).astype(np.int64)
        flow_from_u = counts[u] - share_u  # positive: u sends to v

        sources = np.where(flow_from_u > 0, u, v)
        destinations = np.where(flow_from_u > 0, v, u)
        amounts = np.abs(flow_from_u)
        moving = amounts > 0
        if not np.any(moving):
            return RoundSummary(0, 0.0, False)
        state.apply_moves(sources[moving], destinations[moving], amounts[moving])
        moved = int(amounts[moving].sum())
        return RoundSummary(moved, float(moved), False)
