"""Immutable undirected simple graph backed by CSR adjacency arrays.

The simulator spends its time doing per-node, per-edge vectorized numpy
work, so the graph exposes flat arrays rather than adjacency dicts:

* ``indptr`` / ``indices`` — CSR neighbour lists (both directions).
* ``edges_u`` / ``edges_v`` — one row per undirected edge with ``u < v``.
* ``degrees`` — per-vertex degree.
* ``edge_dij`` — per-edge ``d_ij = max(deg(i), deg(j))`` as used by the
  paper's migration probability (``d_{i,j}`` in Algorithm 1).
* ``kernel_tables`` — the per-CSR-slot lookups the protocol kernels
  read every round (:class:`KernelTables`), built on first use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.types import EdgeList, IntArray

__all__ = ["Graph", "KernelTables"]


class KernelTables:
    """Per-CSR-slot lookups the protocol kernels read every round.

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


class Graph:
    """An immutable undirected simple graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs. Self-loops are rejected; duplicate
        edges (in either orientation) are collapsed.
    name:
        Optional human-readable name used in reports.

    Notes
    -----
    The constructor normalizes, deduplicates and sorts the edge list, then
    builds the CSR structure once. All attributes are read-only views; the
    class is safe to share between simulations. The kernels' lookup
    tables are a pure function of the structure, so the graph builds them
    the first time they are read and keeps them for its lifetime.
    """

    __slots__ = (
        "_num_vertices",
        "_edges",
        "_indptr",
        "_indices",
        "_degrees",
        "_edge_dij",
        "_name",
        "_hash",
        "_kernel_tables",
    )

    def __init__(self, num_vertices: int, edges: EdgeList, name: str | None = None):
        if num_vertices < 1:
            raise GraphError(f"graph needs at least one vertex, got {num_vertices}")
        self._num_vertices = int(num_vertices)
        self._name = name or f"graph(n={num_vertices})"

        edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be a sequence of (u, v) pairs")
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_vertices
        ):
            raise GraphError(
                f"edge endpoints must lie in [0, {num_vertices - 1}], "
                f"got range [{edge_array.min()}, {edge_array.max()}]"
            )
        if edge_array.size and np.any(edge_array[:, 0] == edge_array[:, 1]):
            raise GraphError("self-loops are not allowed")

        # Normalize orientation to u < v, deduplicate, sort lexicographically.
        low = np.minimum(edge_array[:, 0], edge_array[:, 1])
        high = np.maximum(edge_array[:, 0], edge_array[:, 1])
        normalized = np.stack([low, high], axis=1)
        if normalized.shape[0]:
            normalized = np.unique(normalized, axis=0)
        self._edges = normalized
        self._edges.setflags(write=False)

        # Build CSR over both directions.
        directed_u = np.concatenate([normalized[:, 0], normalized[:, 1]])
        directed_v = np.concatenate([normalized[:, 1], normalized[:, 0]])
        order = np.lexsort((directed_v, directed_u))
        directed_u = directed_u[order]
        directed_v = directed_v[order]
        degrees = np.bincount(directed_u, minlength=num_vertices).astype(np.int64)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        self._indptr = indptr
        self._indices = directed_v.astype(np.int64)
        self._degrees = degrees
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        self._degrees.setflags(write=False)

        if normalized.shape[0]:
            dij = np.maximum(
                degrees[normalized[:, 0]], degrees[normalized[:, 1]]
            ).astype(np.int64)
        else:
            dij = np.zeros(0, dtype=np.int64)
        self._edge_dij = dij
        self._edge_dij.setflags(write=False)
        self._hash: int | None = None
        self._kernel_tables: KernelTables | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable name of the graph."""
        return self._name

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return int(self._edges.shape[0])

    @property
    def edges(self) -> IntArray:
        """``(|E|, 2)`` array of undirected edges with ``u < v``."""
        return self._edges

    @property
    def edges_u(self) -> IntArray:
        """First endpoints of :attr:`edges` (each ``< edges_v``)."""
        return self._edges[:, 0]

    @property
    def edges_v(self) -> IntArray:
        """Second endpoints of :attr:`edges`."""
        return self._edges[:, 1]

    @property
    def indptr(self) -> IntArray:
        """CSR row pointer; neighbours of ``v`` are
        ``indices[indptr[v]:indptr[v+1]]``."""
        return self._indptr

    @property
    def indices(self) -> IntArray:
        """CSR column indices (flattened neighbour lists)."""
        return self._indices

    @property
    def degrees(self) -> IntArray:
        """Per-vertex degree array."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Delta``."""
        return int(self._degrees.max()) if self._num_vertices else 0

    @property
    def min_degree(self) -> int:
        """Minimum degree."""
        return int(self._degrees.min()) if self._num_vertices else 0

    @property
    def edge_dij(self) -> IntArray:
        """Per-edge ``d_ij = max(deg(u), deg(v))`` (paper's ``d_{i,j}``)."""
        return self._edge_dij

    @property
    def kernel_tables(self) -> KernelTables:
        """The protocol kernels' per-CSR-slot lookups, built on first read."""
        if self._kernel_tables is None:
            self._kernel_tables = KernelTables(self)
        return self._kernel_tables

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def degree(self, vertex: int) -> int:
        """Degree of ``vertex``."""
        self._check_vertex(vertex)
        return int(self._degrees[vertex])

    def neighbors(self, vertex: int) -> IntArray:
        """Sorted array of neighbours of ``vertex`` (read-only view)."""
        self._check_vertex(vertex)
        return self._indices[self._indptr[vertex] : self._indptr[vertex + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        neighbours = self.neighbors(u)
        position = np.searchsorted(neighbours, v)
        return bool(position < neighbours.shape[0] and neighbours[position] == v)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` 0/1 adjacency matrix."""
        matrix = np.zeros((self._num_vertices, self._num_vertices), dtype=np.float64)
        if self.num_edges:
            matrix[self.edges_u, self.edges_v] = 1.0
            matrix[self.edges_v, self.edges_u] = 1.0
        return matrix

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices - 1}]"
            )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Graph(name={self._name!r}, n={self._num_vertices}, "
            f"m={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._num_vertices == other._num_vertices and np.array_equal(
            self._edges, other._edges
        )

    def __hash__(self) -> int:
        # Cached: graphs are immutable, and the scenario runner's spectral
        # memo hashes the graph on every round.
        if self._hash is None:
            self._hash = hash((self._num_vertices, self._edges.tobytes()))
        return self._hash

    # ------------------------------------------------------------------
    # Derived graphs (dynamic topology)
    # ------------------------------------------------------------------
    def _normalized_pairs(self, edges: EdgeList) -> IntArray:
        """``(k, 2)`` u < v pair array with endpoint/self-loop validation."""
        pairs = np.asarray(list(edges), dtype=np.int64)
        if pairs.size == 0:
            return pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError("edges must be a sequence of (u, v) pairs")
        if pairs.min() < 0 or pairs.max() >= self._num_vertices:
            raise GraphError(
                f"edge endpoints must lie in [0, {self._num_vertices - 1}], "
                f"got range [{pairs.min()}, {pairs.max()}]"
            )
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise GraphError("self-loops are not allowed")
        return np.stack(
            [np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])],
            axis=1,
        )

    def without_edges(self, edges: EdgeList, name: str | None = None) -> "Graph":
        """A new graph with the given undirected edges removed.

        The receiver is untouched (graphs are immutable); the derived
        graph goes through the full CSR build, so every hash/equality
        contract holds for it too, and it builds its own kernel tables.
        Edges not present are ignored, making failure events idempotent.
        """
        drop = self._normalized_pairs(edges)
        if drop.shape[0] == 0 or self.num_edges == 0:
            kept = self._edges
        else:
            n = self._num_vertices
            keys = self._edges[:, 0] * n + self._edges[:, 1]
            drop_keys = drop[:, 0] * n + drop[:, 1]
            kept = self._edges[~np.isin(keys, drop_keys)]
        removed = self.num_edges - kept.shape[0]
        return Graph(
            self._num_vertices,
            kept,
            name=name or f"{self._name}-{removed}e",
        )

    def with_edges(self, edges: EdgeList, name: str | None = None) -> "Graph":
        """A new graph with the given undirected edges added.

        The receiver is untouched; duplicates (edges already present)
        collapse in the constructor's dedup, making recovery events
        idempotent.
        """
        add = self._normalized_pairs(edges)
        combined = np.concatenate([self._edges, add], axis=0)
        return Graph(
            self._num_vertices,
            combined,
            name=name or f"{self._name}+{add.shape[0]}e",
        )

    def renamed(self, name: str) -> "Graph":
        """Return a copy of this graph carrying a different name.

        The copy shares the structure arrays and, once built, the kernel
        tables.
        """
        clone = Graph.__new__(Graph)
        clone._num_vertices = self._num_vertices
        clone._edges = self._edges
        clone._indptr = self._indptr
        clone._indices = self._indices
        clone._degrees = self._degrees
        clone._edge_dij = self._edge_dij
        clone._name = name
        clone._hash = self._hash
        clone._kernel_tables = self._kernel_tables
        return clone
