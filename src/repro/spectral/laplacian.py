"""Laplacian matrices: combinatorial, generalized, and symmetrized.

Definitions follow the paper's Appendix A:

* ``L`` (Definition 1.1): ``L_ii = deg(i)``, ``L_ij = -1`` for edges.
* generalized Laplacian ``L S^{-1}`` (Section A.2), whose second-smallest
  right-eigenvalue ``mu_2`` drives the convergence bound for machines
  with speeds.
* symmetrized form ``S^{-1/2} L S^{-1/2}``, similar to ``L S^{-1}``
  (Lemma 1.13's proof), used for numerically stable eigensolves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SpeedError
from repro.graphs.graph import Graph
from repro.types import FloatArray
from repro.utils.validation import check_array_1d

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "laplacian_matrix",
    "laplacian_sparse",
    "generalized_laplacian",
    "symmetrized_laplacian",
    "laplacian_quadratic_form",
]


def _check_speeds(speeds: object, n: int) -> FloatArray:
    array = check_array_1d(speeds, "speeds", length=n)
    if np.any(array <= 0):
        raise SpeedError("all speeds must be positive")
    return array


def laplacian_matrix(graph: Graph) -> FloatArray:
    """Dense combinatorial Laplacian ``L = D - A`` (Definition 1.1)."""
    n = graph.num_vertices
    matrix = np.zeros((n, n), dtype=np.float64)
    if graph.num_edges:
        matrix[graph.edges_u, graph.edges_v] = -1.0
        matrix[graph.edges_v, graph.edges_u] = -1.0
    matrix[np.arange(n), np.arange(n)] = graph.degrees.astype(np.float64)
    return matrix


def laplacian_sparse(graph: Graph) -> sp.csr_matrix:
    """Sparse CSR combinatorial Laplacian for large graphs."""
    import scipy.sparse as sp

    n = graph.num_vertices
    u, v = graph.edges_u, graph.edges_v
    rows = np.concatenate([u, v, np.arange(n)])
    cols = np.concatenate([v, u, np.arange(n)])
    vals = np.concatenate(
        [
            -np.ones(graph.num_edges),
            -np.ones(graph.num_edges),
            graph.degrees.astype(np.float64),
        ]
    )
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def generalized_laplacian(graph: Graph, speeds: object) -> FloatArray:
    """Dense generalized Laplacian ``L S^{-1}`` (Section A.2).

    Not symmetric for non-uniform speeds, but positive semi-definite with a
    right-eigenbasis orthogonal w.r.t. ``<.,.>_S`` (Lemma 1.13).
    """
    s = _check_speeds(speeds, graph.num_vertices)
    return laplacian_matrix(graph) / s[np.newaxis, :]


def symmetrized_laplacian(graph: Graph, speeds: object) -> FloatArray:
    """Dense ``S^{-1/2} L S^{-1/2}``; shares its spectrum with ``L S^{-1}``.

    If ``x`` is a right-eigenvector of ``L S^{-1}`` with eigenvalue ``mu``
    then ``S^{-1/2} x`` is an eigenvector of this matrix with the same
    eigenvalue (proof of Lemma 1.13), so eigensolving the symmetric form is
    both correct and numerically preferable.
    """
    s = _check_speeds(speeds, graph.num_vertices)
    inv_sqrt = 1.0 / np.sqrt(s)
    lap = laplacian_matrix(graph)
    return lap * inv_sqrt[np.newaxis, :] * inv_sqrt[:, np.newaxis]


def laplacian_quadratic_form(graph: Graph, x: object) -> float:
    """``x^T L x = sum over edges (x_i - x_j)^2`` (Lemma 1.2 (1)).

    Computed edge-wise in ``O(|E|)`` without materializing ``L``.
    """
    vec = check_array_1d(x, "x", length=graph.num_vertices)
    if graph.num_edges == 0:
        return 0.0
    diff = vec[graph.edges_u] - vec[graph.edges_v]
    return float(np.dot(diff, diff))
