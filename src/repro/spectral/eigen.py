"""Eigenvalue computations for the (generalized) Laplacian.

For graphs up to :data:`DENSE_CUTOFF` vertices we use dense symmetric
eigensolvers (exact, simple); above that we switch to sparse Lanczos
(``scipy.sparse.linalg.eigsh``) which only extracts the low end of the
spectrum. The quantities of interest are:

* ``lambda_2`` — algebraic connectivity of ``L`` (drives Theorems 1.1/1.2);
* the Fiedler vector — used by the sweep-cut Cheeger heuristic;
* ``mu_2`` — second-smallest eigenvalue of ``L S^{-1}``, computed through
  the symmetrized form ``S^{-1/2} L S^{-1/2}`` (same spectrum, Lemma 1.13).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DisconnectedGraphError, SpectralError
from repro.graphs.graph import Graph
from repro.spectral.laplacian import (
    laplacian_matrix,
    laplacian_sparse,
    symmetrized_laplacian,
)
from repro.types import FloatArray
from repro.utils.validation import check_array_1d

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "DENSE_CUTOFF",
    "laplacian_spectrum",
    "algebraic_connectivity",
    "fiedler_vector",
    "generalized_spectrum",
    "generalized_lambda2",
    "spectral_gap_ratio",
]

#: Graphs with at most this many vertices use dense eigensolvers.
DENSE_CUTOFF = 1500

#: Eigenvalues below this are treated as (numerically) zero.
ZERO_TOLERANCE = 1e-9


def laplacian_spectrum(graph: Graph) -> FloatArray:
    """All Laplacian eigenvalues in ascending order (dense solve)."""
    if graph.num_vertices > DENSE_CUTOFF:
        raise SpectralError(
            f"full spectrum requested for n={graph.num_vertices} > {DENSE_CUTOFF}; "
            "use algebraic_connectivity for large graphs"
        )
    import scipy.linalg

    values = scipy.linalg.eigvalsh(laplacian_matrix(graph))
    return np.clip(values, 0.0, None)


def _smallest_two_sparse(matrix: sp.csr_matrix) -> FloatArray:
    """Two smallest eigenvalues of a sparse symmetric PSD matrix."""
    import scipy.sparse.linalg

    n = matrix.shape[0]
    # Shift-invert around sigma=0 fails on singular L, so shift by a small
    # negative sigma which keeps (L - sigma I) positive definite.
    try:
        values = scipy.sparse.linalg.eigsh(
            matrix, k=2, sigma=-1e-3, which="LM", return_eigenvectors=False
        )
    except Exception:
        # Fallback: smallest-algebraic without shift-invert (slower but robust).
        values = scipy.sparse.linalg.eigsh(
            matrix, k=2, which="SA", return_eigenvectors=False, maxiter=50 * n
        )
    return np.sort(np.clip(values, 0.0, None))


def algebraic_connectivity(graph: Graph, strict: bool = True) -> float:
    """Second-smallest Laplacian eigenvalue ``lambda_2`` (Fiedler value).

    With ``strict=True`` (the default, what the theory code wants)
    raises :class:`DisconnectedGraphError` when the graph is
    disconnected (``lambda_2 = 0`` by Lemma 1.4 (2)); the protocol
    analysis needs a connected network. ``strict=False`` instead reports
    ``0.0`` for disconnected (or single-vertex) graphs — the live
    topology tracking in :mod:`repro.scenarios` records the degradation
    through a partition window rather than crashing on it.
    """
    if graph.num_vertices == 1:
        if not strict:
            return 0.0
        raise DisconnectedGraphError("lambda_2 undefined for a single vertex")
    if graph.num_vertices <= DENSE_CUTOFF:
        spectrum = laplacian_spectrum(graph)
        lambda2 = float(spectrum[1])
    else:
        values = _smallest_two_sparse(laplacian_sparse(graph))
        lambda2 = float(values[1])
    if lambda2 < ZERO_TOLERANCE:
        if not strict:
            return 0.0
        raise DisconnectedGraphError(
            f"{graph.name} appears disconnected (lambda_2 = {lambda2:.2e})"
        )
    return lambda2


def fiedler_vector(graph: Graph) -> FloatArray:
    """Unit eigenvector for ``lambda_2`` of ``L``.

    For disconnected graphs raises; ties between eigenvectors are resolved
    by the eigensolver and are acceptable for the sweep-cut heuristic.
    """
    if graph.num_vertices > DENSE_CUTOFF:
        import scipy.sparse.linalg

        lap = laplacian_sparse(graph)
        values, vectors = scipy.sparse.linalg.eigsh(lap, k=2, sigma=-1e-3, which="LM")
        order = np.argsort(values)
        if values[order[1]] < ZERO_TOLERANCE:
            raise DisconnectedGraphError(f"{graph.name} appears disconnected")
        return vectors[:, order[1]]
    import scipy.linalg

    values, vectors = scipy.linalg.eigh(laplacian_matrix(graph))
    if values[1] < ZERO_TOLERANCE:
        raise DisconnectedGraphError(f"{graph.name} appears disconnected")
    return vectors[:, 1]


def generalized_spectrum(graph: Graph, speeds: object) -> FloatArray:
    """All eigenvalues of ``L S^{-1}`` in ascending order.

    Computed from the symmetrized form ``S^{-1/2} L S^{-1/2}`` which has
    the same spectrum (Lemma 1.13) but is symmetric.
    """
    if graph.num_vertices > DENSE_CUTOFF:
        raise SpectralError(
            f"full generalized spectrum requested for n={graph.num_vertices}; "
            "use generalized_lambda2 instead"
        )
    import scipy.linalg

    values = scipy.linalg.eigvalsh(symmetrized_laplacian(graph, speeds))
    return np.clip(values, 0.0, None)


def generalized_lambda2(graph: Graph, speeds: object) -> float:
    """Second-smallest eigenvalue ``mu_2`` of ``L S^{-1}``.

    By Corollary 1.16 this lies in ``[lambda_2/s_max, lambda_2/s_min]``.
    """
    speeds_array = check_array_1d(speeds, "speeds", length=graph.num_vertices)
    if graph.num_vertices <= DENSE_CUTOFF:
        spectrum = generalized_spectrum(graph, speeds_array)
        mu2 = float(spectrum[1])
    else:
        import scipy.sparse as sp

        inv_sqrt = sp.diags(1.0 / np.sqrt(speeds_array))
        sym = inv_sqrt @ laplacian_sparse(graph) @ inv_sqrt
        values = _smallest_two_sparse(sym.tocsr())
        mu2 = float(values[1])
    if mu2 < ZERO_TOLERANCE:
        raise DisconnectedGraphError(
            f"{graph.name} appears disconnected (mu_2 = {mu2:.2e})"
        )
    return mu2


def spectral_gap_ratio(graph: Graph, strict: bool = True) -> float:
    """``Delta / lambda_2`` — the graph factor in the paper's bounds.

    ``strict=False`` returns ``inf`` for disconnected graphs (where
    ``lambda_2 = 0``) instead of raising, so per-round traces can record
    the bound degrading to infinity through a partition window.
    """
    lambda2 = algebraic_connectivity(graph, strict=strict)
    if lambda2 == 0.0:
        return float("inf")
    return graph.max_degree / lambda2
