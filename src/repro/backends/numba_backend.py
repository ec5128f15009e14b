"""The numba backend: JIT-fused kernels over host numpy arrays.

Install with the ``jit`` extra (``pip install -e ".[jit]"``). The two
fused kernels replace the hot per-task / per-node loops of the batched
protocols with single ``@njit(parallel=True)`` passes:

* ``weighted_migrate`` — the weighted counter kernel's per-task resolve.
  The numpy path materialises ~10 intermediate ``(A, M)`` temporaries
  (scaled uniforms, slots, remainders, edge indices, flat gather
  indices, gathered probabilities, migration masks); the fused pass
  reads the uniform block once per task and writes only the ``(A, M)``
  destination map plus per-replica tallies. Arithmetic is the numpy
  path's expressions verbatim (no fastmath), so at the same uniforms it
  makes the same migration decisions.
* ``uniform_pvals`` — the uniform kernel's padded ``(A, n, Delta + 1)``
  multinomial-table build (eligibility, per-slot probabilities,
  saturation rescale, stay column) in one pass; the multinomial draw
  itself stays on the host numpy ``Generator`` under every backend.

Both kernels take and return host numpy arrays. Randomness stays on the
reference Philox fill (already a single C-speed block generation;
nothing to fuse).
"""

from __future__ import annotations

import importlib.util

from repro.backends.base import ArrayBackend

try:  # pragma: no cover - exercised only with the jit extra installed
    from numba import njit, prange
except ImportError:  # numba is optional; impls below stay plain python
    njit = None
    prange = range

__all__ = ["NumbaBackend"]


def _weighted_migrate(
    u,
    nodes,
    live,
    all_live,
    own_weights,
    p_eff,
    edgewise,
    sat_edge,
    check_sat_edge,
    gain,
    dst_speed_edge,
    p_raw,
    check_sat_raw,
    tol,
    indptr,
    deg_float,
    degm1,
    dest,
    tasks_moved,
    weight_moved,
    saturated,
):
    """Fused per-task resolve of the weighted counter kernel.

    For every live task: ``u * deg(i)`` yields the neighbour slot
    (integer part, clamped for the measure-zero ``u == 1.0`` draw) and
    the migration uniform (fractional remainder); the task migrates
    when the remainder beats the per-(replica, edge) probability table
    and the protocol's eligibility test holds (edge-level, baked into
    ``p_eff``, or the [6]-style per-task threshold). ``dest[a, t]``
    receives the CSR edge index of a migrating task, ``-1`` otherwise;
    per-replica move/weight/saturation tallies are accumulated in the
    same pass. Tasks on isolated nodes (``degm1 < 0``) never migrate.
    """
    num_active, max_tasks = u.shape
    for a in prange(num_active):
        moved = 0
        weight = 0.0
        sat = False
        for t in range(max_tasks):
            if not all_live and not live[a, t]:
                continue
            node = nodes[a, t]
            max_slot = degm1[node]
            if max_slot < 0:
                continue
            x = u[a, t] * deg_float[node]
            slot = int(x)
            if slot > max_slot:
                slot = max_slot
            frac = x - slot
            edge = indptr[node] + slot
            if edgewise:
                if check_sat_edge and sat_edge[a, edge]:
                    sat = True
                if frac < p_eff[a, edge]:
                    dest[a, t] = edge
                    moved += 1
                    weight += own_weights[a, t]
            else:
                if (
                    gain[a, edge]
                    > own_weights[a, t] / dst_speed_edge[edge] + tol
                ):
                    if check_sat_raw and p_raw[a, edge] > 1.0 + 1e-12:
                        sat = True
                    if frac < p_eff[a, edge]:
                        dest[a, t] = edge
                        moved += 1
                        weight += own_weights[a, t]
        tasks_moved[a] = moved
        weight_moved[a] = weight
        saturated[a] = sat


def _uniform_pvals(
    counts,
    speeds,
    csr_rows,
    indices,
    slot_in_row,
    dij_csr,
    alpha,
    tol,
    pvals,
    row_saturated,
):
    """Fused build of the uniform kernel's multinomial table.

    Mirrors :func:`repro.core.protocols._csr_migration_probabilities`:
    Algorithm 1's probability is written out again per element here so
    the build stays one pass. Fills the (zero-initialised) padded
    ``(A, n, Delta + 1)`` ``pvals`` with the per-slot choose-and-move
    probabilities, rescales saturated node rows to total probability
    one, and writes the stay column (summation order differs from
    numpy's pairwise reduction, so the contract is law-equivalence, not
    bit-identity; see the README backend matrix).
    """
    num_active, num_nodes = counts.shape
    nnz = csr_rows.shape[0]
    max_degree = pvals.shape[2] - 1
    for a in prange(num_active):
        sat = False
        for k in range(nnz):
            i = csr_rows[k]
            j = indices[k]
            load_i = counts[a, i] / speeds[i]
            load_j = counts[a, j] / speeds[j]
            gain = load_i - load_j
            weight = counts[a, i]
            if gain > 1.0 / speeds[j] + tol and weight > 0:
                inv_rate = (
                    alpha * dij_csr[k] * (1.0 / speeds[i] + 1.0 / speeds[j])
                )
                pvals[a, i, slot_in_row[k]] = gain / (inv_rate * weight)
        for i in range(num_nodes):
            total = 0.0
            for slot in range(max_degree):
                total += pvals[a, i, slot]
            if total > 1.0 + 1e-12:
                sat = True
            if total > 1.0:
                scale = 1.0 / max(total, 1e-300)
                for slot in range(max_degree):
                    pvals[a, i, slot] *= scale
                total = 1.0
            stay = 1.0 - total
            pvals[a, i, max_degree] = stay if stay > 0.0 else 0.0
        row_saturated[a] = sat


class NumbaBackend(ArrayBackend):
    """JIT-fused host kernels (optional ``jit`` extra)."""

    name = "numba"

    #: Compiled-kernel cache, shared by every instance so each kernel
    #: JITs at most once per process.
    _compiled: "dict[str, object] | None" = None

    @classmethod
    def is_available(cls) -> bool:
        return importlib.util.find_spec("numba") is not None

    def kernel(self, name: str):
        if njit is None:
            return None
        if NumbaBackend._compiled is None:
            jit = njit(parallel=True, cache=True)
            NumbaBackend._compiled = {
                "weighted_migrate": jit(_weighted_migrate),
                "uniform_pvals": jit(_uniform_pvals),
            }
        return NumbaBackend._compiled.get(name)
