"""The cupy backend: GPU arrays, on-device kernels and Philox fill.

Install with the ``gpu`` extra (``pip install -e ".[gpu]"``); requires
a CUDA device at runtime (:meth:`CupyBackend.is_available` probes for
one, so a cupy install without a GPU degrades to the numpy fallback
instead of crashing).

The fused kernels mirror the numpy kernels' vectorized expressions on
device arrays (cupy is numpy-API compatible), transferring at the host
boundary: inputs up, the ``(A, M)`` destination map and per-replica
tallies back. The Philox fill generates on-device with cupy's
``Philox4x3210`` bit generator. That is a *different Philox variant*
than numpy's (different word width and output function), and cupy
exposes no word-addressed counter advance, so each contiguous fill run
is keyed on ``(site key, absolute start word)`` instead of sharing one
absolutely-addressed stream. Consequences, documented in the README
backend matrix: cupy runs are same-seed deterministic and
law-equivalent to the reference, but **not** bit-identical to the
numpy/numba backends and **not** resize/shard prefix-stable — the run
decomposition depends on which replicas are active.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from repro.backends.base import ArrayBackend

__all__ = ["CupyBackend"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer (same permutation as ``repro.utils.rng``)."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


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
    """Device-side weighted counter resolve (numpy path's expressions
    on cupy arrays); fills the host output arrays at the boundary."""
    import cupy as cp

    u_d = cp.asarray(u)
    nodes_d = cp.asarray(nodes)
    weights_d = cp.asarray(own_weights)
    p_eff_d = cp.asarray(p_eff)
    indptr_d = cp.asarray(indptr)
    deg_d = cp.asarray(deg_float)
    degm1_d = cp.asarray(degm1)
    num_active = u_d.shape[0]
    nnz = p_eff.shape[1]

    if all_live:
        i = nodes_d
        live_d = None
    else:
        live_d = cp.asarray(live)
        i = cp.where(live_d, nodes_d, 0)
    x = u_d * deg_d[i]
    slot = x.astype(cp.int64)
    cp.minimum(slot, degm1_d[i], out=slot)  # u == 1.0 guard
    frac = x - slot
    valid = slot >= 0  # isolated nodes carry slot -1
    edge = cp.maximum(indptr_d[i] + slot, 0)
    flat = edge + (cp.arange(num_active, dtype=cp.int64) * nnz)[:, None]
    migrate = (frac < cp.take(p_eff_d, flat)) & valid
    if live_d is not None:
        migrate &= live_d
    if edgewise:
        if check_sat_edge:
            sat_task = cp.take(cp.asarray(sat_edge), flat) & valid
            if live_d is not None:
                sat_task &= live_d
            saturated[...] = cp.asnumpy(sat_task.any(axis=1))
    else:
        eligible = (
            cp.take(cp.asarray(gain), flat)
            > weights_d / cp.asarray(dst_speed_edge)[edge] + tol
        ) & valid
        if live_d is not None:
            eligible &= live_d
        migrate &= eligible
        if check_sat_raw:
            sat_task = eligible & (
                cp.take(cp.asarray(p_raw), flat) > 1.0 + 1e-12
            )
            saturated[...] = cp.asnumpy(sat_task.any(axis=1))
    dest[...] = cp.asnumpy(cp.where(migrate, edge, -1))
    tasks_moved[...] = cp.asnumpy(migrate.sum(axis=1))
    weight_moved[...] = cp.asnumpy(
        cp.where(migrate, weights_d, 0.0).sum(axis=1)
    )


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
    """Device-side multinomial-table build for the uniform kernel."""
    import cupy as cp

    counts_d = cp.asarray(counts)
    speeds_d = cp.asarray(speeds)
    src = cp.asarray(csr_rows)
    dst = cp.asarray(indices)
    max_degree = pvals.shape[2] - 1
    loads = counts_d / speeds_d
    gain = loads[:, src] - loads[:, dst]
    eligible = gain > 1.0 / speeds_d[dst] + tol
    weights_src = counts_d[:, src].astype(cp.float64)
    inv_rate = alpha * cp.asarray(dij_csr) * (
        1.0 / speeds_d[src] + 1.0 / speeds_d[dst]
    )
    q = cp.where(
        eligible & (weights_src > 0), gain / (inv_rate * weights_src), 0.0
    )
    pvals_d = cp.zeros(pvals.shape)
    pvals_d[:, src, cp.asarray(slot_in_row)] = q
    total = pvals_d[..., :max_degree].sum(axis=2)
    row_saturated[...] = cp.asnumpy((total > 1.0 + 1e-12).any(axis=1))
    if bool((total > 1.0).any()):
        scale = cp.where(total > 1.0, 1.0 / cp.maximum(total, 1e-300), 1.0)
        pvals_d[..., :max_degree] *= scale[..., None]
        total = cp.minimum(total, 1.0)
    pvals_d[..., max_degree] = cp.maximum(1.0 - total, 0.0)
    pvals[...] = cp.asnumpy(pvals_d)


class CupyBackend(ArrayBackend):
    """GPU arrays via cupy (optional ``gpu`` extra)."""

    name = "cupy"

    _kernels = {
        "weighted_migrate": _weighted_migrate,
        "uniform_pvals": _uniform_pvals,
    }

    @classmethod
    def is_available(cls) -> bool:
        if importlib.util.find_spec("cupy") is None:
            return False
        try:  # pragma: no cover - needs a CUDA device
            import cupy

            return cupy.cuda.runtime.getDeviceCount() > 0
        except Exception:
            return False

    @property
    def xp(self):
        import cupy

        return cupy

    def asarray(self, array):
        import cupy

        return cupy.asarray(array)

    def to_numpy(self, array) -> np.ndarray:
        import cupy

        return cupy.asnumpy(array)

    def kernel(self, name: str):
        return self._kernels.get(name)

    def philox_uniforms(
        self, key: np.ndarray, start_word: int, count: int
    ) -> np.ndarray:
        """On-device Philox fill, keyed per (site key, start word).

        cupy's ``Philox4x3210`` takes a single integer seed and has no
        word-level counter advance, so absolute word addressing is
        emulated by deriving a fresh seed for each filled span —
        deterministic, law-equivalent, but not bit-compatible with the
        reference fill (see the module docstring).
        """
        import cupy

        seed = _mix64(
            _mix64(int(key[0]) ^ (int(key[1]) * _GOLDEN & _MASK64))
            ^ (start_word * _GOLDEN & _MASK64)
        )
        generator = cupy.random.Generator(
            cupy.random.Philox4x3210(seed=seed)
        )
        return cupy.asnumpy(generator.random(count, dtype=cupy.float64))
