"""The ``ArrayBackend`` seam the batched kernels dispatch through.

A backend is a *fused-kernel registry* (:meth:`ArrayBackend.kernel`):
named replacements for specific hot loops. A kernel the backend does not
provide returns ``None`` and the caller keeps its plain-numpy path —
backends accelerate, they never change which code is correct.

The numpy backend registers no kernels, so it is by construction
bit-identical to running without a backend at all.
"""

from __future__ import annotations

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """One array backend: an availability probe and fused kernels.

    Subclasses override :meth:`is_available` (import probe, never
    raising) and :meth:`kernel`. Instances are cheap, stateless
    handles; the registry in :mod:`repro.backends` keeps one singleton
    per backend so JIT compilation caches are shared across call sites.
    """

    #: Registry name (``"numpy"`` / ``"numba"``).
    name: str = "abstract"

    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend's optional dependency is importable.

        Must never raise — callers use this to decide between running
        and falling back.
        """
        return False

    def kernel(self, name: str):
        """The backend's fused kernel registered under ``name``.

        Returns a callable over host numpy arrays with the kernel's
        documented signature, or ``None`` when this backend does not
        fuse that loop (the caller then keeps its plain-numpy path).
        Known kernel names:

        * ``"weighted_migrate"`` — the weighted counter kernel's
          per-task resolve (slot choice + migration Bernoulli from one
          fused uniform) over the tables of
          :meth:`repro.core.protocols.SelfishWeightedProtocol._edge_table`,
          see
          :meth:`repro.core.protocols.SelfishWeightedProtocol._execute_round_batch_counter`.
        * ``"uniform_pvals"`` — the uniform kernel's padded
          ``(A, n, Delta + 1)`` multinomial-table build, see
          :meth:`repro.core.protocols.SelfishUniformProtocol.execute_round_batch`.
        """
        return None
