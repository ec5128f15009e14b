"""The default numpy backend: the identity seam.

No fused kernels — running any pipeline with ``backend="numpy"`` is
bit-identical to running it with no backend at all (pinned in
``tests/test_backends.py``).
"""

from __future__ import annotations

from repro.backends.base import ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Plain-numpy kernels."""

    name = "numpy"

    @classmethod
    def is_available(cls) -> bool:
        return True
