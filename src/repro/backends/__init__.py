"""Pluggable array backends for the batched kernels.

The seam is :class:`~repro.backends.base.ArrayBackend` — an
availability probe and a fused-kernel registry (``kernel(name)``) —
with two implementations:

* ``"numpy"`` (default) — the identity: no fused kernels, bit-identical
  to running without a backend at all.
* ``"numba"`` — JIT-fused host kernels (optional ``jit`` extra). Same
  Philox draws as numpy; the weighted counter kernel collapses to one
  ``@njit(parallel=True)`` pass.

Every entry point that accepts a ``backend`` knob resolves it through
:func:`resolve_backend`, which warns (``RuntimeWarning``) and falls
back to numpy when the requested extra is not installed — a pipeline
never fails because an accelerator is missing.
"""

from __future__ import annotations

import warnings

from repro.backends.base import ArrayBackend
from repro.backends.numba_backend import NumbaBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.errors import ValidationError

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "NumbaBackend",
    "BACKEND_NAMES",
    "check_backend",
    "available_backends",
    "resolve_backend",
]

#: Recognized backend names, default first.
BACKEND_NAMES = ("numpy", "numba")

_BACKEND_CLASSES: dict[str, type[ArrayBackend]] = {
    NumpyBackend.name: NumpyBackend,
    NumbaBackend.name: NumbaBackend,
}

#: One shared instance per backend so JIT compilation caches persist
#: across call sites within a process.
_INSTANCES: dict[str, ArrayBackend] = {}


def check_backend(name: str) -> str:
    """Validate a ``backend`` name, returning it unchanged."""
    if name not in BACKEND_NAMES:
        raise ValidationError(
            f"backend must be one of {BACKEND_NAMES}, got {name!r}"
        )
    return name


def available_backends() -> tuple[str, ...]:
    """The backend names whose optional dependencies are importable."""
    return tuple(
        name
        for name in BACKEND_NAMES
        if _BACKEND_CLASSES[name].is_available()
    )


def resolve_backend(
    backend: "str | ArrayBackend | None" = "numpy", warn: bool = True
) -> ArrayBackend:
    """Resolve a ``backend`` knob to a usable :class:`ArrayBackend`.

    Accepts a name from :data:`BACKEND_NAMES`, an existing instance
    (passed through), or ``None`` (the numpy default). When the named
    backend's optional dependency is missing the numpy backend is
    returned instead, with a ``RuntimeWarning`` unless ``warn=False``
    — requesting an uninstalled accelerator degrades, it never fails.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    name = "numpy" if backend is None else check_backend(backend)
    cls = _BACKEND_CLASSES[name]
    if not cls.is_available():
        if warn:
            warnings.warn(
                f"backend {name!r} requested but its optional dependency "
                "is not installed; falling back to 'numpy' (install the "
                "jit extra to enable it)",
                RuntimeWarning,
                stacklevel=2,
            )
        name = "numpy"
        cls = _BACKEND_CLASSES[name]
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = cls()
    return instance
