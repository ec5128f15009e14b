"""The array library the batched kernels run on, by name: only numpy."""

from types import SimpleNamespace

from repro.errors import ValidationError

__all__ = ["resolve_backend"]


def resolve_backend(backend: str = "numpy", warn: bool = True):
    """A record named ``"numpy"``; other names raise; ``warn`` has no effect."""
    if backend != "numpy":
        raise ValidationError(f"backend must be 'numpy', got {backend!r}")
    return SimpleNamespace(name="numpy")
