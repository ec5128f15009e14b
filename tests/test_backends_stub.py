"""The ``repro.backends`` stub: numpy is the only array library."""

import pytest

from repro.backends import resolve_backend
from repro.errors import ValidationError


def test_default_resolves_to_numpy():
    assert resolve_backend().name == "numpy"
    assert resolve_backend("numpy", warn=False).name == "numpy"


def test_other_names_raise():
    with pytest.raises(ValidationError, match="numba"):
        resolve_backend("numba")
