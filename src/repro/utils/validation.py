"""Argument-validation helpers.

These helpers raise :class:`repro.errors.ValidationError` with a message
that names the offending argument, which keeps the checking code in public
functions down to one line per argument.
"""

from __future__ import annotations

from numbers import Real
from typing import Sized

import numpy as np

from repro.errors import ValidationError
from repro.types import FloatArray, IntArray

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_integer",
    "check_array_1d",
    "check_index_array",
    "check_same_length",
]


def _check_real(value: object, name: str) -> None:
    """Require a real number, so the finiteness checks cannot raise."""
    if not isinstance(value, Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0`` and return it."""
    _check_real(value, name)
    if not np.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Require ``value >= 0`` and return it."""
    _check_real(value, name)
    if not np.isfinite(value) or value < 0:
        raise ValidationError(
            f"{name} must be a non-negative finite number, got {value!r}"
        )
    return float(value)


def check_probability(value: float, name: str) -> float:
    """Require ``0 <= value <= 1`` and return it."""
    _check_real(value, name)
    if not np.isfinite(value) or value < 0 or value > 1:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> float:
    """Require ``value`` in the interval from ``low`` to ``high``.

    ``low_open``/``high_open`` make the respective end exclusive.
    """
    _check_real(value, name)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    low_ok = value > low if low_open else value >= low
    high_ok = value < high if high_open else value <= high
    if not (low_ok and high_ok):
        left = "(" if low_open else "["
        right = ")" if high_open else "]"
        raise ValidationError(
            f"{name} must lie in {left}{low}, {high}{right}, got {value!r}"
        )
    return float(value)


def check_integer(value: object, name: str, *, minimum: int | None = None) -> int:
    """Require an integer (optionally at least ``minimum``) and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    result = int(value)
    if minimum is not None and result < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {result}")
    return result


def check_array_1d(
    values: object, name: str, *, length: int | None = None
) -> FloatArray:
    """Coerce ``values`` to a 1-D float array, optionally of fixed length."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {array.shape}")
    if length is not None and array.shape[0] != length:
        raise ValidationError(
            f"{name} must have length {length}, got {array.shape[0]}"
        )
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    return array


#: The one empty index array: read-only, so every empty input shares it.
_NO_INDICES = np.empty(0, dtype=np.int64)
_NO_INDICES.flags.writeable = False


def check_index_array(values: object, name: str) -> IntArray:
    """Coerce ``values`` to a read-only 1-D int64 array of non-negative ints.

    Takes any sequence of Python or NumPy ints, or an integer array, and
    refuses bools, non-integers, negative values and input that is not
    one-dimensional. An int64 array that is already read-only and owns
    its data is returned as it is, and every empty sequence gives one
    shared empty array; every other input is converted or copied once,
    so no caller keeps a writeable handle on the result.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise ValidationError(f"{name} must hold ints, got dtype {values.dtype}")
        array = values
        shared = values.flags.writeable or values.base is not None
    else:
        try:
            values = list(values)
        except TypeError:
            raise ValidationError(
                f"{name} must be a sequence of ints, got {values!r}"
            ) from None
        for kind in set(map(type, values)):
            if kind is bool or not issubclass(kind, (int, np.integer)):
                raise ValidationError(
                    f"{name} must be non-negative ints, got a {kind.__name__}"
                )
        if not values:
            return _NO_INDICES
        try:
            array = np.array(values, dtype=np.int64)
        except OverflowError:
            raise ValidationError(f"{name} must fit in int64") from None
        shared = False
    if array.ndim != 1:
        raise ValidationError(
            f"{name} must be one-dimensional, got shape {array.shape}"
        )
    if array.dtype.kind == "u" and array.size and array.max() >= np.uint64(2**63):
        raise ValidationError(f"{name} must fit in int64")
    if array.dtype != np.int64 or shared:
        array = array.astype(np.int64)
    if array.size and array.min() < 0:
        raise ValidationError(f"{name} must be non-negative, got {int(array.min())}")
    array.flags.writeable = False
    return array


def check_same_length(first: Sized, second: Sized, names: str) -> None:
    """Require two sized objects to have equal length."""
    if len(first) != len(second):
        raise ValidationError(
            f"{names} must have the same length, got {len(first)} and {len(second)}"
        )
