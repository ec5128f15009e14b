"""Tests for repro.utils.validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_array_1d,
    check_in_range,
    check_index_array,
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
    check_same_length,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, math.nan, math.inf, "2", None, [1.0, 2.0]]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValidationError, match="x"):
            check_positive(bad, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    @pytest.mark.parametrize("bad", [-0.1, math.nan, -math.inf, "x", None])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            check_non_negative(bad, "x")


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability(ok, "p") == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, "0.5"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            check_probability(bad, "p")


class TestCheckInRange:
    def test_closed_interval(self):
        assert check_in_range(1.0, "x", 1.0, 2.0) == 1.0
        assert check_in_range(2.0, "x", 1.0, 2.0) == 2.0

    def test_open_ends(self):
        with pytest.raises(ValidationError):
            check_in_range(1.0, "x", 1.0, 2.0, low_open=True)
        with pytest.raises(ValidationError):
            check_in_range(2.0, "x", 1.0, 2.0, high_open=True)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_in_range(math.nan, "x", 0.0, 1.0)

    def test_rejects_non_numbers(self):
        with pytest.raises(ValidationError, match="x must be a number"):
            check_in_range("0.5", "x", 0.0, 1.0)

    def test_error_mentions_interval(self):
        with pytest.raises(ValidationError, match=r"\(0\.0, 1\.0\]"):
            check_in_range(0.0, "x", 0.0, 1.0, low_open=True)


class TestCheckInteger:
    def test_accepts_int(self):
        assert check_integer(5, "n") == 5

    def test_accepts_numpy_int(self):
        assert check_integer(np.int64(5), "n") == 5

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_integer(True, "n")

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_integer(5.0, "n")

    def test_minimum_enforced(self):
        with pytest.raises(ValidationError):
            check_integer(0, "n", minimum=1)


class TestCheckArray1d:
    def test_coerces_list(self):
        result = check_array_1d([1, 2, 3], "v")
        assert result.dtype == np.float64
        np.testing.assert_array_equal(result, [1.0, 2.0, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            check_array_1d([[1, 2]], "v")

    def test_length_enforced(self):
        with pytest.raises(ValidationError):
            check_array_1d([1, 2], "v", length=3)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_array_1d([1.0, math.nan], "v")

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            check_array_1d([1.0, math.inf], "v")


class TestCheckIndexArray:
    @pytest.mark.parametrize(
        "values",
        [(3, 0, 3), [3, 0, 3], (np.int32(3), 0, np.uint8(3)), np.array([3, 0, 3])],
        ids=["tuple", "list", "numpy-ints", "array"],
    )
    def test_returns_read_only_int64(self, values):
        result = check_index_array(values, "t")
        assert result.dtype == np.int64 and not result.flags.writeable
        np.testing.assert_array_equal(result, [3, 0, 3])

    def test_empty_and_range(self):
        empty = check_index_array((), "t")
        assert empty.shape == (0,) and empty.dtype == np.int64
        assert not empty.flags.writeable and check_index_array([], "t") is empty
        np.testing.assert_array_equal(check_index_array(range(3), "t"), [0, 1, 2])

    def test_read_only_owned_array_is_kept(self):
        array = np.arange(4)
        array.flags.writeable = False
        assert check_index_array(array, "t") is array

    def test_writeable_array_is_copied(self):
        array = np.arange(4)
        result = check_index_array(array, "t")
        assert result is not array and array.flags.writeable
        array[0] = 9
        assert result[0] == 0

    def test_read_only_view_of_writeable_base_is_copied(self):
        base = np.arange(4)
        view = base[:]
        view.flags.writeable = False
        result = check_index_array(view, "t")
        base[0] = 9
        assert result[0] == 0

    @pytest.mark.parametrize(
        "values",
        [
            (True, 1),
            ("a",),
            (-1,),
            (1.5,),
            (1.0,),
            (None,),
            ((1, 2),),
            (2**63,),
            np.array([True]),
            np.array([1.0]),
            np.array([[1, 2]]),
            np.array([-1]),
            np.array([2**63], dtype=np.uint64),
            5,
        ],
    )
    def test_rejects(self, values):
        with pytest.raises(ValidationError, match="t must"):
            check_index_array(values, "t")


class TestCheckSameLength:
    def test_equal_ok(self):
        check_same_length([1, 2], [3, 4], "a and b")

    def test_unequal_raises(self):
        with pytest.raises(ValidationError, match="a and b"):
            check_same_length([1], [2, 3], "a and b")
