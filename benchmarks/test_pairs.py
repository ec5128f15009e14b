"""The paired-run verdict of ``benchmarks/pairs.py`` on synthetic samples."""

from __future__ import annotations

import numpy as np
import pytest
from pairs import verdict

LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}
#: Ten parent runs with a 2% spread around 1.0 (IQR under 0.01).
STEADY = 1.0 + np.array([-2, -1, -0.5, 0, 0, 0, 0.5, 0.5, 1, 2]) / 100
#: Ten parent runs whose IQR (0.4) exceeds the 25% bound.
NOISY = np.array([0.6, 0.7, 0.8, 0.8, 1.0, 1.0, 1.2, 1.2, 1.3, 1.4])
#: Ten parent runs at two levels: IQR 0.5 around a median of 1.25.
SPLIT = np.repeat([1.0, 1.5], 5)


@pytest.mark.parametrize(
    "parent, change, metric, expected",
    [
        (STEADY, STEADY.copy(), LOWER, "level"),
        (STEADY, STEADY * 1.3, LOWER, "worse"),
        (STEADY, STEADY * 1.2, LOWER, "level"),  # worse, but inside the bound
        (STEADY, STEADY * 0.7, HIGHER, "worse"),
        (STEADY, STEADY * 0.9, LOWER, "gain"),
        (STEADY, STEADY * 1.1, HIGHER, "gain"),
        # 8 of 10 pairs won by a wide margin is not a gain.
        (STEADY, STEADY * np.r_[[0.9] * 8, [1.1] * 2], LOWER, "level"),
        (NOISY, NOISY[::-1].copy(), LOWER, "unresolved"),
        # A median gain larger than the parent's wide IQR.
        (NOISY, np.full(10, 0.55), LOWER, "gain"),
        (NOISY, NOISY * 0.95 - 0.3, LOWER, "unresolved"),
        # Every change run beats every parent run, but by less than the
        # parent's IQR: resolved, and not a gain.
        (SPLIT, np.full(10, 0.99), LOWER, "level"),
    ],
)
def test_verdict(parent, change, metric, expected):
    assert verdict(parent, change, metric) == expected
