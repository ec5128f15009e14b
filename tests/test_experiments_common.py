"""Tests for the shared experiment measurement helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments._common import (
    APPROX_SWEEP_FULL,
    APPROX_SWEEP_QUICK,
    EXACT_SWEEP_FULL,
    EXACT_SWEEP_QUICK,
    WEIGHTED_SWEEP_FULL,
    WEIGHTED_SWEEP_QUICK,
)
from repro.experiments.executor import CellSpec, run_cell


class TestSweepDefinitions:
    def test_quick_subset_of_full_families(self):
        assert set(APPROX_SWEEP_QUICK) <= set(APPROX_SWEEP_FULL)
        assert set(EXACT_SWEEP_QUICK) <= set(EXACT_SWEEP_FULL)
        assert set(WEIGHTED_SWEEP_QUICK) <= set(WEIGHTED_SWEEP_FULL)

    def test_sizes_strictly_increasing(self):
        for sweep in (
            APPROX_SWEEP_QUICK,
            APPROX_SWEEP_FULL,
            EXACT_SWEEP_QUICK,
            EXACT_SWEEP_FULL,
            WEIGHTED_SWEEP_QUICK,
            WEIGHTED_SWEEP_FULL,
        ):
            for family, sizes in sweep.items():
                assert sizes == sorted(sizes), family
                assert len(set(sizes)) == len(sizes), family

    def test_at_least_three_sizes_each(self):
        for family, sizes in APPROX_SWEEP_QUICK.items():
            assert len(sizes) >= 3, family


class TestMeasurePsiThreshold:
    def test_cell_fields(self):
        cell = run_cell(CellSpec("approx", "torus", 9, 8.0, repetitions=2, seed=5))
        assert cell.family == "torus"
        assert cell.n == 9
        assert cell.m == 8 * 81
        assert cell.max_degree == 4
        assert cell.lambda2 == pytest.approx(3.0)
        assert cell.num_converged == 2
        assert cell.median_rounds <= cell.bound_rounds

    def test_deterministic_given_seed(self):
        a = run_cell(CellSpec("approx", "ring", 8, 8.0, repetitions=2, seed=9))
        b = run_cell(CellSpec("approx", "ring", 8, 8.0, repetitions=2, seed=9))
        assert a.median_rounds == b.median_rounds

    def test_seed_matters(self):
        a = run_cell(CellSpec("approx", "ring", 12, 8.0, repetitions=1, seed=1))
        b = run_cell(CellSpec("approx", "ring", 12, 8.0, repetitions=1, seed=2))
        # Different randomness; identical values possible but unlikely
        # for this size. Accept equality but require valid measurements.
        assert a.num_converged == b.num_converged == 1

    def test_size_rounded_to_admissible(self):
        cell = run_cell(CellSpec("approx", "torus", 10, 8.0, repetitions=1, seed=1))
        assert cell.n == 9  # nearest square with side >= 3


class TestMeasureExactNash:
    def test_cell_converges(self):
        cell = run_cell(CellSpec("exact", "torus", 9, 8.0, repetitions=2, seed=4))
        assert cell.num_converged == 2
        assert cell.m == 72
        assert not np.isnan(cell.median_rounds)

    def test_budget_capping(self):
        """max_budget caps the round budget without breaking the cell."""
        cell = run_cell(
            CellSpec(
                "exact", "ring", 6, 8.0, repetitions=1, seed=3,
                params=(("max_budget", 100_000),),
            )
        )
        assert cell.num_converged == 1
