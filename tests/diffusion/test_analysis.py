"""Unit tests for infected-series analytics."""

import pytest

from repro.diffusion.analysis import (
    is_growth_non_accelerating,
    newly_infected,
    relative_growth,
)
from repro.errors import ValidationError


class TestNewlyInfected:
    def test_increments(self):
        assert newly_infected([1, 3, 6, 6]) == [2, 3, 0]

    def test_single_point(self):
        assert newly_infected([5]) == []

    def test_decreasing_rejected(self):
        with pytest.raises(ValidationError):
            newly_infected([3, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            newly_infected([])


class TestRelativeGrowth:
    def test_values(self):
        assert relative_growth([2, 4, 6]) == [1.0, 0.5]

    def test_zero_base_skipped(self):
        assert relative_growth([0, 0, 2, 3]) == [0.5]


class TestNonAccelerating:
    def test_logistic_like_curve_passes(self):
        series = [2, 4, 7, 11, 15, 18, 20, 21, 21.5, 21.7]
        assert is_growth_non_accelerating(series)

    def test_exploding_curve_fails(self):
        # Relative growth rises from ~0 to ~1 — clear acceleration.
        series = [10, 10.1, 10.2, 10.4, 11, 13, 20, 40, 80, 160, 320, 640]
        assert not is_growth_non_accelerating(series)

    def test_short_series_trivially_passes(self):
        assert is_growth_non_accelerating([1, 2, 3])

    def test_noise_tolerance(self):
        series = [10, 15, 19, 23.2, 26.5, 29.1, 31.0, 32.2, 33.0]
        assert is_growth_non_accelerating(series, tolerance=0.05)


class TestOnRealSimulation:
    def test_doam_flood_saturates_fast(self, chain):
        from repro.diffusion.base import SeedSets
        from repro.diffusion.doam import DOAMModel

        outcome = DOAMModel().run(chain.to_indexed(), SeedSets(rumors=[0]), max_hops=20)
        series = outcome.trace.padded_infected(20)
        assert not any(newly_infected(series)[5:])  # flat after hop 5
        assert is_growth_non_accelerating(series, tolerance=0.25)
