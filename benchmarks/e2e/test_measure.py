"""The benchmark's statistics: nearest-rank percentiles, spreads, verdicts."""

from __future__ import annotations

import pytest

from benchmarks.e2e.compare import verdict
from benchmarks.e2e.measure import percentile, quartiles, relative_spread


class TestNearestRank:
    def test_ranks_of_one_to_ten(self):
        values = list(range(10, 0, -1))  # order must not matter
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(values, 91) == 10
        assert percentile(values, 99) == 10
        assert percentile(values, 100) == 10

    def test_low_percentiles_are_the_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 0) == 1.0
        assert percentile([3.0, 1.0, 2.0], 1) == 1.0

    def test_always_an_observed_value(self):
        assert percentile([1.0, 2.0], 50) == 1.0
        assert percentile([7.5], 99) == 7.5

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSpread:
    def test_matches_statistics_quantiles(self):
        assert quartiles([1, 2, 3, 4]) == [1.25, 2.5, 3.75]
        assert relative_spread([1, 2, 3, 4]) == pytest.approx(1.0)

    def test_single_value_has_no_spread(self):
        assert quartiles([5.0]) == [5.0, 5.0, 5.0]
        assert relative_spread([5.0]) == 0.0


class TestVerdict:
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_within_bound(self):
        change = [v * 1.05 for v in self.steady]
        assert verdict(self.steady, change, "lower", 0.1) == "within bound"

    def test_worse_and_better_for_lower_is_better(self):
        assert verdict(self.steady, [v * 1.2 for v in self.steady], "lower", 0.1) == "worse"
        assert verdict(self.steady, [v * 0.8 for v in self.steady], "lower", 0.1) == "better"

    def test_direction_flips_for_higher_is_better(self):
        assert verdict(self.steady, [v * 1.2 for v in self.steady], "higher", 0.1) == "better"
        assert verdict(self.steady, [v * 0.8 for v in self.steady], "higher", 0.1) == "worse"

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
        assert verdict(self.steady, noisy, "lower", 0.1) == "unresolved"

    def test_wide_spread_but_every_run_better(self):
        noisy = [50.0, 90.0, 70.0, 60.0, 85.0]
        assert verdict(self.steady, noisy, "lower", 0.1) == "better"
        assert verdict(self.steady, [v + 60 for v in noisy], "higher", 0.1) == "better"
