"""Unit tests for statistics helpers."""


import pytest

from repro.utils.stats import RunningStats, confidence_interval, mean, stdev


class TestMeanStdev:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev(self):
        assert stdev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(
            2.138, abs=1e-3
        )

    def test_stdev_short(self):
        assert stdev([5.0]) == 0.0


class TestRunningStats:
    def test_matches_batch_computation(self):
        values = [1.5, 2.5, 0.5, 4.0, 3.0]
        rs = RunningStats()
        rs.extend(values)
        assert rs.mean == pytest.approx(mean(values))
        assert rs.stdev == pytest.approx(stdev(values))
        assert rs.minimum == 0.5
        assert rs.maximum == 4.0
        assert rs.count == 5

    def test_empty(self):
        rs = RunningStats()
        assert rs.mean == 0.0
        assert rs.variance == 0.0

    def test_single_value(self):
        rs = RunningStats()
        rs.add(7.0)
        assert rs.mean == 7.0
        assert rs.stdev == 0.0


class TestConfidenceInterval:
    def test_empty(self):
        assert confidence_interval(RunningStats()) == (0.0, 0.0)

    def test_symmetric_around_mean(self):
        rs = RunningStats()
        rs.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        lo, hi = confidence_interval(rs)
        assert lo < rs.mean < hi
        assert hi - rs.mean == pytest.approx(rs.mean - lo)

    def test_shrinks_with_samples(self):
        small, large = RunningStats(), RunningStats()
        small.extend([1.0, 2.0] * 5)
        large.extend([1.0, 2.0] * 500)
        assert (
            confidence_interval(large)[1] - confidence_interval(large)[0]
            < confidence_interval(small)[1] - confidence_interval(small)[0]
        )
