"""Unit tests for validation helpers."""

import pytest

from repro.errors import ValidationError
from repro.utils.validation import check_fraction, check_positive, check_probability


class TestCheckPositive:
    def test_accepts(self):
        assert check_positive(0.5, "x") == 0.5
        assert check_positive(3, "x") == 3

    def test_rejects(self):
        for bad in (0, -1, "a", True, None):
            with pytest.raises(ValidationError):
                check_positive(bad, "x")

    def test_message_names_parameter(self):
        with pytest.raises(ValidationError, match="alpha"):
            check_positive(-2, "alpha")


class TestCheckProbability:
    def test_bounds_inclusive(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_outside_rejected(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValidationError):
                check_probability(bad, "p")

    def test_returns_float(self):
        assert isinstance(check_probability(1, "p"), float)


class TestCheckFraction:
    def test_exclusive_mode(self):
        assert check_fraction(0.5, "alpha", exclusive=True) == 0.5
        for bad in (0.0, 1.0):
            with pytest.raises(ValidationError):
                check_fraction(bad, "alpha", exclusive=True)

    def test_inclusive_mode(self):
        assert check_fraction(1.0, "alpha") == 1.0
