"""Argument validation helpers.

Each helper validates one numeric constraint and returns the (possibly
coerced) value, so call sites stay one-liners::

    self.alpha = check_fraction(alpha, "alpha", exclusive=True)

All failures raise :class:`repro.errors.ValidationError`, which is also a
``ValueError`` so generic callers behave as expected.
"""

from __future__ import annotations

from typing import Union

from repro.errors import ValidationError

__all__ = [
    "check_positive",
    "check_probability",
    "check_fraction",
]

Number = Union[int, float]


def check_positive(value: Number, name: str) -> Number:
    """Require ``value > 0``; return it."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_probability(value: Number, name: str) -> float:
    """Require ``0 <= value <= 1``; return it as float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_fraction(value: Number, name: str, exclusive: bool = False) -> float:
    """Require a fraction in ``[0, 1]`` (or ``(0, 1)`` if ``exclusive``).

    The paper's protection level alpha for LCRB-P is strictly inside (0, 1)
    (Definition 3); pass ``exclusive=True`` to enforce that.
    """
    value = check_probability(value, name)
    if exclusive and (value == 0.0 or value == 1.0):
        raise ValidationError(f"{name} must be strictly inside (0, 1), got {value!r}")
    return value
