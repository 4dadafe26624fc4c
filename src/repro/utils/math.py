"""Math helpers: ceiling division, primality, simple statistics."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigurationError


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division.

    >>> ceil_div(7, 4)
    2
    >>> ceil_div(8, 4)
    2
    """
    if denominator <= 0:
        raise ConfigurationError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def round_up_to(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest multiple of ``multiple``."""
    return ceil_div(value, multiple) * multiple


def is_prime(value: int) -> bool:
    """Return True if ``value`` is prime (trial division; inputs are small).

    Bank counts in the paper are at most 32, so trial division is plenty.
    """
    if value < 2:
        return False
    if value < 4:
        return True
    if value % 2 == 0:
        return False
    divisor = 3
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 2
    return True


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable of numbers."""
    items: Sequence[float] = list(values)
    if not items:
        raise ConfigurationError("mean of an empty sequence is undefined")
    return sum(items) / len(items)
