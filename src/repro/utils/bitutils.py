"""Bit-level helpers used by the AXI user-field encoders and bank mappers."""

from __future__ import annotations

from repro.errors import ConfigurationError


def mask(width: int) -> int:
    """Return a bit mask with the ``width`` least-significant bits set.

    >>> mask(4)
    15
    >>> mask(0)
    0
    """
    if width < 0:
        raise ConfigurationError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def extract_field(word: int, offset: int, width: int) -> int:
    """Extract ``width`` bits starting at ``offset`` from ``word``."""
    if offset < 0 or width < 0:
        raise ConfigurationError("field offset and width must be non-negative")
    return (word >> offset) & mask(width)


def insert_field(word: int, offset: int, width: int, value: int) -> int:
    """Return ``word`` with ``value`` inserted at ``offset`` over ``width`` bits.

    The value must fit in the field; anything wider is a caller bug and raises
    :class:`~repro.errors.ConfigurationError` rather than being silently
    truncated (silent truncation is how real user-field encoding bugs hide).
    """
    if value < 0 or value > mask(width):
        raise ConfigurationError(
            f"value {value} does not fit in a {width}-bit field"
        )
    cleared = word & ~(mask(width) << offset)
    return cleared | (value << offset)
