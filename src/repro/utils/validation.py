"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

from repro.errors import ConfigurationError


def check_positive(name: str, value: int) -> int:
    """Raise unless ``value`` is a positive integer; return it otherwise."""
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value

