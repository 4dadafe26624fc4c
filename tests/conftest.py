"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.axi.builder import RequestBuilder
from repro.mem.storage import MemoryStorage
from repro.system.config import SystemConfig


@pytest.fixture
def storage() -> MemoryStorage:
    """A 1 MiB memory image."""
    return MemoryStorage(1 << 20)


@pytest.fixture
def builder() -> RequestBuilder:
    """Request builder for the default 256-bit bus."""
    return RequestBuilder(32)


@pytest.fixture
def small_system_config() -> SystemConfig:
    """Paper-like system configuration with a small memory."""
    return SystemConfig(memory_bytes=1 << 22)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for test data."""
    return np.random.default_rng(1234)
