"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.axi.builder import RequestBuilder
from repro.controller.context import AdapterConfig
from repro.controller.testbench import ControllerTestbench
from repro.mem.banked import BankedMemoryConfig
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


def make_testbench(num_banks: int = 17, queue_depth: int = 4,
                   bus_bytes: int = 32, conflict_free: bool = False,
                   memory_bytes: int = 1 << 21) -> ControllerTestbench:
    """Controller testbench helper used across controller tests."""
    adapter = AdapterConfig(bus_bytes=bus_bytes, queue_depth=queue_depth)
    memory = BankedMemoryConfig(
        num_ports=adapter.bus_words,
        num_banks=num_banks,
        request_queue_depth=queue_depth,
        response_queue_depth=queue_depth,
        conflict_free=conflict_free,
    )
    return ControllerTestbench(adapter, memory, memory_bytes=memory_bytes)


@pytest.fixture
def testbench() -> ControllerTestbench:
    """Default 17-bank controller testbench."""
    return make_testbench()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for test data."""
    return np.random.default_rng(1234)
