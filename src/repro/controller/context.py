"""Shared configuration and context for the adapter and its converters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.stats import StatsRegistry
from repro.utils.bitutils import is_power_of_two
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class AdapterConfig:
    """Static parameters of the AXI-Pack adapter.

    Attributes
    ----------
    bus_bytes:
        Width of the AXI data buses (R and W) in bytes.
    word_bytes:
        Width of one memory bank word; this is the smallest element size the
        controller handles efficiently (paper: 32 bit).
    queue_depth:
        Depth of the per-word-lane decoupling queues; a converter pipe
        never has more than this many word accesses in flight per lane
        (paper default 4; raised to 32 for the §III-E sensitivity study).
    max_pipelined_bursts:
        How many accepted-but-unfinished bursts a converter may hold; lets
        back-to-back bursts keep the word lanes busy.
    """

    bus_bytes: int = 32
    word_bytes: int = 4
    queue_depth: int = 4
    max_pipelined_bursts: int = 4

    def __post_init__(self) -> None:
        if not is_power_of_two(self.bus_bytes) or not is_power_of_two(self.word_bytes):
            raise ConfigurationError("bus and word widths must be powers of two")
        if self.bus_bytes % self.word_bytes != 0:
            raise ConfigurationError(
                f"bus width {self.bus_bytes}B must be a multiple of the word "
                f"width {self.word_bytes}B"
            )
        check_positive("queue_depth", self.queue_depth)
        check_positive("max_pipelined_bursts", self.max_pipelined_bursts)

    @property
    def bus_words(self) -> int:
        """Number of word lanes (``n = D / W`` in the paper)."""
        return self.bus_bytes // self.word_bytes


class AdapterContext:
    """Configuration and handles shared between the adapter and its converters.

    It carries the static :class:`AdapterConfig`, the statistics registry
    and a handle to the backing storage, from which the indirect converters
    resolve the index values of a poisoned index line functionally (see
    :func:`~repro.controller.indirect_read.read_index_oracle`).  The request
    regulator of Fig. 2c is per pipe: every converter pipe counts its word
    accesses in flight per port (``in_flight``) and issues no more than
    ``queue_depth`` on any one.
    """

    def __init__(
        self,
        config: AdapterConfig,
        stats: Optional[StatsRegistry] = None,
        storage=None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.storage = storage
