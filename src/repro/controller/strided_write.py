"""Strided write converter.

Mirror image of the strided read converter: a beat *unpacker* splits each
incoming W beat into its scattered word writes (paper §II-C: the write
converters "differ only in the direction of the datapath").
"""

from __future__ import annotations

from typing import Deque, List

from repro.axi.transaction import BusRequest
from repro.controller.lanes import (
    MAX_OPEN_BURSTS,
    LaneWritePipe,
    _ActiveWriteBurst,
    batch_strided,
)
from repro.mem.banked import BankedMemory
from repro.sim.stats import StatsRegistry


class StridedWriteConverter:
    """Serves AXI-Pack strided write bursts."""

    def __init__(self, name: str, memory: BankedMemory, stats: StatsRegistry) -> None:
        self.name = name
        self.config = memory.config
        #: the pipe whose B responses the converter emits
        self.writes = LaneWritePipe(name, self.config)
        #: every lane pipe, in issue order
        self.pipes = (self.writes,)
        self._c_bursts = stats.counter("controller.strided_write.bursts")

    def can_accept_write(self, request: BusRequest) -> bool:
        return len(self.writes._bursts) < MAX_OPEN_BURSTS

    def accept_write(self, request: BusRequest) -> _ActiveWriteBurst:
        config = self.config
        burst = self.writes.accept(
            request, batch_strided(request, config.word_bytes, config.num_ports)
        )
        self._c_bursts.value += 1
        return burst

    def take_w_beat(
        self, burst: _ActiveWriteBurst, beat: int, payload: bytes
    ) -> None:
        self.writes.arm_beat(burst.batch, beat, payload, burst)

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        return self.writes.issue(free_ports, out)

    def busy(self) -> bool:
        return self.writes.busy()

    def reset(self) -> None:
        self.writes.reset()
