"""Strided write converter.

Mirror image of the strided read converter: a beat *unpacker* splits each
incoming W beat into its scattered word writes (paper §II-C: the write
converters "differ only in the direction of the datapath").
"""

from __future__ import annotations

from typing import Deque, List, Optional

from repro.axi.pack import PackMode
from repro.axi.signals import BBeat
from repro.axi.transaction import BusRequest
from repro.controller.converter import MAX_OPEN_BURSTS, Converter
from repro.controller.lanes import LaneWritePipe, _ActiveWriteBurst, batch_strided
from repro.mem.banked import BankedMemory
from repro.sim.stats import StatsRegistry


class StridedWriteConverter(Converter):
    """Serves AXI-Pack strided write bursts."""

    def __init__(self, name: str, memory: BankedMemory, stats: StatsRegistry) -> None:
        super().__init__(name, memory)
        self._pipe = LaneWritePipe(name, self.config)
        self._c_bursts = stats.counter("controller.strided_write.bursts")

    def can_accept_write(self, request: BusRequest) -> bool:
        if request.mode is not PackMode.STRIDED or not request.is_write:
            return False
        return len(self._pipe._bursts) < MAX_OPEN_BURSTS

    def accept_write(self, request: BusRequest) -> _ActiveWriteBurst:
        config = self.config
        burst = self._pipe.accept(
            request, batch_strided(request, config.word_bytes, config.num_ports)
        )
        self._c_bursts.value += 1
        return burst

    def take_w_beat(
        self, burst: _ActiveWriteBurst, beat: int, payload: bytes
    ) -> None:
        self._pipe.arm_beat(burst.batch, beat, payload, burst)

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        return self._pipe.issue(free_ports, out)

    def unissued_deques(self):
        return (self._pipe._unissued,)

    def b_beat_deques(self):
        return (self._pipe._bursts, self._pipe._beats)

    def pop_ready_b_beat(self) -> Optional[BBeat]:
        return self._pipe.pop_ready_b_beat()

    def busy(self) -> bool:
        return bool(self._pipe._bursts or self._pipe._beats)

    def reset(self) -> None:
        self._pipe.reset()
