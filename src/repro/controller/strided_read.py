"""Strided read converter (paper Fig. 2c).

For every beat of a packed strided burst, the request generator issues the
parallel word reads of the elements to be packed; the info queue (modelled by
the ordered beat records inside :class:`~repro.controller.lanes.LaneReadPipe`)
remembers how to pack them; the beat packer assembles full R beats as the
words return from the banks.
"""

from __future__ import annotations

from typing import Deque, List, Optional

from repro.axi.pack import PackMode
from repro.axi.signals import RBeat
from repro.axi.transaction import BusRequest
from repro.controller.converter import Converter
from repro.controller.lanes import LaneReadPipe, batch_strided
from repro.mem.banked import BankedMemory
from repro.sim.stats import StatsRegistry

#: Upper bound on beats buffered in the pipe before new bursts stall.
_MAX_PENDING_BEATS = 1024


class StridedReadConverter(Converter):
    """Serves AXI-Pack strided read bursts."""

    def __init__(self, name: str, memory: BankedMemory, stats: StatsRegistry) -> None:
        super().__init__(name, memory)
        self._pipe = LaneReadPipe(name, self.config)
        self._c_bursts = stats.counter("controller.strided_read.bursts")

    def can_accept_read(self, request: BusRequest) -> bool:
        if request.mode is not PackMode.STRIDED or request.is_write:
            return False
        return self._pipe.pending_beats() + request.num_beats <= _MAX_PENDING_BEATS

    def accept_read(self, request: BusRequest) -> None:
        config = self.config
        self._pipe.accept(
            request, batch_strided(request, config.word_bytes, config.num_ports)
        )
        self._c_bursts.value += 1

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        return self._pipe.issue(free_ports, out)

    def unissued_deques(self):
        return (self._pipe._unissued,)

    def r_beat_deques(self):
        return (self._pipe._beats,)

    def pop_ready_r_beat(self) -> Optional[RBeat]:
        return self._pipe.pop_ready_r_beat()

    def busy(self) -> bool:
        return bool(self._pipe._beats)

    def reset(self) -> None:
        self._pipe.reset()
