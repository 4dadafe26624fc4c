"""Strided read converter (paper Fig. 2c).

For every beat of a packed strided burst, the request generator issues the
parallel word reads of the elements to be packed; the info queue (modelled by
the ordered beat records inside :class:`~repro.controller.lanes.LaneReadPipe`)
remembers how to pack them; the beat packer assembles full R beats as the
words return from the banks.
"""

from __future__ import annotations

from typing import Deque, List

from repro.axi.transaction import BusRequest
from repro.controller.lanes import LaneReadPipe, batch_strided
from repro.mem.banked import BankedMemory
from repro.sim.stats import StatsRegistry

#: Upper bound on beats buffered in the pipe before new bursts stall.
_MAX_PENDING_BEATS = 1024


class StridedReadConverter:
    """Serves AXI-Pack strided read bursts."""

    def __init__(self, name: str, memory: BankedMemory, stats: StatsRegistry) -> None:
        self.name = name
        self.config = memory.config
        #: the pipe whose R beats the converter emits
        self.reads = LaneReadPipe(name, self.config)
        #: every lane pipe, in issue order
        self.pipes = (self.reads,)
        self._c_bursts = stats.counter("controller.strided_read.bursts")

    def can_accept_read(self, request: BusRequest) -> bool:
        return self.reads.pending_beats() + request.num_beats <= _MAX_PENDING_BEATS

    def accept_read(self, request: BusRequest) -> None:
        config = self.config
        self.reads.add_batch(
            request, batch_strided(request, config.word_bytes, config.num_ports)
        )
        self._c_bursts.value += 1

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        return self.reads.issue(free_ports, out)

    def busy(self) -> bool:
        return self.reads.busy()

    def reset(self) -> None:
        self.reads.reset()
