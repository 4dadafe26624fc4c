"""Base AXI4 converter: serves regular (non-packed) bursts.

This converter is what makes the controller a drop-in replacement for a
plain AXI4 memory controller: contiguous INCR bursts are striped across the
word lanes at one full-width beat per cycle, and narrow (element-per-beat)
transfers — the BASE system's strided/indexed fallback — are served one
element at a time.
"""

from __future__ import annotations

from typing import Deque, List

from repro.axi.transaction import BusRequest
from repro.controller.lanes import (
    MAX_OPEN_BURSTS,
    LaneReadPipe,
    LaneWritePipe,
    _ActiveWriteBurst,
    batch_contiguous,
    batch_narrow,
)
from repro.mem.banked import BankedMemory
from repro.sim.stats import StatsRegistry

#: Upper bound on beats buffered in the read pipe before new bursts stall.
_MAX_PENDING_READ_BEATS = 512


class BaseAxi4Converter:
    """Backward-compatible converter for plain AXI4 read and write bursts."""

    def __init__(self, name: str, memory: BankedMemory, stats: StatsRegistry) -> None:
        self.name = name
        config = memory.config
        #: the pipe whose R beats, and the pipe whose B responses, the
        #: converter emits
        self.reads = LaneReadPipe(f"{name}.read", config)
        self.writes = LaneWritePipe(f"{name}.write", config)
        #: every lane pipe, in issue order
        self.pipes = (self.reads, self.writes)
        # Plan-kernel geometry, read once per burst (one per element on BASE).
        self._word_bytes = config.word_bytes
        self._bus_words = config.num_ports
        # Prebound hot-path counters (see repro.sim.stats).
        self._c_read_bursts = stats.counter("controller.base.read_bursts")
        self._c_write_bursts = stats.counter("controller.base.write_bursts")

    # ------------------------------------------------------------ acceptance
    def can_accept_read(self, request: BusRequest) -> bool:
        return self.reads.pending_beats() + request.num_beats <= _MAX_PENDING_READ_BEATS

    def accept_read(self, request: BusRequest) -> None:
        kernel = batch_contiguous if request.contiguous else batch_narrow
        self.reads.add_batch(
            request, kernel(request, self._word_bytes, self._bus_words)
        )
        self._c_read_bursts.value += 1

    def can_accept_write(self, request: BusRequest) -> bool:
        return len(self.writes._bursts) < MAX_OPEN_BURSTS

    def accept_write(self, request: BusRequest) -> _ActiveWriteBurst:
        kernel = batch_contiguous if request.contiguous else batch_narrow
        burst = self.writes.accept(
            request, kernel(request, self._word_bytes, self._bus_words)
        )
        self._c_write_bursts.value += 1
        return burst

    def take_w_beat(
        self, burst: _ActiveWriteBurst, beat: int, payload: bytes
    ) -> None:
        self.writes.arm_beat(burst.batch, beat, payload, burst)

    # ----------------------------------------------------------------- cycle
    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        free_ports = self.reads.issue(free_ports, out)
        return self.writes.issue(free_ports, out)

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        return self.reads.busy() or self.writes.busy()

    def reset(self) -> None:
        for pipe in self.pipes:
            pipe.reset()
