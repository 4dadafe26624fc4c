"""Base AXI4 converter: serves regular (non-packed) bursts.

This converter is what makes the controller a drop-in replacement for a
plain AXI4 memory controller: contiguous INCR bursts are striped across the
word lanes at one full-width beat per cycle, and narrow (element-per-beat)
transfers — the BASE system's strided/indexed fallback — are served one
element at a time.
"""

from __future__ import annotations

from typing import Deque, List, Optional

from repro.axi.signals import BBeat, RBeat
from repro.axi.transaction import BusRequest
from repro.controller.converter import MAX_OPEN_BURSTS, Converter
from repro.controller.lanes import (
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


class BaseAxi4Converter(Converter):
    """Backward-compatible converter for plain AXI4 read and write bursts."""

    def __init__(self, name: str, memory: BankedMemory, stats: StatsRegistry) -> None:
        super().__init__(name, memory)
        self._reads = LaneReadPipe(f"{name}.read", self.config)
        self._writes = LaneWritePipe(f"{name}.write", self.config)
        # Plan-kernel geometry, read once per burst (one per element on BASE).
        self._word_bytes = self.config.word_bytes
        self._bus_words = self.config.num_ports
        # Prebound hot-path counters (see repro.sim.stats).
        self._c_read_bursts = stats.counter("controller.base.read_bursts")
        self._c_write_bursts = stats.counter("controller.base.write_bursts")

    # ------------------------------------------------------------ acceptance
    def can_accept_read(self, request: BusRequest) -> bool:
        if request.is_packed:
            return False
        return self._reads.pending_beats() + request.num_beats <= _MAX_PENDING_READ_BEATS

    def accept_read(self, request: BusRequest) -> None:
        kernel = batch_contiguous if request.contiguous else batch_narrow
        self._reads.accept(
            request, kernel(request, self._word_bytes, self._bus_words)
        )
        self._c_read_bursts.value += 1

    def can_accept_write(self, request: BusRequest) -> bool:
        if request.is_packed:
            return False
        return len(self._writes._bursts) < MAX_OPEN_BURSTS

    def accept_write(self, request: BusRequest) -> _ActiveWriteBurst:
        kernel = batch_contiguous if request.contiguous else batch_narrow
        burst = self._writes.accept(
            request, kernel(request, self._word_bytes, self._bus_words)
        )
        self._c_write_bursts.value += 1
        return burst

    def take_w_beat(
        self, burst: _ActiveWriteBurst, beat: int, payload: bytes
    ) -> None:
        self._writes.arm_beat(burst.batch, beat, payload, burst)

    # ----------------------------------------------------------------- cycle
    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        free_ports = self._reads.issue(free_ports, out)
        return self._writes.issue(free_ports, out)

    def unissued_deques(self):
        return (self._reads._unissued, self._writes._unissued)

    def r_beat_deques(self):
        return (self._reads._beats,)

    def b_beat_deques(self):
        return (self._writes._bursts, self._writes._beats)

    def pop_ready_r_beat(self) -> Optional[RBeat]:
        return self._reads.pop_ready_r_beat()

    def pop_ready_b_beat(self) -> Optional[BBeat]:
        return self._writes.pop_ready_b_beat()

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        # Inlined pipe checks: this runs several times per adapter cycle.
        return bool(self._reads._beats or self._writes._bursts or self._writes._beats)

    def reset(self) -> None:
        self._reads.reset()
        self._writes.reset()
