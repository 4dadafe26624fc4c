"""Indirect write converter.

Like the indirect read converter, but the element stage is a beat *unpacker*:
once the indices of a W beat's elements are known, the packed write data is
scattered to the indexed addresses as parallel word writes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.axi.signals import BBeat
from repro.axi.transaction import BusRequest
from repro.controller.index_stage import IndexStage
from repro.controller.lanes import MAX_OPEN_BURSTS, LaneWritePipe, _ActiveWriteBurst
from repro.mem.banked import BankedMemory
from repro.sim.stats import StatsRegistry


class IndirectWriteConverter:
    """Serves AXI-Pack indirect write bursts with bank-side indirection."""

    def __init__(self, name: str, memory: BankedMemory, stats: StatsRegistry) -> None:
        self.name = name
        self._index = IndexStage(name, "controller.indirect_write", memory, stats)
        #: the element pipe, whose B responses the converter emits
        self.writes = LaneWritePipe(f"{name}.element", memory.config)
        #: every lane pipe, in issue order: element writes have priority,
        #: index fetches use the leftover ports
        self.pipes = (self.writes, self._index.pipe)
        #: W beat payloads not yet planned, in arrival order.  W beats arrive
        #: in burst order and bursts are planned in order, so the head always
        #: belongs to the burst being planned.
        self._payloads: Deque[bytes] = deque()

    # ------------------------------------------------------------ acceptance
    def can_accept_write(self, request: BusRequest) -> bool:
        return len(self._index.bursts) < MAX_OPEN_BURSTS

    def accept_write(self, request: BusRequest) -> _ActiveWriteBurst:
        burst = self.writes.accept(request, None)
        self._index.accept(request, burst)
        return burst

    def take_w_beat(
        self, burst: _ActiveWriteBurst, beat: int, payload: bytes
    ) -> None:
        self._payloads.append(bytes(payload))

    # ----------------------------------------------------------------- cycle
    def step(self, cycle: int) -> None:
        """Per-cycle housekeeping: extract returned index lines, then arm
        the oldest unplanned burst's element beats as far as its indices
        and W data reach."""
        index = self._index
        index.extract_indices()
        payloads = self._payloads
        if not payloads:
            return
        burst = index.unplanned()
        if burst is None:
            return
        pipe = self.writes
        while payloads:
            batch = index.next_beat(burst)
            if batch is None:
                return
            pipe.add_beat_batch(
                batch, payloads.popleft(), burst.write, burst.index_resp
            )

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        free_ports = self.writes.issue(free_ports, out)
        return self._index.pipe.issue(free_ports, out)

    def pop_ready_b_beat(self) -> Optional[BBeat]:
        beat = self.writes.pop_ready_b_beat()
        if beat is not None:
            bursts = self._index.bursts
            while bursts and bursts[0].fully_planned and bursts[0].write.complete:
                bursts.popleft()
        return beat

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        # Inlined pipe checks: every stream macro-step attempt asks this.
        return bool(
            self._index.bursts
            or self._index.pipe._beats
            or self.writes._bursts
            or self.writes._beats
        )

    def reset(self) -> None:
        self._index.reset()
        self.writes.reset()
        self._payloads.clear()
