"""Indirect read converter (paper Fig. 2d).

Two stages share the word request ports:

* the **index stage** (:class:`~repro.controller.index_stage.IndexStage`)
  fetches the burst's index array and slices each beat's offsets off it;
* the **element stage** shifts each index by the element size, adds the base
  address, fetches the scattered elements, and packs them into R beats.

The element stage has priority for the ports; the index stage fills the
cycles the element stage leaves idle.
"""

from __future__ import annotations

from typing import Deque, List, Optional

from repro.axi.signals import RBeat
from repro.axi.transaction import BusRequest
from repro.controller.index_stage import IndexStage
from repro.controller.lanes import MAX_OPEN_BURSTS, LaneReadPipe
from repro.mem.banked import BankedMemory
from repro.sim.stats import StatsRegistry


class IndirectReadConverter:
    """Serves AXI-Pack indirect read bursts with bank-side indirection."""

    def __init__(self, name: str, memory: BankedMemory, stats: StatsRegistry) -> None:
        self.name = name
        self._index = IndexStage(name, "controller.indirect_read", memory, stats)
        #: the element pipe, whose R beats the converter emits
        self.reads = LaneReadPipe(f"{name}.element", memory.config)
        #: every lane pipe, in issue order: element fetches have priority,
        #: index fetches use the leftover ports
        self.pipes = (self.reads, self._index.pipe)

    # ------------------------------------------------------------ acceptance
    def can_accept_read(self, request: BusRequest) -> bool:
        return len(self._index.bursts) < MAX_OPEN_BURSTS

    def accept_read(self, request: BusRequest) -> None:
        self._index.accept(request)

    # ----------------------------------------------------------------- cycle
    def step(self, cycle: int) -> None:
        """Per-cycle housekeeping: extract returned index lines, then queue
        the oldest unplanned burst's element beats as far as its indices
        reach."""
        index = self._index
        index.extract_indices()
        burst = index.unplanned()
        if burst is None:
            return
        pipe = self.reads
        batch = index.next_beat(burst)
        while batch is not None:
            pipe.add_batch(burst.request, batch, burst.index_resp)
            batch = index.next_beat(burst)

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        free_ports = self.reads.issue(free_ports, out)
        return self._index.pipe.issue(free_ports, out)

    def pop_ready_r_beat(self) -> Optional[RBeat]:
        beat = self.reads.pop_ready_r_beat()
        if beat is not None:
            # A burst record is only needed until all its beats are planned;
            # emission is tracked by the element pipe itself.
            bursts = self._index.bursts
            while bursts and bursts[0].fully_planned:
                bursts.popleft()
        return beat

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        # Inlined pipe checks: every stream macro-step attempt asks this.
        return bool(
            self._index.bursts or self._index.pipe._beats or self.reads._beats
        )

    def reset(self) -> None:
        self._index.reset()
        self.reads.reset()
