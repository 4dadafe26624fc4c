"""Indirect write converter.

Like the indirect read converter, but the element stage is a beat *unpacker*:
once the indices of a W beat's elements are known, the packed write data is
scattered to the indexed addresses as parallel word writes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.axi.pack import PackMode
from repro.axi.signals import BBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.context import AdapterContext
from repro.controller.converter import Converter
from repro.controller.indirect_read import index_line_values, read_index_oracle
from repro.controller.lanes import (
    LaneReadPipe,
    LaneWritePipe,
    batch_index_fetch,
    batch_indexed_beat,
)

#: Prebound: compared once per completed index line.
_RESP_OKAY = Resp.OKAY


class _ActiveIndirectWrite:
    """Per-burst progress of the two-stage indirect write.

    Like the read side, decoded index lines are appended to ``index_list``
    and consumed by slice via ``index_pos``.
    """

    __slots__ = (
        "request",
        "wpipe_burst",
        "index_list",
        "index_pos",
        "payloads",
        "elements_planned",
        "next_beat",
        "index_oracle",
        "oracle_pos",
        "index_resp",
    )

    def __init__(self, request: BusRequest, wpipe_burst) -> None:
        self.request = request
        self.wpipe_burst = wpipe_burst
        self.index_list: List[int] = []
        self.index_pos = 0
        self.payloads: Deque[bytes] = deque()
        self.elements_planned = 0
        self.next_beat = 0
        #: materialized lazily on the first poisoned index line
        self.index_oracle: Optional[np.ndarray] = None
        self.oracle_pos = 0
        #: worst response over the burst's index-fetch lines so far
        self.index_resp = _RESP_OKAY

    @property
    def fully_planned(self) -> bool:
        return self.elements_planned >= self.request.num_elements


class IndirectWriteConverter(Converter):
    """Serves AXI-Pack indirect write bursts with bank-side indirection."""

    def __init__(self, name: str, ctx: AdapterContext) -> None:
        super().__init__(name, ctx)
        self._index_pipe = LaneReadPipe(f"{name}.index", ctx.config)
        self._write_pipe = LaneWritePipe(f"{name}.element", ctx.config)
        self._bursts: Deque[_ActiveIndirectWrite] = deque()
        self._by_txn: Dict[int, _ActiveIndirectWrite] = {}
        # Prebound hot-path counters (see repro.sim.stats).
        self._c_bursts = ctx.stats.counter("controller.indirect_write.bursts")
        self._c_index_lines = ctx.stats.counter("controller.indirect_write.index_lines")

    # ------------------------------------------------------------ acceptance
    def can_accept_write(self, request: BusRequest) -> bool:
        if request.mode is not PackMode.INDIRECT or not request.is_write:
            return False
        return len(self._bursts) < self.ctx.config.max_pipelined_bursts

    def accept_write(self, request: BusRequest) -> None:
        wpipe_burst = self._write_pipe.accept(request, None)
        active = _ActiveIndirectWrite(request, wpipe_burst)
        self._bursts.append(active)
        self._by_txn[request.txn_id] = active
        config = self.ctx.config
        self._index_pipe.accept(
            request,
            batch_index_fetch(
                request, config.bus_bytes, config.word_bytes, config.bus_words
            ),
        )
        self._c_bursts.value += 1

    def take_w_beat(self, payload: bytes) -> None:
        burst = self._write_pipe.take_w_beat(payload)
        for active in self._bursts:
            if active.wpipe_burst is burst:
                active.payloads.append(bytes(payload))
                return

    # ----------------------------------------------------------------- cycle
    def step(self, cycle: int) -> None:
        self._extract_indices()
        self._plan_write_beats()

    def _extract_indices(self) -> None:
        pipe = self._index_pipe
        while True:
            ready = pipe.pop_ready_beat()
            if ready is None:
                return
            useful, data, request, resp = ready
            active = self._by_txn.get(request.txn_id)
            if active is not None:
                if resp is not _RESP_OKAY:
                    self._note_index_fault(active, resp)
                active.index_list.extend(
                    index_line_values(active, useful, data, request, resp)
                )
            self._c_index_lines.value += 1

    def _note_index_fault(self, active: _ActiveIndirectWrite, resp: Resp) -> None:
        """A poisoned index line: fall back to oracle values, taint the burst."""
        if active.index_oracle is None:
            active.index_oracle = read_index_oracle(self.ctx, active.request)
        if resp.value > active.index_resp.value:
            active.index_resp = resp

    def _plan_write_beats(self) -> None:
        config = self.ctx.config
        word_bytes = config.word_bytes
        bus_words = config.bus_words
        for active in self._bursts:
            if active.fully_planned:
                continue
            request = active.request
            elems_per_beat = request.bus_bytes // request.elem_bytes
            index_list = active.index_list
            pipe = self._write_pipe
            while not active.fully_planned:
                remaining = request.num_elements - active.elements_planned
                beat_elems = min(elems_per_beat, remaining)
                pos = active.index_pos
                if len(index_list) - pos < beat_elems or not active.payloads:
                    return
                offsets = index_list[pos : pos + beat_elems]
                active.index_pos = pos + beat_elems
                payload = active.payloads.popleft()
                pipe.add_beat_batch(
                    batch_indexed_beat(
                        request, active.next_beat, offsets, word_bytes, bus_words
                    ),
                    payload,
                    active.wpipe_burst,
                    active.index_resp,
                )
                active.elements_planned += beat_elems
                active.next_beat += 1
            return

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        free_ports = self._write_pipe.issue(free_ports, out)
        return self._index_pipe.issue(free_ports, out)

    def unissued_deques(self):
        return (self._write_pipe._unissued, self._index_pipe._unissued)

    def b_beat_deques(self):
        return (self._write_pipe._bursts, self._write_pipe._beats)

    def pop_ready_b_beat(self) -> Optional[BBeat]:
        beat = self._write_pipe.pop_ready_b_beat()
        if beat is not None:
            self._retire_finished_bursts()
        return beat

    def _retire_finished_bursts(self) -> None:
        while self._bursts and self._bursts[0].fully_planned and self._bursts[0].wpipe_burst.complete:
            finished = self._bursts.popleft()
            self._by_txn.pop(finished.request.txn_id, None)

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        # Inlined pipe checks: this runs several times per adapter cycle.
        return bool(
            self._bursts
            or self._index_pipe._beats
            or self._write_pipe._bursts
            or self._write_pipe._beats
        )

    def reset(self) -> None:
        self._bursts.clear()
        self._by_txn.clear()
        self._index_pipe.reset()
        self._write_pipe.reset()
