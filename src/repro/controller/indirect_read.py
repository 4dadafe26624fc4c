"""Indirect read converter (paper Fig. 2d).

Two stages share the word request ports:

* the **index stage** fetches the burst's index array from memory one
  bus-wide line at a time (contiguous word reads) and extracts individual
  indices from the returned lines;
* the **element stage** shifts each index by the element size, adds the base
  address, fetches the scattered elements, and packs them into R beats.

The element stage has priority for the ports; the index stage fills the
cycles the element stage leaves idle (it runs ahead exactly one line in
steady state, which is what bounds the ideal utilization at ``r / (r + 1)``
for an element-to-index size ratio of ``r`` — see paper §III-E).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.axi.pack import PackMode
from repro.axi.signals import RBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.context import AdapterContext
from repro.controller.converter import Converter
from repro.controller.lanes import (
    LaneReadPipe,
    batch_index_fetch,
    batch_indexed_beat,
)
from repro.errors import SimulationError

_INDEX_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: Prebound: compared once per completed index line.
_RESP_OKAY = Resp.OKAY


def read_index_oracle(ctx: AdapterContext, request: BusRequest) -> np.ndarray:
    """Resolve a burst's index values functionally.

    A *poisoned* index line carries invalid bytes, but the burst still has
    to plan (and fail) its element accesses at deterministic addresses.  The
    values are then read once from the backing storage the workload
    initialized; the per-line fetch timing is still simulated by the index
    pipe, values are just consumed from this oracle instead of the returned
    line payloads.

    Index elements that fall outside the storage resolve to zero — the bus
    reports the error in band (the fetch words answer ``SLVERR``), so the
    oracle must yield deterministic values instead of raising.
    """
    if ctx.storage is None:
        raise SimulationError(
            "a poisoned index line needs the adapter context to carry the "
            "backing storage to resolve indirect-burst indices"
        )
    index_bytes = request.pack.index_bytes
    dtype = _INDEX_DTYPES[index_bytes]
    num = request.num_elements
    base = request.index_base
    size = ctx.storage.size_bytes
    if 0 <= base and base + num * index_bytes <= size:
        return ctx.storage.read_array(base, num, dtype)
    values = np.zeros(num, dtype=dtype)
    if 0 <= base < size:
        avail = min(num, (size - base) // index_bytes)
        if avail > 0:
            values[:avail] = ctx.storage.read_array(base, avail, dtype)
    return values


def index_line_values(active, useful_bytes: int, data, request: BusRequest,
                      resp: Resp = _RESP_OKAY) -> list:
    """The index values carried by one completed index-fetch line.

    They are decoded from the line's payload bytes, except for *poisoned*
    lines, whose payload bytes are invalid: those consume the next
    ``useful_bytes // index_bytes`` values from the burst's oracle (see
    :func:`read_index_oracle`).  ``oracle_pos`` advances for every line so
    a mid-burst fault slices the oracle at the right position.  Shared by
    the indirect read and write converters so the two stay in lock-step.
    The values come back as a Python list so the element planner slices
    them without per-element ``int()`` boxing.
    """
    count = useful_bytes // request.pack.index_bytes
    pos = active.oracle_pos
    active.oracle_pos = pos + count
    if resp is not _RESP_OKAY:
        return active.index_oracle[pos : pos + count].tolist()
    dtype = _INDEX_DTYPES[request.pack.index_bytes]
    return np.frombuffer(data, dtype=dtype).tolist()


class _ActiveIndirectRead:
    """Per-burst progress of the two-stage indirect read.

    Decoded index lines are appended to ``index_list`` and consumed by
    slice via ``index_pos``.
    """

    __slots__ = (
        "request",
        "index_list",
        "index_pos",
        "elements_planned",
        "next_beat",
        "index_oracle",
        "oracle_pos",
        "index_resp",
    )

    def __init__(self, request: BusRequest) -> None:
        self.request = request
        self.index_list: List[int] = []
        self.index_pos = 0
        self.elements_planned = 0
        self.next_beat = 0
        #: materialized lazily on the first poisoned index line
        self.index_oracle: Optional[np.ndarray] = None
        self.oracle_pos = 0
        #: worst response over the burst's index-fetch lines so far; element
        #: beats planned after a fault inherit it
        self.index_resp = _RESP_OKAY

    @property
    def fully_planned(self) -> bool:
        return self.elements_planned >= self.request.num_elements


class IndirectReadConverter(Converter):
    """Serves AXI-Pack indirect read bursts with bank-side indirection."""

    def __init__(self, name: str, ctx: AdapterContext) -> None:
        super().__init__(name, ctx)
        self._index_pipe = LaneReadPipe(f"{name}.index", ctx.config)
        self._element_pipe = LaneReadPipe(f"{name}.element", ctx.config)
        self._bursts: Deque[_ActiveIndirectRead] = deque()
        self._by_txn: Dict[int, _ActiveIndirectRead] = {}
        # Prebound hot-path counters (see repro.sim.stats).
        self._c_bursts = ctx.stats.counter("controller.indirect_read.bursts")
        self._c_index_lines = ctx.stats.counter("controller.indirect_read.index_lines")

    # ------------------------------------------------------------ acceptance
    def can_accept_read(self, request: BusRequest) -> bool:
        if request.mode is not PackMode.INDIRECT or request.is_write:
            return False
        return len(self._bursts) < self.ctx.config.max_pipelined_bursts

    def accept_read(self, request: BusRequest) -> None:
        active = _ActiveIndirectRead(request)
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

    # ----------------------------------------------------------------- cycle
    def step(self, cycle: int) -> None:
        self._extract_indices()
        self._plan_element_beats()

    def _extract_indices(self) -> None:
        """Offsets extraction: decode returned index lines into index lists."""
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

    def _note_index_fault(self, active: _ActiveIndirectRead, resp: Resp) -> None:
        """A poisoned index line: fall back to oracle values, taint the burst."""
        if active.index_oracle is None:
            active.index_oracle = read_index_oracle(self.ctx, active.request)
        if resp.value > active.index_resp.value:
            active.index_resp = resp

    def _plan_element_beats(self) -> None:
        """Element request generation for the oldest incompletely planned burst."""
        config = self.ctx.config
        word_bytes = config.word_bytes
        bus_words = config.bus_words
        for active in self._bursts:
            if active.fully_planned:
                continue
            request = active.request
            elems_per_beat = request.bus_bytes // request.elem_bytes
            index_list = active.index_list
            pipe = self._element_pipe
            while not active.fully_planned:
                remaining = request.num_elements - active.elements_planned
                beat_elems = min(elems_per_beat, remaining)
                pos = active.index_pos
                if len(index_list) - pos < beat_elems:
                    return  # wait for more indices before planning further
                offsets = index_list[pos : pos + beat_elems]
                active.index_pos = pos + beat_elems
                pipe.add_batch(
                    request,
                    batch_indexed_beat(
                        request, active.next_beat, offsets, word_bytes, bus_words
                    ),
                    active.index_resp,
                )
                active.elements_planned += beat_elems
                active.next_beat += 1
            return  # keep burst order: never plan burst k+1 before k is done

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        # Element fetches have priority; index fetches use the leftover ports.
        free_ports = self._element_pipe.issue(free_ports, out)
        return self._index_pipe.issue(free_ports, out)

    def unissued_deques(self):
        return (self._element_pipe._unissued, self._index_pipe._unissued)

    def r_beat_deques(self):
        return (self._element_pipe._beats,)

    def pop_ready_r_beat(self) -> Optional[RBeat]:
        beat = self._element_pipe.pop_ready_r_beat()
        if beat is not None:
            self._retire_finished_bursts()
        return beat

    def _retire_finished_bursts(self) -> None:
        while self._bursts and self._bursts[0].fully_planned:
            # A burst record is only needed until all its beats are planned;
            # emission is tracked by the element pipe itself.
            finished = self._bursts.popleft()
            self._by_txn.pop(finished.request.txn_id, None)

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        # Inlined pipe checks: this runs several times per adapter cycle.
        return bool(
            self._bursts or self._index_pipe._beats or self._element_pipe._beats
        )

    def reset(self) -> None:
        self._bursts.clear()
        self._by_txn.clear()
        self._index_pipe.reset()
        self._element_pipe.reset()
