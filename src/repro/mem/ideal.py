"""Idealized memory endpoint used by the IDEAL reference system.

The IDEAL system of the paper (§III-A) connects the vector unit to "an
exclusive, idealized memory with one port per lane, serving data with ideal
packing, bandwidth, and latency".  This endpoint therefore serves any burst
at one full-width beat per cycle, with a fixed (small) latency, perfect
packing and no bank conflicts.  It gives the upper bound that the PACK
system is compared against.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.axi.faults import BusFaultPlan, BusFaultSpec
from repro.axi.port import AxiPort
from repro.axi.signals import BBeat, RBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.errors import ProtocolError
from repro.mem.functional import (
    burst_fault_address,
    read_burst_payload,
    write_burst_payload,
)
from repro.mem.storage import MemoryStorage
from repro.sim.component import IDLE, Component, WakeHint
from repro.sim.stats import StatsRegistry


class IdealMemoryEndpoint(Component):
    """Serves AXI/AXI-Pack bursts at one fully packed beat per cycle.

    Error semantics: a burst touching any byte outside the storage — or one
    matched by an injected :class:`~repro.axi.faults.BusFaultSpec` — never
    moves data.  Reads deliver the full burst length as phantom beats
    (``useful_bytes=0``, ``resp=SLVERR``/``DECERR``); writes consume every
    W beat, discard the payload and answer an error B.  The range check is
    functional (element addresses only).
    """

    def __init__(
        self,
        name: str,
        port: AxiPort,
        storage: MemoryStorage,
        latency: int = 2,
        stats: Optional[StatsRegistry] = None,
        bus_faults: Optional[BusFaultPlan] = None,
    ) -> None:
        super().__init__(name)
        self.port = port
        self.storage = storage
        self.latency = max(1, latency)
        self.stats = stats if stats is not None else StatsRegistry()
        self._fault_plan = (
            bus_faults if bus_faults is not None
            and bus_faults.touches_port(name) else None
        )
        # Active read: [request, payload bytes (None for an error burst),
        # next beat index, ready cycle, resp]
        self._read: Optional[list] = None
        self._read_backlog: Deque[BusRequest] = deque()
        # Active write: [request, collected payload bytes, beats received,
        # resp, lost?, stall cycles, B-ready cycle | None]
        self._write: Optional[list] = None

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> WakeHint:
        self._serve_reads(cycle)
        self._serve_writes(cycle)
        # Every transition except a burst waiting out its latency (or an
        # injected response stall) is gated on port-queue activity (AR/AW/W
        # arrivals, R/B back-pressure), which re-wakes us via the
        # subscriptions; streaming reads self-wake through their own R pushes.
        wake = IDLE
        if self._read is not None and self._read[3] > cycle:
            wake = self._read[3]
        if self._write is not None:
            b_ready = self._write[6]
            if b_ready is not None and b_ready > cycle and b_ready < wake:
                wake = b_ready
        return wake

    def wake_queues(self):
        return self.port.all_queues()

    # ---------------------------------------------------------------- faults
    def _injected_fault(self, request: BusRequest) -> Optional[BusFaultSpec]:
        """The plan's fault for this burst, if any (keyed by name/txn/addr)."""
        if self._fault_plan is None:
            return None
        return self._fault_plan.first_match(
            self.name, request.txn_id, request.addr
        )

    def _burst_resp(self, request: BusRequest) -> Resp:
        """SLVERR for a burst touching any byte outside the storage."""
        if burst_fault_address(self.storage, request) is not None:
            return Resp.SLVERR
        return Resp.OKAY

    # ------------------------------------------------------------------ reads
    def _serve_reads(self, cycle: int) -> None:
        # Accept new read bursts eagerly so back-to-back bursts stream with no
        # bubble — the IDEAL memory has perfect bandwidth and latency.
        while self.port.ar.can_pop() and len(self._read_backlog) < 8:
            self._read_backlog.append(self.port.ar.pop())
        while self._read is None and self._read_backlog:
            # Loop: a lost-response burst is swallowed whole, and the next
            # backlog entry must still start this cycle.
            self._start_read(self._read_backlog.popleft(), cycle)
        if self._read is None:
            return
        request, payload, beat_index, ready_cycle, resp = self._read
        if cycle < ready_cycle or not self.port.r.can_push():
            return
        if payload is None:
            # Phantom error beat: no bytes, no useful payload.
            chunk = b""
            useful = 0
        else:
            bus_bytes = request.bus_bytes
            start = beat_index * bus_bytes
            chunk = payload[start : start + bus_bytes]
            useful = len(chunk)
        last = beat_index == request.num_beats - 1
        self.port.r.push(
            RBeat(
                txn_id=request.txn_id,
                data=chunk,
                useful_bytes=useful,
                last=last,
                resp=resp,
            )
        )
        self.stats.add("ideal.r_beats")
        self.stats.add("ideal.r_useful_bytes", useful)
        if last:
            self._read = None
            if self._read_backlog:
                # Start the next burst immediately; its data is ready the very
                # next cycle (single-cycle idealized latency between bursts).
                self._start_read(self._read_backlog.popleft(), cycle + 1 - self.latency)
        else:
            self._read[2] = beat_index + 1

    def _start_read(self, request: BusRequest, cycle: int) -> None:
        if request.is_write:
            raise ProtocolError("write request arrived on the AR channel")
        resp = self._burst_resp(request)
        stall = 0
        fault = self._injected_fault(request)
        if fault is not None:
            if fault.kind == "lost":
                return  # the burst vanishes: no R beats, ever
            if fault.kind == "stall":
                stall = fault.stall_cycles
            else:
                resp = fault.resp
        # An error burst delivers its full length as phantom beats and
        # reads no data.
        payload = (
            read_burst_payload(self.storage, request)
            if resp is Resp.OKAY else None
        )
        self._read = [request, payload, 0, cycle + self.latency + stall, resp]

    # ----------------------------------------------------------------- writes
    def _serve_writes(self, cycle: int) -> None:
        if self._write is None and self.port.aw.can_pop():
            request = self.port.aw.pop()
            if not request.is_write:
                raise ProtocolError("read request arrived on the AW channel")
            resp = self._burst_resp(request)
            lost = False
            stall = 0
            fault = self._injected_fault(request)
            if fault is not None:
                if fault.kind == "lost":
                    lost = True  # W beats are still drained; B never comes
                elif fault.kind == "stall":
                    stall = fault.stall_cycles
                else:
                    resp = fault.resp
            self._write = [request, [], 0, resp, lost, stall, None]
        if self._write is None:
            return
        request, chunks, beats, resp, lost, stall, b_ready = self._write
        # Consume at most one W beat per cycle (one bus width of bandwidth).
        if beats < request.num_beats and self.port.w.can_pop():
            beat = self.port.w.pop()
            if resp is Resp.OKAY and not lost:
                data = beat.data
                if isinstance(data, (bytes, bytearray, memoryview)):
                    chunk = np.frombuffer(data, dtype=np.uint8)[: beat.useful_bytes]
                else:
                    chunk = np.asarray(data, dtype=np.uint8)[: beat.useful_bytes]
                chunks.append(chunk)
            beats += 1
            self._write[2] = beats
            self.stats.add("ideal.w_beats")
            self.stats.add("ideal.w_useful_bytes", beat.useful_bytes)
        if beats != request.num_beats:
            return
        if lost:
            # Every W beat is consumed, then the transaction vanishes: the
            # payload is dropped and no B response is ever sent.
            self._write = None
            return
        if b_ready is None:
            b_ready = cycle + stall
            self._write[6] = b_ready
        if cycle >= b_ready and self.port.b.can_push():
            if resp is Resp.OKAY:
                payload = np.concatenate(chunks)[: request.payload_bytes]
                write_burst_payload(self.storage, request, payload)
            self.port.b.push(BBeat(txn_id=request.txn_id, resp=resp))
            self._write = None

    # ------------------------------------------------------------------ state
    def busy(self) -> bool:
        return self._read is not None or self._write is not None or bool(self._read_backlog)

    def reset(self) -> None:
        self._read = None
        self._write = None
        self._read_backlog.clear()
