"""AXI-Pack adapter top level (paper Fig. 2b).

The adapter is the single simulation component that owns the five burst
converters.  Per cycle it:

1. routes word responses from the banked memory back to the converter that
   issued them;
2. runs each converter's internal housekeeping (index extraction, planning);
3. demultiplexes at most one AR and one AW request onto the right converter;
4. routes at most one W data beat to the write converter expecting it;
5. lets the converters issue word accesses onto the free memory ports (the
   bank port mux: each port carries at most one access per cycle);
6. multiplexes at most one R beat and one B response per cycle back onto the
   AXI port — the R channel is a single physical bus, and this one-beat-per-
   cycle rule is what every utilization number in the paper is measured
   against.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from repro.axi.monitor import ChannelMonitor
from repro.axi.port import AxiPort
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.base_converter import BaseAxi4Converter
from repro.controller.context import AdapterConfig, AdapterContext
from repro.controller.converter import Converter
from repro.controller.indirect_read import IndirectReadConverter
from repro.controller.indirect_write import IndirectWriteConverter
from repro.controller.strided_read import StridedReadConverter
from repro.controller.strided_write import StridedWriteConverter
from repro.errors import ProtocolError
from repro.mem.banked import BankedMemory
from repro.sim.component import IDLE, Component, WakeHint
from repro.sim.stats import StatsRegistry

#: Prebound: compared per word response on the hottest routing path.
_RESP_OKAY = Resp.OKAY


class AxiPackAdapter(Component):
    """Translates AXI / AXI-Pack bursts into banked word accesses."""

    def __init__(
        self,
        name: str,
        port: AxiPort,
        memory: BankedMemory,
        config: Optional[AdapterConfig] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        super().__init__(name)
        self.port = port
        self.memory = memory
        self.config = config or AdapterConfig(bus_bytes=port.bus_bytes)
        if self.config.bus_bytes != port.bus_bytes:
            raise ProtocolError(
                f"adapter bus width {self.config.bus_bytes}B does not match the "
                f"AXI port width {port.bus_bytes}B"
            )
        if self.config.word_bytes != memory.config.word_bytes:
            raise ProtocolError(
                "adapter word width must match the banked memory word width"
            )
        if self.config.bus_words > memory.config.num_ports:
            raise ProtocolError(
                f"adapter needs {self.config.bus_words} word ports but the "
                f"memory provides only {memory.config.num_ports}"
            )
        self.stats = stats if stats is not None else StatsRegistry()
        self.ctx = AdapterContext(self.config, self.stats, storage=memory.storage)
        self.r_monitor = ChannelMonitor("R", self.config.bus_bytes)
        self.w_monitor = ChannelMonitor("W", self.config.bus_bytes)

        self.base = BaseAxi4Converter(f"{name}.base", self.ctx)
        self.strided_read = StridedReadConverter(f"{name}.strided_read", self.ctx)
        self.strided_write = StridedWriteConverter(f"{name}.strided_write", self.ctx)
        self.indirect_read = IndirectReadConverter(f"{name}.indirect_read", self.ctx)
        self.indirect_write = IndirectWriteConverter(f"{name}.indirect_write", self.ctx)
        self.converters: List[Converter] = [
            self.base,
            self.strided_read,
            self.strided_write,
            self.indirect_read,
            self.indirect_write,
        ]
        #: converters that override Converter.step (per-cycle housekeeping)
        self._stepping: List[Converter] = [
            converter
            for converter in self.converters
            if type(converter).step is not Converter.step
        ]
        #: converters that can ever emit a B response (write-capable)
        self._write_converters: List[Converter] = [
            converter
            for converter in self.converters
            if type(converter).pop_ready_b_beat is not Converter.pop_ready_b_beat
        ]
        # Prebound per-converter scan tables, derived from the converters
        # themselves (see Converter.unissued_deques/r_beat_deques/
        # b_beat_deques) so they can never desynchronize from the converter
        # list.  Reading the deques' truth values directly is behaviourally
        # identical to the has_unissued()/busy()/pop_ready_*() scans (a pop
        # attempt with nothing ready is a side-effect-free None) but avoids
        # two method calls per converter per cycle.
        #: unissued-slot deques, in self.converters order
        self._conv_unissued: List[Tuple] = [
            converter.unissued_deques() for converter in self.converters
        ]
        #: R-emission table aligned to self.converters: None for converters
        #: that can never emit an R beat, else (pop_ready_r_beat, deques)
        self._conv_r_emitters: List[Optional[Tuple]] = [
            None
            if converter.r_beat_deques() is None
            else (converter.pop_ready_r_beat, converter.r_beat_deques())
            for converter in self.converters
        ]
        #: B-emission table: (pop_ready_b_beat, deques) per write converter.
        #: Fail fast at construction if a converter overrides
        #: pop_ready_b_beat without exposing its gating containers — a None
        #: here would otherwise only surface mid-simulation.
        self._conv_b_emitters: List[Tuple] = []
        for converter in self._write_converters:
            b_deques = converter.b_beat_deques()
            if b_deques is None:
                raise ProtocolError(
                    f"{converter.name} overrides pop_ready_b_beat but "
                    "b_beat_deques() returned None; write-capable converters "
                    "must expose their B-gating containers"
                )
            self._conv_b_emitters.append((converter.pop_ready_b_beat, b_deques))
        #: (prebound step, active-burst deque) for the stepping converters
        self._stepping_info: List[Tuple] = [
            (converter.step, converter._bursts) for converter in self._stepping
        ]
        #: write converters in AW-acceptance order still owed W beats
        self._w_routing: Deque[Tuple[Converter, int]] = deque()
        self._issue_rr = 0
        self._emit_rr = 0
        self._last_tick: Optional[int] = None
        self._outstanding_words = 0  #: word accesses issued, responses pending
        #: accepted read bursts whose final (last) R beat is still pending —
        #: gates the R emission scan on cycles with nothing to emit
        self._open_read_bursts = 0
        #: accepted write bursts whose B response is still pending
        self._open_write_bursts = 0
        #: whether any word port could accept a request at the end of the
        #: last tick's issue phase — the state every slept-through cycle
        #: observes (see the rotation replay in :meth:`tick`)
        self._ports_free_after_issue = True
        # Prebound hot-path containers and counters (see repro.sim.stats).
        self._request_queues = memory.request_queues
        self._response_queues = memory.response_queues
        self._ar = port.ar
        self._aw = port.aw
        self._w = port.w
        self._r = port.r
        self._b = port.b
        self._issue_buffer: List = []  #: reused per-cycle word-request list
        self._c_word_requests = self.stats.counter("adapter.word_requests")
        self._c_r_beats = self.stats.counter("adapter.r_beats")
        self._c_r_useful = self.stats.counter("adapter.r_useful_bytes")
        self._c_w_beats = self.stats.counter("adapter.w_beats")
        self._c_ar_accepted = self.stats.counter("adapter.ar_accepted")
        self._c_aw_accepted = self.stats.counter("adapter.aw_accepted")
        self._c_b_beats = self.stats.counter("adapter.b_beats")

    # ------------------------------------------------------------ conversion
    def _read_converter_for(self, request: BusRequest) -> Converter:
        if request.mode.is_packed:
            if request.mode.name == "STRIDED":
                return self.strided_read
            return self.indirect_read
        return self.base

    def _write_converter_for(self, request: BusRequest) -> Converter:
        if request.mode.is_packed:
            if request.mode.name == "STRIDED":
                return self.strided_write
            return self.indirect_write
        return self.base

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> WakeHint:
        if self._last_tick is not None and cycle - self._last_tick > 1:
            # The adapter slept since ``_last_tick``.  In the tick-every-cycle
            # engine those cycles would each have rotated the issue
            # round-robin pointer — provided at least one word port was free
            # (``_issue_word_requests`` returns before the rotation when every
            # request queue is full).  The adapter sleeps only while none of
            # its subscribed queues see activity, and the adapter ticks
            # before the memory within a cycle, so every slept-through cycle
            # observes the request-queue occupancy as it stood at the end of
            # the last tick's issue phase (a pop that frees a port wakes the
            # adapter for the *next* cycle and is never visible to the
            # skipped tick of its own cycle).  Replaying from that captured
            # state reconstructs the seed behaviour exactly.
            if self._ports_free_after_issue:
                skipped = cycle - self._last_tick - 1
                self._issue_rr = (self._issue_rr + skipped) % len(self.converters)
        self._last_tick = cycle
        if self._outstanding_words:
            self._route_memory_responses()
        for step, bursts in self._stepping_info:
            # Only the indirect converters do per-cycle housekeeping (index
            # extraction, planning); the others' step is a no-op, and an
            # indirect converter with no active burst has nothing to do.
            if bursts:
                step(cycle)
        self._demux_requests()
        if self._w_routing:
            self._route_w_data()
        self._issue_word_requests()
        if self._open_read_bursts:
            self._emit_r_beat()
        if self._open_write_bursts:
            self._emit_b_beat()
        # Every state transition of the adapter and its converters is driven
        # by queue events it is subscribed to: bursts arrive on AR/AW/W,
        # word responses arrive on the memory response queues, back-pressure
        # clears when R/B or the memory request queues are popped, and any
        # progress the adapter itself made this cycle touched a queue (its
        # own pushes/pops), which re-wakes it next cycle automatically.  The
        # only per-cycle state, the issue rotation, is replayed on wake-up.
        return IDLE

    def wake_queues(self):
        return [*self.port.all_queues(), *self.memory.all_queues()]

    # -------------------------------------------------------------- responses
    def _route_memory_responses(self) -> None:
        outstanding = self._outstanding_words
        for queue in self._response_queues:
            storage = queue._storage
            if not storage:
                continue
            # Inlined DecoupledQueue.pop (one response per port per cycle).
            queue.total_popped += 1
            queue._count -= 1
            engine = queue._engine
            if engine is not None:
                engine._activity += 1
                if not queue._touched:
                    queue._touched = True
                    engine._touched_queues.append(queue)
            response = storage.popleft()
            pipe, state, slot = response.tag
            if response.resp is _RESP_OKAY:
                if response.is_write:
                    pipe.take_ack(state, slot)
                else:
                    pipe.take_response(state, slot, response.data)
            elif response.is_write:
                # Errored word access: the payload (if any) is invalid; the
                # beat is poisoned instead of filled.
                pipe.take_error_ack(state, slot, response.resp)
            else:
                pipe.take_error_response(state, slot, response.resp)
            outstanding -= 1
        self._outstanding_words = outstanding

    # ---------------------------------------------------------------- demux
    def _demux_requests(self) -> None:
        ar = self._ar
        if ar._storage:
            request = ar._storage[0]
            converter = self._read_converter_for(request)
            if converter.can_accept_read(request):
                converter.accept_read(ar.pop())
                self._open_read_bursts += 1
                self._c_ar_accepted.value += 1
        aw = self._aw
        if aw._storage:
            request = aw._storage[0]
            converter = self._write_converter_for(request)
            if converter.can_accept_write(request):
                converter.accept_write(aw.pop())
                self._w_routing.append((converter, request.num_beats))
                self._open_write_bursts += 1
                self._c_aw_accepted.value += 1

    def _route_w_data(self) -> None:
        if not self._w_routing or not self._w._storage:
            return
        converter, beats_left = self._w_routing[0]
        beat = self._w.pop()
        converter.take_w_beat(beat.data)
        self.w_monitor.record_beat(beat.useful_bytes)
        self._c_w_beats.value += 1
        if beats_left - 1 == 0:
            self._w_routing.popleft()
        else:
            self._w_routing[0] = (converter, beats_left - 1)

    # ----------------------------------------------------------------- issue
    def _issue_word_requests(self) -> None:
        queues = self._request_queues
        converters = self.converters
        conv_unissued = self._conv_unissued
        count = len(converters)
        # A converter has work iff one of its pipes' unissued deques is
        # non-empty; `dqs[0] or dqs[-1]` covers both the one- and two-pipe
        # tuples without a loop.
        for dqs in conv_unissued:
            if dqs[0] or dqs[-1]:
                break
        else:
            # Nothing to issue: the seed engine still rotated the round-robin
            # pointer whenever at least one word port was free.
            for queue in queues:
                if queue._count < queue.depth:
                    self._issue_rr = (self._issue_rr + 1) % count
                    self._ports_free_after_issue = True
                    return
            self._ports_free_after_issue = False
            return
        free_ports: Set[int] = set()
        for port, queue in enumerate(queues):
            if queue._count < queue.depth:
                free_ports.add(port)
        self._ports_free_after_issue = bool(free_ports)
        if not free_ports:
            return
        requests = self._issue_buffer
        rr = self._issue_rr
        for offset in range(count):
            index = rr + offset
            if index >= count:
                index -= count
            dqs = conv_unissued[index]
            # An idle converter has no slots to issue; skip the call.
            if dqs[0] or dqs[-1]:
                converters[index].issue(free_ports, requests)
                if not free_ports:
                    break
        self._issue_rr = (rr + 1) % count
        if requests:
            self._outstanding_words += len(requests)
            self._c_word_requests.value += len(requests)
            for request in requests:
                # Inlined DecoupledQueue.push; space is guaranteed because
                # ports leave free_ports the moment their queue fills.
                queue = queues[request.port]
                queue._incoming.append(request)
                queue._count += 1
                queue.total_pushed += 1
                engine = queue._engine
                if engine is not None:
                    engine._activity += 1
                    if not queue._touched:
                        queue._touched = True
                        engine._touched_queues.append(queue)
            del requests[:]
            # This tick's pushes may have filled the last free port; slept
            # cycles must observe the post-push occupancy.
            for queue in queues:
                if queue._count < queue.depth:
                    self._ports_free_after_issue = True
                    break
            else:
                self._ports_free_after_issue = False

    # ------------------------------------------------------------------ emit
    def _emit_r_beat(self) -> None:
        r = self._r
        if r._count >= r.depth:
            return
        emitters = self._conv_r_emitters
        count = len(emitters)
        rr = self._emit_rr
        for offset in range(count):
            index = rr + offset
            if index >= count:
                index -= count
            emitter = emitters[index]
            if emitter is None:
                # Write-only converter: can never produce an R beat.
                continue
            for beats in emitter[1]:
                if beats:
                    break
            else:
                continue
            beat = emitter[0]()
            if beat is not None:
                r.push(beat)
                useful = beat.useful_bytes
                self.r_monitor.record_beat(useful)
                self._c_r_beats.value += 1
                self._c_r_useful.value += useful
                self._emit_rr = (rr + 1) % count
                if beat.last:
                    self._open_read_bursts -= 1
                return

    def _emit_b_beat(self) -> None:
        b = self._b
        if b._count >= b.depth:
            return
        for pop_b, deques in self._conv_b_emitters:
            for container in deques:
                if container:
                    break
            else:
                continue
            beat = pop_b()
            if beat is not None:
                b.push(beat)
                self._open_write_bursts -= 1
                self._c_b_beats.value += 1
                return

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        return any(converter.busy() for converter in self.converters) or bool(
            self._w_routing
        )

    def reset(self) -> None:
        for converter in self.converters:
            converter.reset()
        self._w_routing.clear()
        self.r_monitor.reset()
        self.w_monitor.reset()
        self._issue_rr = 0
        self._emit_rr = 0
        self._last_tick = None
        self._outstanding_words = 0
        self._open_read_bursts = 0
        self._open_write_bursts = 0
        self._ports_free_after_issue = True
